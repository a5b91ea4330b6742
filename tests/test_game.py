import numpy as np
import pytest

from teamcontracts import (
    ActionSet,
    ActionSpec,
    Contract,
    GameSizeError,
    Profile,
    check_modularity,
    enumerate_equilibria,
    extremal_br_path,
    induce_game,
    paired_br_limit,
    principal_value,
    reduce_failure_wages,
    select_and_value,
    verify_profile,
)

WORK_SHIRK = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.45)])


class TestInduceGame:
    def test_independent_payoffs(self):
        g = induce_game(Contract(0.5, 0.5, 0.0, 0.0), WORK_SHIRK)
        u = g.payoff
        assert np.allclose(u[0], 0.25)
        assert np.allclose(u[1], 0.225)

    def test_joint_bonus_payoffs(self):
        g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), WORK_SHIRK)
        u = g.payoff
        assert u[0, 0] == pytest.approx(0.25)
        assert u[0, 1] == pytest.approx(-0.025)
        assert u[1, 1] == pytest.approx(0.10125)
        assert u[1, 0] == pytest.approx(0.225)

    def test_zero_contract_pays_costs(self):
        g = induce_game(Contract(0.0, 0.0, 0.0, 0.0), WORK_SHIRK)
        assert np.allclose(g.payoff, -np.array([[0.25, 0.25], [0.0, 0.0]]))

    def test_columns_match_matrix(self):
        rng = np.random.default_rng(0)
        w = Contract(*rng.uniform(0, 1, 4))
        acts = ActionSet.from_pairs([(rng.uniform(0, 0.5), rng.uniform(0, 1)) for _ in range(4)])
        g = induce_game(w, acts)
        for j in range(4):
            assert np.array_equal(g.payoff_column(j), g.payoff[:, j])


def dense_modularity(game, tol=1e-12):
    """check_modularity's former loop over all ordered action pairs, kept as
    the oracle for the closed form."""
    asc = list(reversed(game.actions.ranking()))
    v = game.payoff[np.ix_(asc, asc)]
    m = len(asc)
    lo, hi = 0.0, 0.0
    iu, ju = np.triu_indices(m, 1)
    for i1 in range(m):
        for i2 in range(i1 + 1, m):
            d = v[i2] - v[i1]
            inc = d[ju] - d[iu]
            if inc.size:
                lo = min(lo, float(inc.min()))
                hi = max(hi, float(inc.max()))
    is_super = lo >= -tol
    is_sub = hi <= tol
    if is_super and is_sub:
        return "BOTH"
    if is_super:
        return "SUPERMODULAR"
    if is_sub:
        return "SUBMODULAR"
    return "NEITHER"


def dense_pure_equilibria(game, tol=1e-9):
    """enumerate_equilibria's former double loop over all pure profiles,
    kept as the oracle for its best-response mask."""
    u = game.payoff
    colmax = u.max(axis=0)
    n = len(game)
    out = []
    for i in range(n):
        for j in range(n):
            if u[i, j] >= colmax[j] - tol and u[j, i] >= colmax[i] - tol:
                out.append(Profile.pure(i, j, n))
    return out


class TestModularity:
    def test_joint_is_supermodular(self):
        g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), WORK_SHIRK)
        assert check_modularity(g) == "SUPERMODULAR"

    def test_relative_is_submodular(self):
        g = induce_game(Contract(0.0, 0.5, 0.0, 0.0), WORK_SHIRK)
        assert check_modularity(g) == "SUBMODULAR"

    def test_independent_is_both(self):
        g = induce_game(Contract(0.5, 0.5, 0.0, 0.0), WORK_SHIRK)
        assert check_modularity(g) == "BOTH"

    def test_closed_form_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        kinds = ("random", "joint", "relative", "affine", "equal_prob")
        seen = set()
        for t in range(2000):
            kind = kinds[t % len(kinds)]
            w = rng.uniform(0.0, 1.5, 4)
            if kind == "joint":
                w[0], w[2:] = w[1] + rng.uniform(0.01, 1.0), 0.0
            elif kind == "relative":
                w[0], w[2:] = w[1] * rng.uniform(0.0, 0.99), 0.0
            elif kind == "affine":
                w[0] = w[1] + w[2] - w[3] if w[1] + w[2] >= w[3] else w[0]
            n = int(rng.integers(1, 7))
            probs = (np.full(n, rng.uniform(0, 1)) if kind == "equal_prob"
                     else rng.uniform(0, 1, n))
            acts = ActionSet.from_pairs([(rng.uniform(0, 0.5), p) for p in probs])
            g = induce_game(Contract(*w), acts)
            want = dense_modularity(g)
            assert check_modularity(g) == want, (kind, w, probs)
            seen.add(want)
        assert seen == {"SUPERMODULAR", "SUBMODULAR", "BOTH"}


class TestExtremalPath:
    def test_undercut_chain(self):
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.125, 0.76), (0.0, 0.45)])
        g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), acts)
        limit, path = extremal_br_path(g, "MAX")
        assert path == [0, 1, 2]
        assert acts.actions[limit] == ActionSpec(0.0, 0.45)

    def test_independent_limit_is_start_free(self):
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.45), (0.1, 0.9)])
        g = induce_game(Contract(0.5, 0.5, 0.0, 0.0), acts)
        hi, _ = extremal_br_path(g, "MAX")
        lo, _ = extremal_br_path(g, "MIN")
        best = int(np.argmax([a.prob * 0.5 - a.cost for a in acts.actions]))
        assert hi == lo == best

    def test_singleton(self):
        g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), ActionSet.from_pairs([(0.25, 1.0)]))
        limit, path = extremal_br_path(g, "MAX")
        assert limit == 0 and path == [0]

    def test_paired_map_on_submodular_game(self):
        acts = ActionSet.from_pairs([(0.08, 0.8), (0.0, 0.3)])
        g = induce_game(Contract(0.0, 0.6, 0.0, 0.0), acts)
        a, b = paired_br_limit(g)
        n = len(acts)
        assert verify_profile(g, Profile.pure(a, b, n))
        assert verify_profile(g, Profile.pure(b, a, n))


class TestEnumerate:
    def test_productive_shirk_dominates(self):
        # With the undercut anywhere above p0 - c0/w, mutual shirking is the
        # unique equilibrium of the independent-evaluation game.
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.55)])
        g = induce_game(Contract(0.5, 0.5, 0.0, 0.0), acts)
        eqs = enumerate_equilibria(g)
        assert [e.indices for e in eqs] == [(1, 1)]

    def test_unproductive_shirk_loses(self):
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.45)])
        g = induce_game(Contract(0.5, 0.5, 0.0, 0.0), acts)
        eqs = enumerate_equilibria(g)
        assert [e.indices for e in eqs] == [(0, 0)]

    def test_joint_bonus_multiplicity(self):
        # Under the pooled bonus both mutual work and mutual shirk survive.
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.4)])
        g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), acts)
        pure = enumerate_equilibria(g)
        assert {e.indices for e in pure} == {(0, 0), (1, 1)}
        all_eqs = enumerate_equilibria(g, mixed=True)
        mixed = [e for e in all_eqs if not e.is_pure]
        assert len(mixed) == 1
        # Opponent weight on work solving the indifference by hand.
        assert mixed[0].y[0] == pytest.approx(0.13 / 0.18, abs=1e-12)
        assert verify_profile(g, mixed[0])

    def test_pure_mask_matches_dense_oracle(self):
        rng = np.random.default_rng(67)
        counts = set()
        for t in range(2000):
            n = int(rng.integers(1, 9))
            # rounded draws make duplicate actions and exact payoff ties common
            probs = np.round(rng.uniform(0, 1, n), 1 + t % 3)
            costs = np.round(rng.uniform(0, 0.5, n), 1 + t % 3)
            acts = ActionSet.from_pairs(list(zip(costs, probs)))
            w = np.round(rng.uniform(0, 1, 4), 1) * (rng.random(4) < 0.7)
            g = induce_game(Contract(*w), acts)
            got = enumerate_equilibria(g)
            assert got == dense_pure_equilibria(g)
            counts.add(min(len(got), 3))
        assert counts == {1, 2, 3}

    def test_anticoordination_mixed(self):
        acts = ActionSet.from_pairs([(0.08, 0.8), (0.0, 0.3)])
        g = induce_game(Contract(0.0, 0.6, 0.0, 0.0), acts)
        eqs = enumerate_equilibria(g, mixed=True)
        pure = {e.indices for e in eqs if e.is_pure}
        assert pure == {(0, 1), (1, 0)}
        mixed = [e for e in eqs if not e.is_pure]
        assert len(mixed) == 1
        assert mixed[0].x[0] == pytest.approx(13.0 / 15.0, abs=1e-12)
        assert mixed[0].y[0] == pytest.approx(13.0 / 15.0, abs=1e-12)

    def test_every_profile_verifies(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            w = Contract(*rng.uniform(0, 1, 4))
            acts = ActionSet.from_pairs(
                [(rng.uniform(0, 0.6), rng.uniform(0, 1)) for _ in range(4)]
            )
            g = induce_game(w, acts)
            for e in enumerate_equilibria(g, mixed=True):
                assert verify_profile(g, e)

    def test_cap(self):
        acts = ActionSet.from_pairs([(0.01 * k, 0.05 * k) for k in range(1, 14)])
        g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), acts)
        with pytest.raises(GameSizeError):
            enumerate_equilibria(g, mixed=True)
        enumerate_equilibria(g, mixed=False)


class TestSelection:
    def game_with_two_equilibria(self):
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.4)])
        return induce_game(Contract(0.5, 0.0, 0.0, 0.0), acts)

    def test_principal_best(self):
        g = self.game_with_two_equilibria()
        eqs = enumerate_equilibria(g)
        rep = select_and_value(g, eqs, "PRINCIPAL_BEST")
        assert rep.selected.indices == (0, 0)
        assert rep.principal_total == pytest.approx(1.0)
        assert rep.principal_per_agent == pytest.approx(0.5)

    def test_pessimistic_pareto_agrees_under_dominance(self):
        g = self.game_with_two_equilibria()
        eqs = enumerate_equilibria(g, mixed=True)
        rep = select_and_value(g, eqs, "PESSIMISTIC_PARETO")
        # mutual work pays each agent 0.25 versus 0.08 under mutual shirk,
        # so it is the unique Pareto-efficient equilibrium.
        assert rep.selected.indices == (0, 0)
        assert rep.principal_total == pytest.approx(1.0)

    def test_pessimistic_can_differ(self):
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.51)])
        g = induce_game(Contract(2.0 / 3.0, 0.0, 0.0, 0.0), acts)
        eqs = enumerate_equilibria(g, mixed=True)
        best = select_and_value(g, eqs, "PRINCIPAL_BEST")
        pess = select_and_value(g, eqs, "PESSIMISTIC_PARETO")
        # The principal prefers a less productive equilibrium here (her
        # payoff is non-monotone above the per-partner peak), while mutual
        # work is the unique Pareto-efficient one.
        assert pess.selected.indices == (0, 0)
        assert pess.principal_total == pytest.approx(2.0 / 3.0)
        assert pess.principal_total < best.principal_total

    def test_principal_value_mixed_matches_direct(self):
        g = self.game_with_two_equilibria()
        mixed = [e for e in enumerate_equilibria(g, mixed=True) if not e.is_pure][0]
        q = mixed.y[0]
        p_mean = q * 1.0 + (1 - q) * 0.4
        direct = 2 * p_mean - 2 * (p_mean * p_mean * 0.5)
        assert principal_value(g, mixed) == pytest.approx(direct, abs=1e-12)


class TestReductionInvariance:
    def test_equilibria_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            w = Contract(*rng.uniform(0, 1, 4))
            acts = ActionSet.from_pairs(
                [(rng.uniform(0, 0.6), rng.uniform(0, 1)) for _ in range(5)]
            )
            e1 = {p.indices for p in enumerate_equilibria(induce_game(w, acts))}
            w2 = reduce_failure_wages(w)
            e2 = {p.indices for p in enumerate_equilibria(induce_game(w2, acts))}
            assert e1 == e2
