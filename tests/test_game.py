import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

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
    ipe_adversary,
    paired_br_limit,
    principal_value,
    reduce_failure_wages,
    select_and_value,
    verify_profile,
)
from teamcontracts.game import PESSIMISTIC_PARETO, PRINCIPAL_BEST, agent_payoffs
from teamcontracts.selftest import draw_action_set, draw_jpe, draw_random_contract, draw_superset

from dense_game import (
    dense_agent_payoffs,
    dense_enumerate_equilibria,
    dense_payoff,
    dense_principal_value,
    dense_select,
    dense_verify_profile,
)
from test_best_response import games

WORK_SHIRK = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.45)])


def unique_pure_equilibrium(contract, actions):
    """Whether mutual play of the last action is the unique pure equilibrium
    of the game ``contract`` induces on ``actions``: the claim of
    ``ipe_adversary``'s single undercut."""
    pure = enumerate_equilibria(induce_game(contract, actions), mixed=False)
    idx = len(actions) - 1
    return len(pure) == 1 and pure[0].indices == (idx, idx)


def assert_principal_values_match_dense(game, equilibria):
    """``principal_value`` on the supports equals the dense-vector oracle:
    bit for bit on pure profiles, within rel 1e-15 on mixed ones."""
    for e in equilibria:
        got, want = principal_value(game, e), dense_principal_value(game, e)
        if e.is_pure:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), e
        else:
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), e


class TestInduceGame:
    def test_independent_payoffs(self):
        g = induce_game(Contract(0.5, 0.5, 0.0, 0.0), WORK_SHIRK)
        u = dense_payoff(g)
        assert np.allclose(u[0], 0.25)
        assert np.allclose(u[1], 0.225)

    def test_joint_bonus_payoffs(self):
        g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), WORK_SHIRK)
        u = dense_payoff(g)
        assert u[0, 0] == pytest.approx(0.25)
        assert u[0, 1] == pytest.approx(-0.025)
        assert u[1, 1] == pytest.approx(0.10125)
        assert u[1, 0] == pytest.approx(0.225)

    def test_zero_contract_pays_costs(self):
        g = induce_game(Contract(0.0, 0.0, 0.0, 0.0), WORK_SHIRK)
        assert np.allclose(dense_payoff(g), -np.array([[0.25, 0.25], [0.0, 0.0]]))

    def test_columns_match_matrix(self):
        """Rows and columns have the matrix's bits, signed zeros included."""
        rng = np.random.default_rng(0)
        signed_zero, negative_zeros = (0.0, -0.0), 0
        for trial in range(40):
            n = int(rng.integers(1, 9))
            if trial % 2:  # -0.0 wages and probabilities make cells of -0.0
                w = Contract(*rng.choice(signed_zero, 4))
                pairs = zip(rng.choice((0.0, 0.25), n), rng.choice((*signed_zero, 0.5), n))
            else:
                w = Contract(*rng.uniform(0, 1, 4))
                pairs = zip(rng.uniform(0, 0.5, n), rng.uniform(0, 1, n))
            g = induce_game(w, ActionSet.from_pairs(pairs))
            u = dense_payoff(g)
            negative_zeros += np.count_nonzero((u == 0.0) & np.signbit(u))
            for k in range(n):
                assert g.payoff_column(k).tobytes() == u[:, k].tobytes()
                assert g.payoff_row(k).tobytes() == u[k].tobytes()
        assert negative_zeros > 0


def dense_modularity(game, tol=1e-12):
    """check_modularity's former loop over all ordered action pairs, kept as
    the oracle for the closed form."""
    asc = list(reversed(game.actions.ranking()))
    v = dense_payoff(game)[np.ix_(asc, asc)]
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
    kept as the oracle for its best-response sets."""
    u = dense_payoff(game)
    colmax = u.max(axis=0)
    n = len(game)
    out = []
    for i in range(n):
        for j in range(n):
            if u[i, j] >= colmax[j] - tol and u[j, i] >= colmax[i] - tol:
                out.append(Profile.pure(i, j))
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
        assert verify_profile(g, Profile.pure(a, b))
        assert verify_profile(g, Profile.pure(b, a))


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
        """Pure and mixed lists equal the dense oracle's: indices, order and
        weight bits."""
        rng = np.random.default_rng(67)
        counts, mixed_found = set(), 0
        for t in range(2000):
            n = int(rng.integers(1, 9))
            # rounded draws make duplicate actions and exact payoff ties common
            probs = np.round(rng.uniform(0, 1, n), 1 + t % 3)
            costs = np.round(rng.uniform(0, 0.5, n), 1 + t % 3)
            acts = ActionSet.from_pairs(list(zip(costs, probs)))
            w = np.round(rng.uniform(0, 1, 4), 1) * (rng.random(4) < 0.7)
            g = induce_game(Contract(*w), acts)
            got = enumerate_equilibria(g)
            assert got == dense_pure_equilibria(g) == dense_enumerate_equilibria(g)
            counts.add(min(len(got), 3))
            got = enumerate_equilibria(g, mixed=True)
            assert got == dense_enumerate_equilibria(g, mixed=True)
            assert_principal_values_match_dense(g, got)
            mixed_found += sum(not e.is_pure for e in got)
        assert counts == {1, 2, 3}
        assert mixed_found > 400

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(games())
    def test_small_games_match_dense_oracle(self, game):
        # duplicate actions and exact dyadic ties, up to 10 actions
        for mixed in (False, True):
            got = enumerate_equilibria(game, mixed=mixed)
            assert got == dense_enumerate_equilibria(game, mixed)
        for e in got:
            assert verify_profile(game, e) and dense_verify_profile(game, e)
            assert agent_payoffs(game, e) == pytest.approx(dense_agent_payoffs(game, e),
                                                           rel=1e-15, abs=1e-15)
            if e.is_pure:
                assert agent_payoffs(game, e) == dense_agent_payoffs(game, e)
        assert_principal_values_match_dense(game, got)
        for rule in (PRINCIPAL_BEST, PESSIMISTIC_PARETO):
            assert select_and_value(game, got, rule) == dense_select(game, got, rule)

    def test_large_games_hold_no_n_by_n_array(self):
        # free actions below the undercut, which is every action's unique best response
        n = 2000
        free = [(0.0, 0.5 * k / n) for k in range(n - 2)]
        adv = ipe_adversary(0.5, ActionSet.from_pairs([(0.25, 1.0)] + free, known_count=1), 1e-3)
        game = induce_game(Contract(0.5, 0.5, 0.0, 0.0), adv.actions)
        assert len(game) == n
        game.payoff_column(0)  # the cached pay vectors are the game's
        tracemalloc.start()
        try:
            eqs = enumerate_equilibria(game)
            verified = verify_profile(game, Profile.pure(n - 1, n - 1))
            unique = unique_pure_equilibrium(Contract(0.5, 0.5, 0.0, 0.0), adv.actions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.indices for e in eqs] == [(n - 1, n - 1)] and verified and unique
        assert peak < n ** 2 * 8, peak

    def test_pure_profiles_allocate_no_n_vector(self):
        # a pure profile is its index pair: building and valuing one reads
        # no n-length vector, so n^2 pure equilibria cost O(n^2), not O(n^3)
        n = 100_000
        game = induce_game(Contract(0.5, 0.2, 0.0, 0.0), ActionSet([0.1] * n, [0.5] * n))
        game.payoff_column(0)  # the cached pay vectors are the game's
        tracemalloc.start()
        try:
            profile = Profile.pure(n - 1, 0)
            peaks = [tracemalloc.get_traced_memory()[1]]
            for value in (principal_value, agent_payoffs):
                tracemalloc.reset_peak()
                value(game, profile)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 16 * 1024, peaks

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

    def test_ordered_scan_matches_the_pairwise_rule(self):
        """Both rules equal the all-pairs selection they replaced, field for
        field, on joint and random contracts; one set in five repeats some
        of its actions, which ties payoffs exactly."""
        rng = np.random.default_rng(34)
        seen = dict.fromkeys(("mixed", "rules differ", "cheapest dominated", "tied"), 0)
        for t in range(6000):
            contract = draw_jpe(rng) if t % 2 else draw_random_contract(rng)
            acts = draw_superset(rng, draw_action_set(rng))
            if t % 5 == 0:
                acts = acts.extend([acts[int(k)] for k in
                                    rng.integers(len(acts), size=int(rng.integers(1, 4)))])
            g = induce_game(contract, acts)
            eqs = enumerate_equilibria(g, mixed=True)  # at most 11 actions
            best = select_and_value(g, eqs, PRINCIPAL_BEST)
            pess = select_and_value(g, eqs, PESSIMISTIC_PARETO)
            assert best == dense_select(g, eqs, PRINCIPAL_BEST)
            assert pess == dense_select(g, eqs, PESSIMISTIC_PARETO)
            values = [principal_value(g, e) for e in eqs]
            seen["mixed"] += any(not e.is_pure for e in eqs)
            seen["rules differ"] += best.selected != pess.selected
            seen["cheapest dominated"] += pess.principal_total > min(values)
            seen["tied"] += len(set(values)) < len(values)
        assert min(seen.values()) > 100, seen

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
