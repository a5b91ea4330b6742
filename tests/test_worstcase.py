import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import astuple, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teamcontracts import (
    ActionSet,
    ActionSpec,
    AssumptionError,
    Contract,
    ContractPatternError,
    ConvergenceError,
    OdeSolution,
    calibrate_jpe,
    check_known_assumptions,
    euler_adversary,
    euler_error_bound,
    induce_game,
    ipe_adversary,
    ipe_optimal,
    reduce_failure_wages,
    worst_case,
    worst_case_value,
)
from teamcontracts import selftest
from teamcontracts.selftest import (
    ODE_ATOL,
    ODE_MAX_ROUNDS,
    ODE_RTOL,
    draw_jpe,
    draw_known_set,
    draw_random_contract,
    draw_rpe,
    undercut_ode,
)
from teamcontracts.worstcase import (
    JOINT,
    IpeOptimum,
    _endpoint,
    _stable_root,
    _value,
    best_known_solution,
    check_witness,
    marginal_wage,
    pbar_grid,
)

import worst_case_oracle as former
from rk4_oracle import ode_quadrature_p
from test_best_response import COST, PROB, WAGE, dense_path
from test_game import unique_pure_equilibrium
from worst_case_oracle import worst_case_oracle

A0 = ActionSet.from_pairs([(0.25, 1.0)])
TARGET = ActionSpec(0.25, 1.0)


def single(a: ActionSpec) -> ActionSet:
    """The known set of the one target a."""
    return ActionSet([a.cost], [a.prob])


def checked_end(contract, adv):
    """The last probability of the chain ``adv``, once ``check_witness`` has
    found that its last action is the maximal equilibrium under ``contract``."""
    check_witness(contract, adv.actions)
    return adv.actions.probs[-1]


class TestClosedForm:
    def test_budget_exhausts_exactly(self):
        sol = best_known_solution(0.0, 0.5, A0)
        assert sol.p_end == 0.0
        assert sol.t_hat == 0.25

    def test_optimal_wage_endpoint(self):
        sol = best_known_solution(0.0, 2.0 / 3.0, A0)
        assert sol.p_end == pytest.approx(0.5, abs=1e-12)
        assert sol.t_hat == 0.25

    def test_calibrated_endpoint(self):
        sol = best_known_solution(0.32, 0.5, A0)
        assert sol.p_end == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_flat_wage_is_linear_dynamics(self):
        sol = best_known_solution(0.5, 0.5, A0)
        assert sol.p_end == pytest.approx(0.5, abs=1e-15)

    def test_rejects_relative_pattern(self):
        with pytest.raises(ContractPatternError):
            best_known_solution(0.5, 0.3, A0)

    def test_flat_wage_matches_simple_formula_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = rng.uniform(0.01, 1.2)
            a = ActionSpec(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            assert best_known_solution(w, w, single(a)).p_end == max(0.0, a.prob - a.cost / w)


class TestJpeValue:
    def test_optimal_contract_value(self):
        res = worst_case_value(Contract(2.0 / 3.0, 0.0, 0.0, 0.0), A0)
        assert res.pbar == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.total == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_naive_pooling_collapses(self):
        res = worst_case_value(Contract(0.5, 0.0, 0.0, 0.0), A0)
        assert res.pbar == 0.0
        assert res.per_agent == 0.0
        assert res.binding == "SHIRK_EQ"

    def test_high_wage_full_success_branch(self):
        res = worst_case_value(Contract(1.2, 1.1, 0.0, 0.0), A0)
        assert res.per_agent == pytest.approx(-0.2, abs=1e-12)
        assert res.binding == "FULL_SUCCESS"

    def test_full_success_witness(self):
        res = worst_case(Contract(1.2, 1.1, 0.0, 0.0), A0)
        star = res.witness.actions[-1]
        assert (star.cost, star.prob) == (0.0, 1.0)

    def test_shirk_witness_carries_eps(self):
        res = worst_case(Contract(2.0 / 3.0, 0.0, 0.0, 0.0), A0, eps=1e-3)
        assert res.witness.eps == 1e-3
        assert len(res.witness.actions) > 100
        assert res.witness.actions.known == A0

    def test_rejects_wrong_class(self):
        # a relative contract is valued in its own row; a pattern with no
        # closed form is refused
        relative = Contract(0.3, 0.5, 0.0, 0.0)
        assert repr(worst_case_value(relative, A0)) == repr(former.rpe_value(relative, A0))
        with pytest.raises(ContractPatternError):
            worst_case_value(Contract(0.6, 0.2, 0.0, 0.1), A0)

    def test_multiple_targets_take_best(self):
        pairs = [(0.25, 1.0), (0.05, 0.4)]
        res = worst_case_value(Contract(2.0 / 3.0, 0.0, 0.0, 0.0),
                        ActionSet.from_pairs(pairs))
        solo = max(
            best_known_solution(0.0, 2.0 / 3.0, ActionSet.from_pairs([p])).p_end for p in pairs
        )
        assert res.pbar == solo


@pytest.fixture(scope="module")
def w00_quadrature():
    """The RK4 oracle at (w11, w00) = (2/3, 0.1) and (1/2, 1/2) from the
    target (0.25, 1.0), in one batch: a run costs per step, not per instance."""
    return ode_quadrature_w00([2.0 / 3.0, 0.5], [0.1, 0.5], 1.0, 0.25)


class TestJpeValueW00:
    def test_vanishing_joint_failure_pay_recovers_pooled(self):
        res = worst_case_value(Contract(2.0 / 3.0, 0.0, 0.0, 1e-12), A0)
        assert res.pbar == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1A: the w11/w00 shirk branch omits pbar*(1 - pbar), the output of an "
        "agent who succeeds alone and is paid w10 = 0; perfbench/oracle.py's w11/w00 branch "
        "shares the defect"))
    def test_vanishing_joint_failure_pay_recovers_the_pooled_value(self):
        # reads 0.0666667 against 0.3082483 at w00 = 0; item 1A's wage bill
        # gives 0.30824829046315
        pooled = worst_case_value(Contract(0.6, 0.0, 0.0, 0.0), A0).per_agent
        got = worst_case_value(Contract(0.6, 0.0, 0.0, 1e-12), A0).per_agent
        assert got == pytest.approx(pooled, abs=1e-9)

    def test_positive_joint_failure_pay_hurts(self, w00_quadrature):
        res = worst_case_value(Contract(2.0 / 3.0, 0.0, 0.0, 0.1), A0)
        assert res.per_agent < 1.0 / 3.0
        assert res.pbar == pytest.approx(0.45287819509111576, abs=1e-12)
        assert res.pbar == pytest.approx(float(w00_quadrature[0]), abs=1e-5)

    def test_singularity_collapse_goes_negative(self, w00_quadrature):
        res = worst_case_value(Contract(0.5, 0.0, 0.0, 0.5), A0)
        assert res.pbar == 0.0
        assert res.per_agent == pytest.approx(-0.5, abs=1e-15)
        assert res.per_agent < 0.0
        assert float(w00_quadrature[1]) == 0.0

    def test_rejects_wrong_pattern(self):
        with pytest.raises(ContractPatternError):
            worst_case_value(Contract(0.5, 0.1, 0.0, 0.2), A0)

    def test_endpoint_against_80_digit_reference(self):
        # 20 000 seeded single-target draws: three in four with a budget of
        # at most 90 % of the cost of reaching p_sing, so the endpoint is
        # well conditioned; the rest start at or below p_sing or spend the
        # budget, and end at 0.  The stable root is held to a bound no looser
        # than the worst error of the former formula on the same draws, and
        # to within 8 ulps of the vertex-form root it replaced.
        rng = np.random.default_rng(89)
        worst, worst_former, interior = 0.0, 0.0, 0
        for _ in range(20_000):
            w11, w00 = rng.uniform(0.01, 1.5), rng.uniform(0.0, 1.5)
            p0 = rng.uniform(0.0, 1.0)
            p_sing = w00 / (w11 + w00)
            t_sing = (w11 + w00) / 2.0 * max(p0 - p_sing, 0.0) ** 2
            c0 = t_sing * rng.uniform(0.0, 0.9) if rng.uniform() < 0.75 else \
                t_sing * rng.uniform(1.0, 2.0)
            got = worst_case_value(Contract(w11, 0.0, 0.0, w00), ActionSet([c0], [p0])).pbar
            parent = _w00_endpoint_parent(w11, w00, np.array([p0]), np.array([c0]))
            assert abs(got - parent) <= 8 * math.ulp(parent), (got, parent)
            former = _w00_endpoint_former(w11, w00, p0, c0)
            exact = _w00_endpoint_exact(w11, w00, p0, c0)
            if exact == 0:
                assert got == former == parent == 0.0
                continue
            interior += 1
            assert parent > 0.0
            worst = max(worst, float(abs(Decimal(got) - exact) / exact))
            worst_former = max(worst_former, float(abs(Decimal(former) - exact) / exact))
        assert interior > 5_000
        assert worst <= W00_REL_BOUND <= worst_former, (worst, worst_former)

    def test_known_set_takes_the_highest_endpoint(self):
        rng = np.random.default_rng(91)
        for _ in range(300):
            w = Contract(rng.uniform(0.1, 1.2), 0.0, 0.0, rng.uniform(0.0, 1.0))
            known = draw_known_set(rng, 4)
            ends = [worst_case_value(w, ActionSet([a.cost], [a.prob])).pbar for a in known]
            assert worst_case_value(w, known).pbar == max(ends)

    def test_zero_joint_failure_pay_is_the_pooled_endpoint(self):
        # p_sing = 0 and w11 + 0 = w11 are exact, so the shifted kernel call
        # (the oracle's) is the joint row's own, bit for bit
        rng = np.random.default_rng(97)
        for _ in range(500):
            w11 = rng.uniform(0.05, 1.5)
            known = draw_known_set(rng, 4)
            got = former.jpe_value_w00(Contract(w11, 0.0, 0.0, 0.0), known).pbar
            assert got == worst_case_value(Contract(w11, 0.0, 0.0, 0.0), known).pbar
        s = ActionSet.from_pairs([(0.2, 0.9)])
        got = former.jpe_value_w00(Contract(0.6, 0.0, 0.0, 0.0), s).pbar
        assert got == worst_case_value(Contract(0.6, 0.0, 0.0, 0.0), s).pbar == 0.3785938897200183

    def test_targets_at_or_below_the_singularity_end_at_zero(self):
        # p_sing = 1/2: targets at it and below it, free or not, end at 0;
        # above it a free target keeps its probability
        w = Contract(0.5, 0.0, 0.0, 0.5)
        for pairs in ([(0.1, 0.4)], [(0.0, 0.4)], [(0.0, 0.5)], [(0.1, 0.5), (0.0, 0.2)]):
            assert worst_case_value(w, ActionSet.from_pairs(pairs)).pbar == 0.0
        res = worst_case_value(w, ActionSet.from_pairs([(0.0, 0.4), (0.0, 0.9)]))
        assert res.pbar == pytest.approx(0.9, abs=1e-15)
        res = worst_case_value(w, ActionSet.from_pairs([(0.0, 0.4), (0.02, 0.9)]))
        assert res.pbar == _w00_endpoint_parent(0.5, 0.5, np.array([0.4, 0.9]),
                                                np.array([0.0, 0.02]))

    def test_overflowing_wage_sum_raises(self):
        # w11 + w00 overflows even where every target has p = 0
        for pairs in ([(0.2, 0.9)], [(0.1, 0.0)]):
            with pytest.raises(OverflowError):
                worst_case_value(Contract(1e308, 0.0, 0.0, 1e308), ActionSet.from_pairs(pairs))


class TestMarginalWage:
    """``marginal_wage`` and the one sign-pattern dispatch of
    ``worst_case_value`` against the per-pattern readers of raw wages they
    replaced (``worst_case_oracle``), bit for bit."""

    @staticmethod
    def outcome(fn, *args):
        """``fn(*args)`` as text, a result (with no witness) by its repr, so
        every float is compared bit for bit, or the refusal's message."""
        try:
            res = fn(*args)
        except ContractPatternError as exc:
            return f"refused: {exc}"
        return repr(replace(res, witness=None))

    @staticmethod
    def former_value(contract, a0_set):
        """The value of the former reader of the contract's pattern, with no
        witness check."""
        w11, w10, _, w00 = contract.as_tuple()
        if w00 != 0.0:
            return former.jpe_value_w00(contract, a0_set)
        if w11 == w10:
            return former._ipe(w11, a0_set, 1.0)
        if w11 < w10:
            return former.rpe_value(contract, a0_set)
        former.require_pattern(contract, jpe=True)
        return former._jpe(contract, a0_set, 1.0)

    @staticmethod
    def draws(rng):
        """A contract of every sign pattern and endpoint kind, each with a
        target (p0, c0) whose cost spends part of the budget that reaches
        zero (or p_sing), or more than all of it."""
        w10, gap, p0 = rng.uniform(0.05, 0.6), rng.uniform(0.01, 0.8), rng.uniform(0.3, 1.0)
        w11, w00, pooled = rng.uniform(0.05, 1.2), rng.uniform(0.01, 1.0), rng.uniform(0.3, 1.2)
        p_sing = w00 / (w11 + w00)
        q0 = rng.uniform(p_sing, 1.0)
        t_sing = (w11 + w00) / 2.0 * (q0 - p_sing) ** 2
        inside, spent = rng.uniform(0.05, 0.9), rng.uniform(1.0, 2.0)
        joint, t_joint = Contract(w10 + gap, w10, 0.0, 0.0), w10 * p0 + gap * p0 * p0 / 2.0
        w00_pattern = Contract(w11, 0.0, 0.0, w00)
        return {
            "pooled": (Contract(pooled, 0.0, 0.0, 0.0), p0, pooled * p0 * p0 / 2.0 * inside),
            "interior": (joint, p0, t_joint * inside),
            "collapse": (joint, p0, t_joint * spent),
            "independent": (Contract(w10, w10, 0.0, 0.0), p0, w10 * p0 * inside),
            "relative": (Contract(w10, w10 + gap, 0.0, 0.0), p0, (w10 + gap) * p0 * inside),
            "w11/w00 above p_sing": (w00_pattern, q0, t_sing * inside),
            "w11/w00 reaching p_sing": (w00_pattern, q0, t_sing * spent),
            "w11/w00 below p_sing": (w00_pattern, rng.uniform(0.0, p_sing), inside),
        }

    def test_entry_points_match_the_former_readers(self):
        rng = np.random.default_rng(151)
        ends = Counter()
        for _ in range(150):
            extra = draw_known_set(rng, 3)
            for name, (contract, p0, c0) in self.draws(rng).items():
                w11, w10, w01, w00 = contract.as_tuple()
                assert marginal_wage(contract) == (w10 - w00, w11 - w01)
                alone = ActionSet([c0], [p0])
                for known in (alone, ActionSet([c0, *extra.costs], [p0, *extra.probs])):
                    assert self.outcome(worst_case_value, contract, known) == \
                        self.outcome(self.former_value, contract, known), name
                    TestWorstCase.same(contract, known, 1.0)
                ends[name, worst_case(contract, alone).pbar > 0.0] += 1
        assert ends.keys() == {*((k, True) for k in ("pooled", "interior", "independent",
                                                       "relative", "w11/w00 above p_sing")),
                               *((k, False) for k in ("collapse", "w11/w00 reaching p_sing",
                                                      "w11/w00 below p_sing"))}

    CONTRACTS = [
        # reduced, with no closed form
        Contract(0.0, 0.4, 0.3, 0.0), Contract(0.0, 0.0, 0.3, 0.2), Contract(0.0, 0.0, 0.0, 0.2),
        Contract(0.0, 0.0, 0.3, 0.0),
        # unreduced: joint, independent, relative, w11/w00 and pooled once reduced
        Contract(0.6, 0.2, 0.1, 0.1), Contract(0.5, 0.5, 0.1, 0.1),
        Contract(0.15, 0.55, 0.05, 0.05), Contract(0.6, 0.1, 0.0, 0.3),
        Contract(0.6, 0.0, 0.2, 0.0),
        # supported, refused by a chain's reader unless joint: joint, pooled,
        # independent, relative, w11/w00 and the zero contract
        Contract(0.6, 0.2, 0.0, 0.0), Contract(0.6, 0.0, 0.0, 0.0), Contract(0.5, 0.5, 0.0, 0.0),
        Contract(0.2, 0.6, 0.0, 0.0), Contract(0.6, 0.0, 0.0, 0.1), Contract(0.0, 0.0, 0.0, 0.0),
    ]
    UNSUPPORTED = 9  # the first nine contracts: every reader refuses them

    def test_every_reader_refuses_as_before(self):
        def chain_end(c):  # the endpoint a chain's caller reads off the contract
            return best_known_solution(*marginal_wage(c, JOINT), A0)

        readers = {  # the entry point, and its former check of the same contract
            "worst_case": (lambda c: worst_case(c, A0), lambda c: worst_case_oracle(c, A0, 1.0)),
            "worst_case_value": (lambda c: worst_case_value(c, A0),
                                 lambda c: worst_case_oracle(c, A0, 1.0)),
            "euler_adversary": (lambda c: euler_adversary(chain_end(c), 2),
                                lambda c: former.require_pattern(c, True)),
            "euler_error_bound": (lambda c: euler_error_bound(chain_end(c), 2),
                                  lambda c: former.require_pattern(c, True)),
        }
        refusals = Counter()
        for k, contract in enumerate(self.CONTRACTS):
            for name, (new, old) in readers.items():
                try:
                    old(contract)
                except ContractPatternError as exc:
                    with pytest.raises(ContractPatternError) as got:
                        new(contract)
                    assert str(got.value) == str(exc), (name, contract)
                    refusals[k] += 1
                    continue
                new(contract)
        assert all(refusals[k] == len(readers) for k in range(self.UNSUPPORTED))
        # and 8 refusals of a supported pattern by a chain's reader, which
        # needs a joint evaluation
        assert sum(refusals.values()) == self.UNSUPPORTED * len(readers) + 8


# Bound on the relative error of the W00 endpoint.  On the seeded draws of
# the test the shifted kernel's worst is 9.5e-16 (the vertex-form root it
# replaced: 1.1e-15) and the former formula's 2.4e-12.
W00_REL_BOUND = 4e-15


def _w00_endpoint_former(w11, w00, p0, c0):
    """jpe_value_w00's endpoint for one target as first written, with its own
    quadratic root: the reference for the stable root's accuracy."""
    p_sing = w00 / (w11 + w00)

    def g2(p):
        return (w11 + w00) * p * p / 2.0 - w00 * p

    if p0 <= p_sing or c0 >= g2(p0) - g2(p_sing):
        return 0.0
    disc = w00 * w00 + 2.0 * (w11 + w00) * (g2(p0) - c0)
    return (w00 + math.sqrt(max(disc, 0.0))) / (w11 + w00)


def _w00_endpoint_parent(w11, w00, probs, costs):
    """jpe_value_w00's endpoint in vertex form, with its own mask and root,
    before it became the pooled kernel in shifted coordinates: the oracle
    for the shifted call.  a*(p - p_sing)^2, a = (w11 + w00)/2, falls by
    the cost; p_sing is reached at cost a*(p0 - p_sing)^2, else the end is
    p_sing + sqrt(r/a)."""
    p_sing = w00 / (w11 + w00)
    a = (w11 + w00) / 2.0
    with np.errstate(all="ignore"):
        r = a * (probs - p_sing) ** 2 - costs
        keep = (probs > p_sing) & (r > 0.0)
        roots = _stable_root(a, 0.0, r[keep])
    return float(p_sing + roots.max()) if roots.size else 0.0


def _w00_endpoint_exact(w11, w00, p0, c0):
    """The W00 endpoint in 80-digit decimal arithmetic, from the binary
    inputs: p_sing + sqrt(r/a), r = a*(p0 - p_sing)^2 - c0, a = (w11+w00)/2,
    or 0 where p0 <= p_sing or r <= 0."""
    with localcontext() as ctx:
        ctx.prec = 80
        w11, w00, p0, c0 = map(Decimal, (w11, w00, p0, c0))
        p_sing, a = w00 / (w11 + w00), (w11 + w00) / 2
        r = a * (p0 - p_sing) ** 2 - c0
        if p0 <= p_sing or r <= 0:
            return Decimal(0)
        return p_sing + (r / a).sqrt()


class TestIpeOptimal:
    def test_running_example(self):
        res = ipe_optimal(A0)
        assert res.w_star == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(0.25, abs=1e-12)
        assert res.total == pytest.approx(0.5, abs=1e-12)

    def test_partial_productivity(self):
        res = ipe_optimal(ActionSet.from_pairs([(0.2, 0.8)]))
        assert res.w_star == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(0.2, abs=1e-12)

    def test_picks_best_target(self):
        res = ipe_optimal(ActionSet.from_pairs([(0.25, 1.0), (0.05, 0.4)]))
        assert res.a0_star == ActionSpec(0.25, 1.0)

    def test_assumption_violation(self):
        with pytest.raises(AssumptionError):
            ipe_optimal(ActionSet.from_pairs([(0.5, 0.5)]))

    def test_matches_the_loop(self):
        rng = np.random.default_rng(103)
        for _ in range(3000):
            n = int(rng.integers(1, 9))
            probs = rng.choice((0.3, 0.5, 1.0, *rng.uniform(0.0, 1.0, 4)), n)
            costs = rng.choice((0.25, 0.3, *(probs[:2] * rng.uniform(0.0, 1.5, 2)),
                                *rng.uniform(1e-3, 1.0, 2)), n)
            known = ActionSet(costs, probs, int(rng.integers(1, n + 1)))
            try:
                check_known_assumptions(known)
            except AssumptionError:
                continue
            got, want = ipe_optimal(known), _ipe_optimal_loop(known)
            assert repr(astuple(got)) == repr(astuple(want))

    def test_interior_wage_beats_neighbors(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.uniform(0.2, 1.0)
            c = p * rng.uniform(0.05, 0.9)
            res = ipe_optimal(ActionSet.from_pairs([(c, p)]))

            def value(w):
                return (p - c / w) * (1.0 - w)

            assert res.per_agent >= value(res.w_star * 1.01) - 1e-12
            assert res.per_agent >= value(res.w_star * 0.99) - 1e-12
            assert res.per_agent == pytest.approx(value(res.w_star), abs=1e-12)


def _ipe_optimal_loop(a0_set):
    """ipe_optimal as written over the tuple of ``ActionSpec``s: the bitwise
    oracle of its array form."""
    best_val = -math.inf
    best_w = 1.0
    best_a = a0_set.known[0]
    for a in a0_set.known:
        p, c = a.prob, a.cost
        if c < p:
            w = math.sqrt(c / p)
            val = (math.sqrt(p) - math.sqrt(c)) ** 2
        else:
            w = 1.0
            val = 0.0
        if val > best_val:
            best_val, best_w, best_a = val, w, a
    return IpeOptimum(best_w, best_a, best_val, 2.0 * best_val)


def _rpe_bisection_reference(w11, w10, known, tol=1e-10):
    """rpe_value's former bisection on its fixed-point map, kept as the
    reference for the closed form; returns the fixed point and the map."""
    def t0(p):
        denom = p * w11 + (1.0 - p) * w10
        best = 0.0  # the free null action
        for a in known:
            if denom > 0.0:
                term = a.prob - a.cost / denom
            else:
                term = a.prob if a.cost == 0.0 else -math.inf
            best = max(best, term)
        return min(best, 1.0)

    lo, hi = 0.0, 1.0
    if t0(0.0) <= 0.0:
        return 0.0, t0
    if t0(1.0) >= 1.0:
        return 1.0, t0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t0(mid) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * 0.5:
            break
    return 0.5 * (lo + hi), t0


class TestRpeValue:
    def test_pure_relative_fixed_point(self):
        res = worst_case_value(Contract(0.0, 0.5, 0.0, 0.0), A0)
        assert res.pbar == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-9)
        assert res.per_agent == pytest.approx(0.18933982822729536, abs=1e-9)

    def test_never_beats_independent(self):
        res = worst_case_value(Contract(0.4, 0.5, 0.0, 0.0), A0)
        assert res.per_agent <= 0.25 + 1e-9

    def test_zero_surplus_known_actions(self):
        res = worst_case_value(Contract(0.1, 0.6, 0.0, 0.0),
                        ActionSet.from_pairs([(0.7, 0.7)]))
        assert res.pbar == 0.0
        assert res.per_agent == 0.0

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            w10 = rng.uniform(0.05, 1.0)
            w11 = rng.uniform(0.0, w10 * 0.95)
            a0 = draw_known_set(rng)
            res = worst_case_value(Contract(w11, w10, 0.0, 0.0), a0)
            p = res.pbar
            denom = p * w11 + (1 - p) * w10
            best = max(
                [0.0]
                + [a.prob - a.cost / denom for a in a0.known if denom > 0]
            )
            assert min(best, 1.0) == pytest.approx(p, abs=1e-8)

    def test_closed_form_matches_bisection(self):
        rng = np.random.default_rng(19)
        for t in range(2000):
            w10 = rng.uniform(0.01, 1.5)
            w11 = 0.0 if t % 5 == 0 else rng.uniform(0.0, w10)
            known = draw_known_set(rng)
            got = worst_case_value(Contract(w11, w10, 0.0, 0.0), known).pbar
            want, fixed_point_map = _rpe_bisection_reference(w11, w10, known.known)
            assert abs(got - want) <= 1e-10
            assert abs(fixed_point_map(got) - got) <= 1e-14

    def test_sure_free_action_and_extreme_wages(self):
        sure = ActionSet.from_pairs([(0.0, 1.0), (0.25, 1.0)])
        assert worst_case_value(Contract(0.3, 0.6, 0.0, 0.0), sure).pbar == 1.0
        # dividing through by w10 keeps the squares in range at any scale
        for scale in (1e-300, 1e-150, 1e150, 1e300):
            w = Contract(0.0, 0.5 * scale, 0.0, 0.0)
            a0 = ActionSet.from_pairs([(0.25 * scale, 1.0)])
            assert worst_case_value(w, a0).pbar == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-15)


class TestEulerAdversary:
    def test_two_step_chain_at_binding_limits(self):
        adv = euler_adversary(best_known_solution(0.0, 0.5, A0), 2, rho=1e-9)
        probs = adv.actions.probs
        assert probs[0] == 1.0
        assert probs[1] == pytest.approx(0.75, abs=1e-6)
        assert probs[2] == pytest.approx(5.0 / 12.0, abs=1e-6)
        assert adv.actions.costs.tolist() == [0.25, 0.125, 0.0]
        check_witness(Contract(0.5, 0.0, 0.0, 0.0), adv.actions)

    def test_single_undercut(self):
        w = calibrate_jpe(0.5, ActionSpec(0.2, 0.8), 0.1)
        adv = euler_adversary(best_known_solution(w.w10, w.w11, ActionSet([0.2], [0.8])), 1)
        denom = 0.8 * w.w11 + 0.2 * w.w10
        assert adv.actions.probs[1] == pytest.approx(0.8 - 0.2 / denom + adv.rho, abs=1e-15)
        check_witness(w, adv.actions)

    def test_long_chain_approaches_collapsed_floor(self):
        # At the collapse point the error bound degenerates, and the chain
        # endpoint decays like n**-0.5; convergence is checked empirically.
        w = Contract(0.5, 0.0, 0.0, 0.0)
        ends = {
            n: checked_end(w, euler_adversary(best_known_solution(w.w10, w.w11, A0), n))
            for n in (625, 2500, 10_000)
        }
        assert ends[2500] < ends[625]
        assert ends[10_000] < ends[2500]
        assert ends[10_000] / ends[2500] == pytest.approx(0.5, rel=0.3)
        assert ends[10_000] <= 0.02

    def test_clamping_flagged(self):
        adv = euler_adversary(best_known_solution(0.0, 0.5, A0), 1, rho=2.0)
        assert adv.clamped
        assert adv.actions.probs[1] == 1.0

    def test_chain_costs_are_the_python_expression(self):
        # bit for bit (n - k)*t_hat/n, up to the 10^5-step cap
        rng = np.random.default_rng(107)
        for n in (1, 2, 3, 10, 997, 20_000, 99_991, 100_000):
            w10 = rng.uniform(0.0, 0.6)
            w = Contract(rng.uniform(w10 + 0.02, 1.2), w10, 0.0, 0.0)
            target = ActionSpec(rng.uniform(0.01, 0.5), rng.uniform(0.5, 1.0))
            adv = euler_adversary(best_known_solution(w.w10, w.w11, single(target)), n)
            t_hat = adv.t_hat
            assert t_hat > 0.0
            want = [target.cost] + [(n - k) * t_hat / n for k in range(1, n + 1)]
            assert adv.actions.costs.tobytes() == np.array(want).tobytes()

    def test_default_rho_schedule(self):
        adv = euler_adversary(best_known_solution(0.0, 0.5, A0), 4)
        assert adv.step == pytest.approx(0.25 / 4)
        assert adv.rho == pytest.approx(0.25 / (16 * 1.5))

    @pytest.mark.parametrize("s0, s1", [(0.5, 0.5), (0.6, 0.2), (-0.1, 0.6), (math.nan, 0.5)])
    def test_refuses_an_endpoint_that_is_not_joint(self, s0, s1):
        best = OdeSolution(TARGET, s0, s1, 0.25, 0.5, 0.5)
        want = f"^joint evaluation requires w11 > w10, got \\({s1}, {s0}\\)$"
        with pytest.raises(ContractPatternError, match=want):
            euler_adversary(best, 2)
        with pytest.raises(ContractPatternError, match=want):
            euler_error_bound(best, 2)

    def test_chain_set_shape(self):
        adv = euler_adversary(best_known_solution(0.0, 2.0 / 3.0, A0), 5)
        assert len(adv.actions) == 6
        assert adv.actions.known_count == 1
        assert adv.actions[0] == TARGET


class TestEulerErrorBound:
    def test_finite_and_decreasing(self):
        best = best_known_solution(0.0, 2.0 / 3.0, A0)
        b100 = euler_error_bound(best, 100)
        b200 = euler_error_bound(best, 200)
        assert math.isfinite(b100) and b100 > 0
        assert b200 < b100

    def test_step_term_halves(self):
        best = best_known_solution(0.0, 2.0 / 3.0, A0)
        d_min = 0.5 * (2.0 / 3.0)
        k1 = (2.0 / 3.0) / d_min**2
        lead = math.expm1(0.25 * k1) / k1
        t1 = euler_error_bound(best, 100) - lead / (100 * (2.0 / 3.0 + 1.0))
        t2 = euler_error_bound(best, 200) - lead / (200 * (2.0 / 3.0 + 1.0))
        assert t1 == pytest.approx(2.0 * t2, rel=1e-12)

    def test_degenerate_is_unbounded(self):
        assert euler_error_bound(best_known_solution(0.0, 0.5, A0), 100) == math.inf

    def test_empirical_convergence_when_unbounded(self):
        best = best_known_solution(0.0, 0.5, A0)
        w = Contract(0.5, 0.0, 0.0, 0.0)
        coarse = checked_end(w, euler_adversary(best, 500))
        fine = checked_end(w, euler_adversary(best, 2000))
        assert fine < coarse


class TestIpeAdversary:
    def test_single_free_undercut(self):
        adv = ipe_adversary(0.5, A0, 0.01)
        star = adv.actions[-1]
        assert star == ActionSpec(0.0, 0.51)
        assert unique_pure_equilibrium(Contract(0.5, 0.5, 0.0, 0.0), adv.actions)
        assert not adv.clamped

    def test_value_approaches_optimum(self):
        adv = ipe_adversary(0.5, A0, 1e-6)
        p = adv.actions[-1].prob
        total = 2 * p * 0.5
        assert total == pytest.approx(0.5, abs=1e-5)

    def test_clamping_reported(self):
        adv = ipe_adversary(0.5, A0, 0.7)
        assert adv.clamped
        assert adv.actions[-1].prob == 1.0


class TestIpeValue:
    def test_given_wage_worst_case(self):
        res = worst_case_value(Contract(0.5, 0.5, 0.0, 0.0), A0)
        assert res.pbar == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(0.25, abs=1e-12)

    def test_excessive_wage_uses_full_branch(self):
        res = worst_case_value(Contract(1.25, 1.25, 0.0, 0.0), A0)
        assert res.per_agent == pytest.approx(-0.25, abs=1e-12)
        assert res.binding == "FULL_SUCCESS"

    def test_zero_wage_contract(self):
        res = worst_case_value(Contract(0.0, 0.0, 0.0, 0.0), A0)
        assert res.per_agent == 0.0

    def test_witness_builds_no_dense_game(self):
        rng = np.random.default_rng(3000)
        known = ActionSet.from_pairs(zip(rng.uniform(0.01, 0.5, 3000), rng.uniform(0.5, 1, 3000)))
        tracemalloc.start()
        try:
            res = worst_case(Contract(0.6, 0.6, 0.0, 0.0), known)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.witness.actions) == 3001
        assert res.witness.actions[:3000] == known
        assert peak < 3001 ** 2 * 8 / 8, peak  # an eighth of one dense payoff matrix


@st.composite
def worst_case_inputs(draw):
    """A contract on a sign-table boundary or drawn freely, 1-3 known
    actions with repeats, and a coarse eps."""
    w10 = draw(WAGE)
    w11 = draw(st.sampled_from([w10, math.nextafter(w10, math.inf),
                                math.nextafter(w10, 0.0), 0.0]) | WAGE)
    contract = draw(st.sampled_from([Contract(w11, w10, 0.0, 0.0), Contract(w11, 0.0, 0.0, w10),
                                     Contract(w11, 0.0, 0.0, 0.0)]))
    base = draw(st.lists(st.tuples(COST, PROB), min_size=1, max_size=3))
    repeats = draw(st.lists(st.sampled_from(base), max_size=2))
    eps = draw(st.sampled_from([1e-2, 5e-3]))
    return contract, ActionSet.from_pairs(base + repeats), eps


class TestWorstCase:
    """``worst_case`` against the dispatch and witnesses it replaced
    (``worst_case_oracle``), field for field and bit for bit."""

    @staticmethod
    def same(contract, a0_set, eps):
        """worst_case's result, checked against the oracle's; None where both
        refuse the pattern, or the witness, with the same message."""
        try:
            want = worst_case_oracle(contract, a0_set, eps)
        except (ContractPatternError, ConvergenceError) as exc:
            with pytest.raises(type(exc)) as got:
                worst_case(contract, a0_set, eps)
            assert str(got.value) == str(exc)
            return None
        got = worst_case(contract, a0_set, eps)
        assert (got.pbar, got.per_agent, got.total, got.binding) == \
            (want.pbar, want.per_agent, want.total, want.binding)
        assert (got.witness is None) == (want.witness is None)
        if want.witness is not None:
            g, w = got.witness.actions, want.witness.actions
            assert np.array_equal(g.costs, w.costs) and np.array_equal(g.probs, w.probs)
            assert g.known_count == w.known_count and got.witness.eps == want.witness.eps
        return got

    def test_matches_the_oracle_on_every_pattern(self):
        rng = np.random.default_rng(131)
        seen = Counter()
        for _ in range(200):
            known = draw_known_set(rng, 3)
            eps = float(rng.choice([1e-2, 2e-3]))
            w10 = rng.uniform(1.0, 1.5)
            w = rng.uniform(0.05, 1.0)
            for name, contract in {
                "JPE": draw_jpe(rng),
                "JPE above 1": Contract(w10 + rng.uniform(0.01, 0.5), w10, 0.0, 0.0),
                "RPE": draw_rpe(rng),
                "IPE": Contract(w, w, 0.0, 0.0),
                "IPE above 1": Contract(1.0 + w, 1.0 + w, 0.0, 0.0),
                "W00": Contract(rng.uniform(0.05, 1.2), 0.0, 0.0, rng.uniform(0.01, 1.0)),
                "any": reduce_failure_wages(draw_random_contract(rng)),
            }.items():
                res = self.same(contract, known, eps)
                seen[name, None if res is None else (res.binding, res.witness is None)] += 1
        full, shirk = ("FULL_SUCCESS", False), ("SHIRK_EQ", False)
        assert seen["JPE", shirk] > 100 and seen["JPE above 1", full] == 200
        assert seen["RPE", shirk] == seen["IPE", shirk] == seen["IPE above 1", full] == 200
        assert seen["W00", ("SHIRK_EQ", True)] > 150
        assert seen["any", None] > 50

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(worst_case_inputs())
    def test_matches_the_oracle_on_boundaries(self, inputs):
        contract, a0_set, eps = inputs
        self.same(*inputs)
        # the value-only path agrees with the witness path, refusals too
        try:
            res = worst_case(contract, a0_set, eps)
        except ConvergenceError:
            return
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                worst_case_value(contract, a0_set)
            assert str(got.value) == str(exc)
            return
        assert repr(replace(res, witness=None)) == repr(worst_case_value(contract, a0_set))

    @pytest.mark.parametrize("contract, a0_set", [
        (Contract(0.6, 0.0, 0.0, 0.1), A0),  # w11/w00
        # the free target ends highest, so no budget is left to undercut with
        (Contract(0.6, 0.0, 0.0, 0.0), ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.5)])),
        (Contract(0.0, 0.0, 0.0, 0.0), A0),  # zero independent wage
    ], ids=["w00", "spent budget", "zero wage"])
    def test_no_witness(self, contract, a0_set):
        res = self.same(contract, a0_set, 1e-3)
        assert res.binding == "SHIRK_EQ" and res.witness is None

    def test_refuses_the_witness_whose_maximal_equilibrium_is_a_known_action(self):
        known = ActionSet.from_pairs([(0.3, 0.94), (0.12, 0.64)])
        contract = Contract(0.7, 0.05, 0.0, 0.0)
        unchecked = former._jpe(contract, known, 1e-3).witness.actions
        assert len(unchecked) == 122
        assert dense_path(induce_game(contract, unchecked), "MAX")[0] == 0
        with pytest.raises(ConvergenceError, match="at action 0, not at the last action 121$"):
            worst_case(contract, known, 1e-3)

    def test_joint_witnesses_end_at_their_maximal_equilibrium(self):
        # the witness sets worst_case returns, known actions and chain
        # together: each ends at its dense maximal equilibrium, or is refused
        # where the dense path stops earlier
        rng = np.random.default_rng(12)
        chains = Counter()  # by whether worst_case refused the witness
        for _ in range(1000):
            w, known, eps = draw_jpe(rng), draw_known_set(rng), float(10 ** rng.uniform(-3, -2))
            try:
                res, refused = worst_case(w, known, eps), False
            except ConvergenceError:
                res, refused = former._jpe(w, known, eps), True
            if res.binding == "SHIRK_EQ" and res.witness is not None:
                actions = res.witness.actions
                ends = dense_path(induce_game(w, actions), "MAX")[0] == len(actions) - 1
                assert ends != refused
                chains[refused] += 1
            else:
                assert not refused
        assert chains[True] > 0 and chains[False] > 700, chains

    @pytest.mark.parametrize("contract, endpoints, chains", [
        (Contract(0.6, 0.0, 0.0, 0.0), 1, 1),  # the value's, which the chain extends
        (Contract(1.2, 1.1, 0.0, 0.0), 1, 0),  # FULL_SUCCESS binds: no chain is built
    ])
    def test_no_repeated_work(self, monkeypatch, contract, endpoints, chains):
        calls = Counter()
        for name, fn in (("_endpoint", _endpoint), ("euler_adversary", euler_adversary)):
            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(f"teamcontracts.worstcase.{name}", counted)
        worst_case(contract, A0, eps=1e-2)
        assert (calls["_endpoint"], calls["euler_adversary"]) == (endpoints, chains)


    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.inf, math.nan])
    @pytest.mark.parametrize("contract", [
        Contract(0.6, 0.0, 0.0, 0.0), Contract(0.5, 0.5, 0.0, 0.0), Contract(0.2, 0.6, 0.0, 0.0),
    ], ids=["joint", "independent", "relative"])
    def test_refuses_eps_not_finite_and_positive(self, contract, eps):
        with pytest.raises(ValueError, match="^eps must be finite and positive, got "):
            worst_case(contract, A0, eps)


@pytest.mark.parametrize("call", [
    lambda: best_known_solution(math.nan, 0.5, A0),
    lambda: best_known_solution(0.0, math.nan, A0),
    lambda: _value(math.nan, math.nan, A0),
    lambda: ipe_adversary(math.nan, A0, 1e-3),
    lambda: ipe_adversary(0.5, A0, math.nan),
], ids=["best-s0", "best-s1", "value-s", "ipe_adversary-w", "ipe_adversary-eps"])
def test_scalar_entry_points_refuse_nan(call):
    with pytest.raises(ValueError):
        call()


class TestLowerBoundAndQuadrature:
    def test_floor_holds_on_random_supersets(self):
        from teamcontracts.game import extremal_br_path, induce_game
        from teamcontracts.selftest import draw_superset

        rng = np.random.default_rng(29)
        for _ in range(60):
            w = draw_jpe(rng)
            a0 = draw_known_set(rng)
            pbar = max(best_known_solution(w.w10, w.w11, single(a)).p_end for a in a0.known)
            acts = draw_superset(rng, a0)
            g = induce_game(w, acts)
            hi, _ = extremal_br_path(g, "MAX")
            assert acts.actions[hi].prob >= pbar - 1e-6

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(31)
        n = 60
        w10 = rng.uniform(0.0, 0.7, n)
        gap = rng.uniform(0.05, 1.0, n)
        p0 = rng.uniform(0.3, 1.0, n)
        t_zero = w10 * p0 + gap * p0 * p0 / 2
        c0 = t_zero * rng.uniform(0.1, 0.85, n)
        p_num, d_min = ode_quadrature_p(w10 + gap, w10, p0, c0, steps=100_000)
        checked = 0
        for k in range(n):
            if d_min[k] < 0.02:
                continue
            closed = best_known_solution(w10[k], w10[k] + gap[k],
                                         ActionSet([c0[k]], [p0[k]])).p_end
            assert abs(closed - p_num[k]) <= 1e-6
            checked += 1
        assert checked >= 40


class TestCalibrationLimits:
    def test_running_example_limits(self):
        def pbar_eps(eps):
            cal = calibrate_jpe(0.5, TARGET, eps)
            return best_known_solution(cal.w10, cal.w11, A0).p_end

        assert pbar_eps(1e-4) == pytest.approx(0.5, abs=1e-3)
        slope = (pbar_eps(1e-3) - pbar_eps(1e-4)) / (1e-3 - 1e-4)
        assert slope == pytest.approx(-0.25, abs=1e-2)

    def test_analytic_form_of_calibrated_endpoint(self):
        # For the calibrated scheme the endpoint collapses to
        # p0 * [w*(sqrt(1-2e)-1) + e] / e; spot-check against the solver.
        rng = np.random.default_rng(37)
        for _ in range(50):
            p0 = rng.uniform(0.3, 1.0)
            c0 = p0 * rng.uniform(0.05, 0.8)
            w_star = math.sqrt(c0 / p0)
            eps = rng.uniform(1e-4, min(0.3, w_star * 0.9))
            cal = calibrate_jpe(w_star, ActionSpec(c0, p0), eps)
            got = best_known_solution(cal.w10, cal.w11, ActionSet([c0], [p0])).p_end
            # valid while the endpoint stays interior; the solver clamps at 0
            ref = p0 * (w_star * (math.sqrt(1 - 2 * eps) - 1) + eps) / eps
            assert got == pytest.approx(max(0.0, ref), abs=1e-10)

    def test_profit_right_derivative(self):
        a0_set = A0
        base = ipe_optimal(a0_set).per_agent

        def profit(eps):
            cal = calibrate_jpe(0.5, TARGET, eps)
            return worst_case_value(cal, a0_set).per_agent

        deriv = (profit(1e-4) - base) / 1e-4
        assert deriv == pytest.approx(0.125, abs=1e-2)


def _rk4_reference(w11, w10, p0, budget, steps):
    """ode_quadrature_p's loop as first written, kept as the bitwise reference."""
    w11 = np.atleast_1d(np.asarray(w11, dtype=float))
    w10, p0, budget = (np.broadcast_to(np.asarray(a, dtype=float), w11.shape).copy()
                       for a in (w10, p0, budget))
    gap = w11 - w10
    p = p0.copy()
    h = budget / steps
    d_min = w10 + gap * p

    def f(x):
        return -1.0 / np.clip(w10 + gap * x, 1e-300, None)

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d_min = np.minimum(d_min, w10 + gap * p)
    return p, d_min


def _rk4_w00_reference(w11, w00, p0, budget, steps):
    """ode_quadrature_w00's loop as first written, kept as the bitwise reference."""
    w11 = np.atleast_1d(np.asarray(w11, dtype=float))
    w00, p0, budget = (np.broadcast_to(np.asarray(a, dtype=float), w11.shape).copy()
                       for a in (w00, p0, budget))
    p = p0.copy()
    h = budget / steps
    sing_tol = 1e-7
    frozen = (p * w11 - (1.0 - p) * w00) <= sing_tol

    def f(x):
        return -1.0 / np.clip(x * w11 - (1.0 - x) * w00, sing_tol, None)

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        step = h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nxt = np.where(frozen, p, p + step)
        frozen |= (nxt * w11 - (1.0 - nxt) * w00) <= sing_tol
        p = nxt
    return np.where(frozen, 0.0, p)


def ode_quadrature_w00(w11, w00, p0, budget, steps: int = 200_000):
    """RK4 for the joint-failure variant dp/dt = -1/(p*w11 - (1-p)*w00):
    the oracle for the w11/w00 row of ``worstcase._value``.

    Integration freezes once the denominator comes within ``sing_tol`` of
    its singularity; a frozen path with leftover budget collapses to zero,
    matching the free undercutting available below the singularity.
    """
    w11 = np.atleast_1d(np.asarray(w11, dtype=float))
    w00, p0, budget = (np.broadcast_to(np.asarray(a, dtype=float), w11.shape).copy()
                       for a in (w00, p0, budget))
    p = p0.copy()
    h = budget / steps
    sing_tol = 1e-7
    frozen = (p * w11 - (1.0 - p) * w00) <= sing_tol

    half_h, sixth_h = 0.5 * h, h / 6.0  # as in rk4_oracle.ode_quadrature_p

    def f(x):
        return -1.0 / np.maximum(x * w11 - (1.0 - x) * w00, sing_tol)

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + half_h * k1)
        k3 = f(p + half_h * k2)
        k4 = f(p + h * k3)
        step = sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nxt = np.where(frozen, p, p + step)
        frozen |= (nxt * w11 - (1.0 - nxt) * w00) <= sing_tol
        p = nxt
    return np.where(frozen, 0.0, p)


class TestQuadratureBits:
    """The RK4 oracles give the bits of their original loops."""

    def test_undercut_quadrature(self):
        rng = np.random.default_rng(41)
        w10 = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 0.7, 30)])
        w11 = w10 + np.concatenate([[0.5, 1.0], rng.uniform(0.05, 1.0, 30)])
        p0 = np.concatenate([[0.5, 1.0], rng.uniform(0.3, 1.0, 30)])
        # budgets up to and past the collapse point, where the clamp acts
        budget = (w10 * p0 + (w11 - w10) * p0 * p0 / 2) * rng.uniform(0.1, 1.2, 32)
        got = ode_quadrature_p(w11, w10, p0, budget, steps=2000)
        want = _rk4_reference(w11, w10, p0, budget, steps=2000)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_undercut_quadrature_d_min_at_path_ends(self):
        # either sign of gap and budget, zero gaps, and paths that start at or
        # below the singularity, where the clamped slope is -1e300
        rng = np.random.default_rng(47)
        n = 600
        w10 = rng.choice([0.0, 0.3, 1.0], n) * rng.uniform(0.0, 1.0, n)
        gap = rng.uniform(-1.0, 1.0, n) * rng.choice([0.0, 1e-9, 1.0, 5.0], n)
        p0 = rng.uniform(-0.5, 1.2, n)
        budget = rng.uniform(-2.0, 2.0, n) * rng.choice([0.0, 1e-5, 1.0, 1e3], n)
        got = ode_quadrature_p(w10 + gap, w10, p0, budget, steps=400)
        want = _rk4_reference(w10 + gap, w10, p0, budget, steps=400)
        assert np.count_nonzero(want[1] <= 0.0) > n // 10
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_joint_failure_quadrature(self):
        rng = np.random.default_rng(43)
        w11 = rng.uniform(0.2, 1.0, 32)
        w00 = np.concatenate([[0.0], rng.uniform(0.0, 0.5, 31)])
        p0 = rng.uniform(0.1, 1.0, 32)
        budget = rng.uniform(0.0, 0.5, 32)
        got = ode_quadrature_w00(w11, w00, p0, budget, steps=2000)
        want = _rk4_w00_reference(w11, w00, p0, budget, steps=2000)
        assert np.array_equal(got, want)


def _suite_draws(seed, n, budget_hi):
    """Instances of ``suite_quadrature``'s domain, budgets up to ``budget_hi``
    times the collapse point."""
    rng = np.random.default_rng(seed)
    w10 = rng.uniform(0.0, 0.7, n)
    gap = rng.uniform(0.05, 1.0, n)
    p0 = rng.uniform(0.3, 1.0, n)
    t_zero = w10 * p0 + gap * p0 * p0 / 2
    return w10 + gap, w10, p0, t_zero * rng.uniform(0.1, budget_hi, n)


class TestQuadratureCoordinates:
    """``undercut_ode`` sizes its own steps; the fixed-step p-form in
    ``rk4_oracle`` is its oracle."""

    @pytest.mark.parametrize("steps", [400, 4000])
    def test_keeps_what_the_p_form_keeps(self, steps):
        w11, w10, p0, budget = _suite_draws(41, 400, 1.3)
        p_u, d_u, _, _ = undercut_ode(w11, w10, p0, budget)
        p_p, d_p = ode_quadrature_p(w11, w10, p0, budget, steps)
        kept = d_p >= 0.02
        assert np.array_equal(d_u >= 0.02, kept)
        assert 0 < np.count_nonzero(~kept) < 400 // 4  # past the collapse point
        # the p-form's fourth-order truncation error shrinks as steps**-4
        tol = 1e-10 * (4000 / steps) ** 4
        assert np.abs(p_u[kept] - p_p[kept]).max() <= tol
        assert np.abs(d_u[kept] - d_p[kept]).max() <= tol

    def test_accepts_no_step_over_its_tolerance(self):
        # the paths past the collapse point reject steps before they cross
        w11, w10, p0, budget = _suite_draws(41, 400, 1.3)
        p_end, _, _, err = undercut_ode(w11, w10, p0, budget)
        # p falls along every path, so no accepted step saw |p| above these
        assert (err > 0.0).all()
        assert (err <= ODE_ATOL + ODE_RTOL * np.maximum(abs(p0), abs(p_end))).all()

    def test_matches_the_closed_form_as_the_suite_checks_it(self):
        w11, w10, p0, budget = _suite_draws(31, 60, 0.85)
        p_num, d_min, _, _ = undercut_ode(w11, w10, p0, budget)
        kept = np.flatnonzero(d_min >= 0.02)
        assert len(kept) >= 40
        for k in kept:
            closed = best_known_solution(w10[k], w11[k], ActionSet([budget[k]], [p0[k]])).p_end
            assert abs(closed - p_num[k]) <= 1e-6

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 0.7), st.floats(1e-9, 1.0),
                              st.floats(0.3, 1.0), st.floats(0.0, 1.3)),
                    min_size=1, max_size=16))
    def test_kept_paths_never_crossed_and_match_the_closed_form(self, rows):
        # budgets up to 1.3 times the time p takes to reach 0: past it p goes
        # negative while s stays positive, and the closed form clamps at 0
        w10, drawn_gap, p0, frac = (np.array(c) for c in zip(*rows))
        w11 = w10 + drawn_gap
        gap = w11 - w10
        budget = frac * (w10 * p0 + gap * p0 * p0 / 2)
        p_end, d_min, rounds, err = undercut_ode(w11, w10, p0, budget)
        assert rounds < ODE_MAX_ROUNDS
        kept = np.flatnonzero(d_min >= 0.02)
        # s reaches 0 at budget s0**2 / (2*gap)
        assert ((budget * 2 * gap)[kept] < ((w10 + gap * p0) ** 2)[kept]).all()
        for k in kept:
            closed = best_known_solution(w10[k], w11[k], ActionSet([budget[k]], [p0[k]])).p_end
            assert abs(max(p_end[k], 0.0) - closed) <= 1e-9
            assert err[k] <= ODE_ATOL + ODE_RTOL * max(abs(p0[k]), abs(p_end[k]))

    def test_a_path_past_its_singularity_is_never_kept(self):
        # budgets at and far past the collapse point, then paths that start
        # at and below the singularity
        w11, w10 = np.array([0.6, 0.6, 0.6, 0.6]), np.array([0.0, 0.0, 0.0, 0.2])
        p0, budget = np.array([1.0, 1.0, 0.0, -0.5]), np.array([0.3, 10.0, 0.1, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, d_min, _, _ = undercut_ode(w11, w10, p0, budget)
        assert 0.0 < d_min[0] < 0.02
        assert np.isneginf(d_min[1:]).all()

    def test_a_path_cut_at_the_round_cap_is_never_kept(self, monkeypatch):
        draws = _suite_draws(31, 60, 0.85)
        _, d_full, _, _ = undercut_ode(*draws)
        monkeypatch.setattr(selftest, "ODE_MAX_ROUNDS", 5)
        _, d_min, rounds, _ = undercut_ode(*draws)
        cut = np.isneginf(d_min)
        assert rounds == 5 and 0 < np.count_nonzero(cut) < 60
        assert (d_full[cut] >= 0.02).all() and np.array_equal(d_min[~cut], d_full[~cut])

    def test_zero_budget_stays_put(self):
        p_end, d_min, _, _ = undercut_ode(0.7, 0.1, 0.8, 0.0)
        assert p_end[0] == pytest.approx(0.8, abs=1e-15)
        assert d_min[0] == 0.1 + (0.7 - 0.1) * 0.8

    @pytest.mark.parametrize("w11, w10, p0, budget", [
        (0.5, 0.5, 1.0, 0.1),
        (0.4, 0.5, 1.0, 0.1),
        (0.6, 0.0, 1.0, -1e-9),
        (math.nan, 0.0, 1.0, 0.1),
        (0.6, -math.inf, 1.0, 0.1),
        (0.6, 0.0, math.inf, 0.1),
        (0.6, 0.0, 1.0, math.nan),
    ])
    def test_refuses_inputs_outside_its_domain(self, w11, w10, p0, budget):
        with pytest.raises(ValueError, match="^undercut_ode needs "):
            undercut_ode(w11, w10, p0, budget)


def _endpoint_reference(w11, w10, a0):
    """The one-target endpoint as first written: the bitwise reference for t_hat,
    t_zero and the flat branch.  Its joint root cancels when w11 - w10 is
    small against w10."""
    if w11 < w10:
        raise ContractPatternError(f"need w11 >= w10, got w11={w11} < w10={w10}")
    p0, c0 = a0.prob, a0.cost
    if w11 == w10:
        w = w11
        if w <= 0.0:
            p_end = p0 if c0 == 0.0 else 0.0
            t_zero = 0.0
        else:
            t_zero = w * p0
            p_end = max(0.0, p0 - c0 / w)
        return OdeSolution(a0, w10, w11, min(c0, t_zero), p_end, t_zero)

    gap = w11 - w10
    t_zero = w10 * p0 + gap * p0 * p0 / 2.0
    if c0 >= t_zero:
        return OdeSolution(a0, w10, w11, t_zero, 0.0, t_zero)
    disc = (p0 * w11 + (1.0 - p0) * w10) ** 2 - 2.0 * c0 * gap
    p_end = (math.sqrt(max(disc, 0.0)) - w10) / gap
    return OdeSolution(a0, w10, w11, c0, max(0.0, p_end), t_zero)


def _pbar_grid_reference(w11, w10, a0_set):
    """pbar_grid as first written, with the same joint root as
    ``_endpoint_reference``.  Away from that root it differs from the
    kernel only at zero wages with a free known action (0, not p0)."""
    w11 = np.asarray(w11, dtype=float)
    w10 = np.asarray(w10, dtype=float)
    gap = w11 - w10
    out = np.zeros(np.broadcast(w11, w10).shape)
    for a in a0_set.known:
        p0, c0 = a.prob, a.cost
        with np.errstate(divide="ignore", invalid="ignore"):
            t_zero = w10 * p0 + gap * p0 * p0 / 2.0
            disc = (p0 * w11 + (1.0 - p0) * w10) ** 2 - 2.0 * c0 * gap
            safe_gap = np.where(gap > 0.0, gap, 1.0)
            jpe_end = (np.sqrt(np.clip(disc, 0.0, None)) - w10) / safe_gap
            jpe_end = np.where(c0 >= t_zero, 0.0, np.clip(jpe_end, 0.0, None))
            safe_w = np.where(w10 > 0.0, w10, 1.0)
            ipe_end = np.where(w10 > 0.0, np.clip(p0 - c0 / safe_w, 0.0, None), 0.0)
        p_end = np.where(gap > 0.0, jpe_end, ipe_end)
        out = np.maximum(out, p_end)
    return out


ULP1 = 2.0**-52  # unit in the last place of 1.0
IN_RANGE = (1e-140, 1e140)  # magnitudes whose squares neither overflow nor underflow


def _in_range(*xs):
    return all(x == 0.0 or IN_RANGE[0] <= abs(x) <= IN_RANGE[1] for x in xs)


def _oracle_p_end(w11, w10, c0, t_zero):
    """Joint endpoint in 80-digit decimal arithmetic: the root of
    (w11-w10)/2 * p^2 + w10 * p = t_zero - c0.

    It takes the kernel's t_zero, which is bit-equal to the reference's, so
    it judges the root alone: where t_zero - c0 cancels, the two are within
    a factor 2 and their float difference is exact (Sterbenz)."""
    with localcontext() as ctx:
        ctx.prec = 80
        r = Decimal(t_zero) - Decimal(c0)
        if r <= 0:
            return 0.0
        gap, b = Decimal(w11) - Decimal(w10), Decimal(w10)
        return float(2 * r / (b + (b * b + 2 * gap * r).sqrt()))


def _check_against_reference(w11, w10, a0):
    """The kernel's endpoint at one in-range input: t_hat, t_zero and the
    flat branch are the reference's bits, and the joint p_end is within
    4 ulps of 1 of the decimal oracle.  Returns whether the reference's own
    p_end also is."""
    got = best_known_solution(w10, w11, single(a0))
    want = _endpoint_reference(w11, w10, a0)
    assert (got.t_hat, got.t_zero) == (want.t_hat, want.t_zero)
    if w11 == w10:
        assert got.p_end == want.p_end
        return True
    exact = _oracle_p_end(w11, w10, a0.cost, got.t_zero)
    assert abs(got.p_end - exact) <= 4 * ULP1, (w11, w10, a0)
    return abs(want.p_end - exact) <= 4 * ULP1


def _expect_overflow(w11, w10, a0):
    """Whether the kernel must raise: t_zero is not finite, or a joint cell
    whose budget is not spent has a discriminant that is not finite."""
    gap = w11 - w10
    t_zero = w10 * a0.prob + gap * a0.prob * a0.prob / 2.0
    if w11 == w10:
        return False  # w10 * p0 is finite for finite inputs
    if not math.isfinite(t_zero):
        return True
    return a0.cost < t_zero and not math.isfinite(w10 * w10 + 2.0 * gap * (t_zero - a0.cost))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestEndpointBits:
    """The undercut kernel against the scalar and grid code it replaced:
    the same t_hat, t_zero and flat-branch bits, and a joint endpoint that
    the stable root puts within 4 ulps of the exact root, where the former
    (sqrt(disc) - w10)/gap was not."""

    def test_scalar_seeded(self):
        rng = np.random.default_rng(51)
        reference_misses = 0
        for t in range(20_000):
            kind = t % 6  # 1: w10 = 0, 2: w11 = w10, 3: free target, 5: all three
            w10 = 0.0 if kind in (1, 5) else rng.uniform(0.0, 1.2)
            w11 = w10 if kind in (2, 5) else w10 + rng.uniform(0.0, 1.0)
            p0 = rng.uniform(0.0, 1.0)
            c0 = 0.0 if kind in (3, 5) and t % 12 < 6 else rng.uniform(0.0, 1.0)
            if kind == 4:  # budgets around the collapse point
                c0 = (w10 * p0 + (w11 - w10) * p0 * p0 / 2.0) * rng.uniform(0.5, 1.5)
            reference_misses += not _check_against_reference(w11, w10, ActionSpec(c0, p0))
        assert reference_misses > 0  # the former cancelling root fails this check

    @settings(max_examples=300, deadline=None)
    @given(
        w10=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
        gap=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
        p0=st.floats(0.0, 1.0),
        c0=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
    )
    def test_scalar_property(self, w10, gap, p0, c0):
        w11 = w10 + gap
        assume(math.isfinite(w11))
        a0 = ActionSpec(c0, p0)
        if _in_range(w11, w10, w11 - w10, p0, c0):
            _check_against_reference(w11, w10, a0)
            return
        try:
            got = best_known_solution(w10, w11, single(a0))
        except OverflowError:
            assert _expect_overflow(w11, w10, a0)
            return
        assert not _expect_overflow(w11, w10, a0)
        assert 0.0 <= got.p_end <= p0

    def test_stable_where_former_root_cancelled(self):
        # w11 - w10 is half an ulp of w10, so the dynamics are all but flat
        for cost, want, former in ((0.1, 0.8, 1.0), (0.2, 0.6, 0.0)):
            a0 = ActionSpec(cost, 1.0)
            got = best_known_solution(0.5, 0.5 + 2**-53, single(a0)).p_end
            assert got == pytest.approx(want, abs=4 * ULP1)
            assert _endpoint_reference(0.5 + 2**-53, 0.5, a0).p_end == former

    def test_scalar_and_grid_bits_agree(self):
        rng = np.random.default_rng(55)
        n = 20_000
        w10 = 10.0 ** rng.uniform(-3.0, 1.0, n) * (rng.random(n) < 0.9)
        w11 = w10 + 10.0 ** rng.uniform(-17.0, 1.0, n) * (rng.random(n) < 0.9)
        p0 = rng.uniform(0.0, 1.0, n)
        c0 = (w10 * p0 + (w11 - w10) * p0 * p0 / 2.0) * rng.uniform(0.0, 1.2, n)
        scalar = np.array([
            astuple(best_known_solution(w10[k], w11[k], ActionSet([c0[k]], [p0[k]])))[3:]
            for k in range(n)])
        t_hat, p_end, t_zero = _endpoint(w10, w11, p0, c0)
        assert np.array_equal(_bits(scalar), _bits(np.stack([t_hat, p_end, t_zero], axis=1)))

    def test_grid_seeded(self):
        rng = np.random.default_rng(53)
        axis = np.linspace(0.0, 1.0, 101)
        w11, w10 = np.meshgrid(axis, axis, indexing="ij")
        flat = w11 <= w10
        for _ in range(60):
            k = int(rng.integers(1, 4))
            known = ActionSet.from_pairs(
                [(rng.uniform(1e-3, 1.0), rng.uniform(0.0, 1.0)) for _ in range(k)])
            got = pbar_grid(w11, w10, known)
            want = _pbar_grid_reference(w11, w10, known)
            assert np.array_equal(_bits(got[flat]), _bits(want[flat]))
            # here w10/(w11 - w10) <= 100 bounds how far the former root cancelled
            assert np.abs(got - want).max() <= 400 * ULP1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=100, deadline=None)
    @given(
        wages=st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
                       min_size=1, max_size=20),
        known=st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=3),
    )
    def test_grid_property(self, wages, known):
        w11, w10 = (np.array(x) for x in zip(*wages))
        known = ActionSet.from_pairs(known)
        got = pbar_grid(w11, w10, known)
        flat = w11 <= w10
        want = _pbar_grid_reference(w11, w10, known)
        assert np.array_equal(_bits(got[flat]), _bits(want[flat]))
        for k in range(len(w11)):
            if w11[k] >= w10[k]:
                assert got[k] == max(best_known_solution(w10[k], w11[k], single(a)).p_end
                                     for a in known.known)

    def test_zero_wage_free_action(self):
        free = ActionSet.from_pairs([(0.0, 0.7)])
        assert best_known_solution(0.0, 0.0, ActionSet([0.0], [0.7])).p_end == 0.7
        assert pbar_grid(0.0, 0.0, free) == 0.7
        assert _pbar_grid_reference(0.0, 0.0, free) == 0.0  # the former disagreement

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            best_known_solution(0.2, 1e308, A0)
        with pytest.raises(OverflowError):
            pbar_grid(np.array([0.5, 1e308]), np.array([0.0, 0.2]), A0)
        # the discriminant overflows though 2r/(b + inf) would be a finite 0
        with pytest.raises(OverflowError):
            best_known_solution(1e200, 2e200, A0)
        # flat cells and spent budgets need no discriminant
        assert best_known_solution(1e200, 1e200, A0).p_end == 1.0 - 0.25 / 1e200
        assert best_known_solution(1e200, 2e200, ActionSet([1e300], [1.0])).p_end == 0.0

    def test_underflowing_squares_stay_below_p0(self):
        for w10, gap in ((0.0, 1e-300), (1e-295, 1e-295), (3e-160, 1e-300)):
            sol = best_known_solution(w10, w10 + gap, ActionSet([0.0], [0.5]))
            assert 0.0 <= sol.p_end <= 0.5


class TestBestKnownSolution:
    def test_first_of_tied_targets(self):
        # at w = 0.5 both (0.25, 1.0) and (0.2, 0.9) end at exactly 0.5
        first, second = (0.25, 1.0), (0.2, 0.9)
        for order in ((first, second), (second, first)):
            known = ActionSet.from_pairs([(0.0, 0.2), *order])
            best = best_known_solution(0.5, 0.5, known)
            assert best.a0 == ActionSpec(*order[0]) and best.p_end == 0.5

    def test_takes_highest_endpoint(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            w = draw_jpe(rng)
            known = draw_known_set(rng)
            sols = [best_known_solution(w.w10, w.w11, single(a)) for a in known.known]
            assert best_known_solution(w.w10, w.w11, known) == max(sols, key=lambda s: s.p_end)

    def test_needs_known_prefix(self):
        with pytest.raises(ValueError):
            best_known_solution(0.0, 0.5, ActionSet([TARGET.cost], [TARGET.prob], 0))
