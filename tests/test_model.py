import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamcontracts import (
    ActionSet,
    ActionSpec,
    AssumptionError,
    Contract,
    calibrate_jpe,
    check_known_assumptions,
    classify,
    cli,
    linear_contract,
    reduce_failure_wages,
    worst_case,
)
from teamcontracts.model import AFFINE_TOL
from teamcontracts.worstcase import marginal_wage


class TestClassify:
    def test_bonus_ipe_is_affine(self):
        cls = classify(Contract(0.5, 0.5, 0.0, 0.0))
        assert cls.tag == "IPE"
        assert cls.affine

    def test_constant_contract(self):
        cls = classify(Contract(0.5, 0.5, 0.5, 0.5))
        assert cls.tag == "IPE"
        assert cls.affine

    def test_nonaffine_jpe(self):
        cls = classify(Contract(0.6, 0.2, 0.0, 0.0))
        assert cls.tag == "JPE"
        assert not cls.affine

    def test_nonaffine_rpe(self):
        cls = classify(Contract(0.3, 0.5, 0.0, 0.1))
        assert cls.tag == "RPE"
        assert not cls.affine

    def test_other(self):
        # joint at the top, relative at the bottom
        assert classify(Contract(0.6, 0.2, 0.1, 0.3)).tag == "OTHER"

    def test_linear_contract_is_affine_jpe(self):
        cls = classify(linear_contract(0.3))
        assert cls.tag == "JPE"
        assert cls.affine

    def test_tolerance_variant(self):
        w = Contract(0.5 + 1e-12, 0.5, 1e-13, 0.0)
        assert classify(w).tag == "JPE"

    def test_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            w = Contract(*rng.uniform(0, 1, 4))
            w11, w10, w01, w00 = w.as_tuple()
            is_ipe = w11 == w10 and w01 == w00
            is_jpe = w11 >= w10 and w01 >= w00 and (w11 > w10 or w01 > w00)
            is_rpe = w11 <= w10 and w01 <= w00 and (w10 > w11 or w00 > w01)
            assert sum((is_ipe, is_jpe, is_rpe)) <= 1
            expected = (
                "IPE" if is_ipe else "JPE" if is_jpe else "RPE" if is_rpe else "OTHER"
            )
            assert classify(w).tag == expected

    def test_limited_liability_enforced(self):
        with pytest.raises(ValueError):
            Contract(0.5, -0.1, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_wages_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Contract(0.5, 0.0, bad, 0.0)


# Wages at zero, subnormal, 1e-9 and 1e150, besides any float between.
WAGES = st.sampled_from([0.0, 5e-324, 1e-310, 1e-9, 0.37, 1.0, 1e150]) | st.floats(0.0, 1e150)


@st.composite
def success_wages(draw):
    """(w11, w10) equal, 1e-9 apart or drawn apart, then moved by at most one ulp."""
    w10 = draw(WAGES)
    w11 = draw(st.sampled_from([w10, w10 + 1e-9, w10 - 1e-9]) | WAGES)
    towards = draw(st.sampled_from([None, -math.inf, math.inf]))
    if towards is not None:
        w11 = math.nextafter(w11, towards)
    return max(w11, 0.0), w10


class TestClassDeciders:
    """``classify`` and ``marginal_wage`` decide a contract's class alike."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(success_wages())
    def test_tag_is_the_sign_of_the_marginal_wage(self, wages):
        w11, w10 = wages
        contract = Contract(w11, w10, 0.0, 0.0)
        s0, s1 = marginal_wage(contract)
        cls = classify(contract)
        assert cls.tag == ("JPE" if s1 > s0 else "IPE" if s1 == s0 else "RPE")
        assert cls.affine == (abs(w11 - w10) <= AFFINE_TOL)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(WAGES.filter(lambda w: w > 0.0), WAGES.filter(lambda w: w > 0.0))
    def test_w11_w00_is_other_and_valued(self, w11, w00):
        contract = Contract(w11, 0.0, 0.0, w00)
        assert classify(contract).tag == "OTHER"
        assert math.isfinite(worst_case(contract, ActionSet.from_pairs([(0.25, 1.0)])).total)

    @pytest.mark.parametrize("w10", [1e-4, 0.2713, 0.5, 0.9999])
    def test_optimizer_verdict_on_grid_points(self, w10):
        # selftest's optimizer suite passes an optimum (w11, w10, 0, 0) only as
        # a nonaffine joint evaluation; w11 - w10 is a rounding error or at
        # least one final grid step
        verdicts = []
        for delta in (-1e-15, 0.0, 1e-16, 1e-4):
            cls = classify(Contract(w10 + delta, w10, 0.0, 0.0))
            verdicts.append(cls.tag == "JPE" and not cls.affine)
        assert verdicts == [False, False, False, True]


class TestReduceFailureWages:
    def test_componentwise_subtraction(self):
        assert reduce_failure_wages(Contract(0.6, 0.3, 0.1, 0.2)) == Contract(
            0.5, 0.09999999999999998, 0.0, 0.0
        )

    def test_fixed_point(self):
        w = Contract(0.5, 0.5, 0.0, 0.0)
        assert reduce_failure_wages(w) == w

    def test_negative_column(self):
        r = reduce_failure_wages(Contract(0.2, 0.1, 0.4, 0.3))
        assert (r.w11, r.w10) == (0.0, 0.0)
        assert r.w01 == pytest.approx(0.2, abs=1e-15)
        assert r.w00 == pytest.approx(0.2, abs=1e-15)

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            w = Contract(*rng.uniform(0, 1, 4))
            r = reduce_failure_wages(w)
            assert reduce_failure_wages(r) == r
            assert all(b <= a for a, b in zip(w.as_tuple(), r.as_tuple()))
            assert min(r.w11, r.w01) == 0.0 and min(r.w10, r.w00) == 0.0


class TestCalibrateJpe:
    def test_full_productivity_target(self):
        c = calibrate_jpe(0.5, ActionSpec(0.25, 1.0), 0.18)
        assert c == Contract(0.5, 0.32, 0.0, 0.0)

    def test_partial_productivity_target(self):
        c = calibrate_jpe(0.5, ActionSpec(0.2, 0.8), 0.1)
        assert c.w10 == pytest.approx(0.4, abs=1e-15)
        assert c.w11 == pytest.approx(0.525, abs=1e-15)

    def test_small_offset_limit_is_independent(self):
        c = calibrate_jpe(0.5, ActionSpec(0.25, 1.0), 1e-8)
        assert abs(c.w11 - 0.5) < 1e-7 and abs(c.w10 - 0.5) < 1e-7
        assert classify(c).tag == "JPE"

    def test_calibration_identity_and_class(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w_star = rng.uniform(0.1, 1.0)
            eps = w_star * rng.uniform(0.01, 0.95)
            a0 = ActionSpec(0.0, rng.uniform(0.05, 1.0))
            c = calibrate_jpe(w_star, a0, eps)
            ident = a0.prob * c.w11 + (1 - a0.prob) * c.w10
            assert abs(ident - w_star) <= 1e-12
            cls = classify(c)
            assert cls.tag == "JPE" and not cls.affine
            assert c.w11 > c.w10

    def test_rejects_bad_offsets(self):
        a0 = ActionSpec(0.25, 1.0)
        with pytest.raises(ValueError):
            calibrate_jpe(0.5, a0, 0.5)
        with pytest.raises(ValueError):
            calibrate_jpe(0.5, a0, 0.6)
        with pytest.raises(ValueError):
            calibrate_jpe(0.5, a0, 0.0)
        with pytest.raises(ValueError):
            calibrate_jpe(0.5, ActionSpec(0.25, 0.0), 0.1)


def sorted_ranking(acts):
    """``ActionSet.ranking`` as first written, a Python sort of the keys
    (-prob, cost, index): the oracle for the lexsort."""
    keys = [(-a.prob, a.cost, i) for i, a in enumerate(acts.actions)]
    return tuple(i for *_, i in sorted(keys))


class TestActionSet:
    def test_ranking_matches_sorted_keys(self):
        rng = np.random.default_rng(3000)
        for _ in range(3000):
            n = int(rng.integers(1, 13))
            # few distinct values, so ties, duplicates and both zeros are common
            drawn = rng.uniform(0, 1, 4)
            probs = rng.choice((0.0, -0.0, 1e-300, 0.5, 0.5 + 2**-53, 1.0, *drawn[:2]), n)
            costs = rng.choice((0.0, -0.0, 5e-324, 0.25, *drawn[2:]), n)
            acts = ActionSet.from_pairs(zip(costs, probs))
            assert acts.ranking() == sorted_ranking(acts)

    def test_ranking_productivity_order(self):
        acts = ActionSet.from_pairs([(0.0, 0.45), (0.25, 1.0), (0.125, 0.76)])
        assert acts.ranking() == (1, 2, 0)

    def test_ties_broken_by_cost_then_index(self):
        acts = ActionSet.from_pairs([(0.3, 0.5), (0.1, 0.5), (0.1, 0.5)])
        assert acts.ranking() == (1, 2, 0)

    def test_json_round_trip(self):
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.4)], known_count=1)
        assert ActionSet.from_json(tuple_to_json([(0.25, 1.0), (0.0, 0.4)], 1)) == acts

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ActionSet.from_json({"actions": [{"cost": 0.1, "prob": 0.5}], "bogus": 1})
        with pytest.raises(ValueError):
            ActionSet.from_json({"actions": [{"cost": 0.1, "p": 0.5}]})

    def test_validation(self):
        with pytest.raises(ValueError):
            ActionSet((), 0)
        with pytest.raises(ValueError):
            ActionSet.from_pairs([(0.1, 0.5)], known_count=2)
        with pytest.raises(ValueError):
            ActionSpec(-0.1, 0.5)
        with pytest.raises(ValueError):
            ActionSpec(0.1, 1.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ActionSpec(bad, 0.5)
            with pytest.raises(ValueError):
                ActionSpec(0.1, bad)

    def test_known_assumptions(self):
        check_known_assumptions(ActionSet.from_pairs([(0.25, 1.0)]))
        with pytest.raises(AssumptionError):
            check_known_assumptions(ActionSet.from_pairs([(0.5, 0.5)]))
        with pytest.raises(AssumptionError):
            check_known_assumptions(ActionSet.from_pairs([(0.0, 0.5)]))
        with pytest.raises(AssumptionError):
            check_known_assumptions(ActionSet.from_pairs([(0.1, 0.9)], known_count=0))

    def test_known_assumptions_match_the_loop(self):
        rng = np.random.default_rng(101)
        outcomes = set()
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            costs = rng.choice((0.0, -0.0, 5e-324, 0.3, 0.6, *rng.uniform(0, 1, 2)), n)
            probs = rng.choice((0.0, 0.3, 0.6, 1.0, *rng.uniform(0, 1, 2)), n)
            acts = ActionSet(costs, probs, int(rng.integers(0, n + 1)))
            got = want = None
            try:
                check_known_assumptions(acts)
            except AssumptionError as exc:
                got = str(exc)
            try:
                check_known_assumptions_loop(acts)
            except AssumptionError as exc:
                want = str(exc)
            assert got == want
            outcomes.add(want.split(";")[0] if want else None)
        assert len(outcomes) == 4  # empty, free action, no surplus, and passing sets


def check_known_assumptions_loop(a0):
    """``check_known_assumptions`` as written over the tuple of
    ``ActionSpec``s: the oracle of its array form, message for message."""
    known = a0.known
    if not known:
        raise AssumptionError("known action set is empty")
    for a in known:
        if a.cost <= 0.0:
            raise AssumptionError(
                f"known actions must be costly; got cost {a.cost} at prob {a.prob}"
            )
    if not any(a.prob - a.cost > 0.0 for a in known):
        raise AssumptionError(
            "no known action generates strictly positive surplus (prob - cost > 0)"
        )


def tuple_to_json(pairs, known):
    """An action set's JSON document, written over the tuple of
    ``ActionSpec``s: the byte oracle of the CLI's streamed encoder."""
    actions = tuple(ActionSpec(float(c), float(p)) for c, p in pairs)
    return {"actions": [{"cost": a.cost, "prob": a.prob} for a in actions], "known": known}


def first_spec_error(pairs):
    """The error of the first failing ``ActionSpec`` in list order, or None:
    what building the tuple of ``ActionSpec``s raised."""
    try:
        for c, p in pairs:
            ActionSpec(c, p)
    except ValueError as exc:
        return str(exc)
    return None


EDGE_COSTS = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300])
EDGE_PROBS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0])
COSTS = EDGE_COSTS | st.floats(0.0, 1e300, allow_subnormal=True)
PROBS = EDGE_PROBS | st.floats(0.0, 1.0, allow_subnormal=True)
BAD = st.sampled_from([-1.0, -5e-324, 1.5, math.inf, -math.inf, math.nan])


class TestArrayForm:
    """The array form of ``ActionSet`` against the tuple of ``ActionSpec``s
    it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COSTS, PROBS), min_size=1, max_size=12), st.data())
    def test_to_json_matches_the_tuple_encoder(self, pairs, data):
        known = data.draw(st.integers(0, len(pairs)))
        acts = ActionSet.from_pairs(pairs, known)
        want = cli._dumps(tuple_to_json(pairs, known))
        assert "".join(cli._chunks(cli._actions_doc(acts))) == want
        assert ActionSet.from_json(json.loads(want)) == acts
        assert list(acts) == [ActionSpec(c, p) for c, p in pairs]
        assert [repr(a) for a in acts.known] == [repr(ActionSpec(c, p)) for c, p in pairs[:known]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COSTS | BAD, PROBS | BAD), min_size=1, max_size=8))
    def test_errors_match_the_first_failing_action_spec(self, pairs):
        want = first_spec_error(pairs)
        if want is None:
            ActionSet.from_pairs(pairs)
        else:
            with pytest.raises(ValueError) as exc:
                ActionSet.from_pairs(pairs)
            assert str(exc.value) == want

    def test_error_names_the_first_failing_action_and_field(self):
        # a bad probability at index 1 goes ahead of a bad cost at index 2
        with pytest.raises(ValueError, match=r"^success probability .* got 1.5$"):
            ActionSet.from_pairs([(0.1, 0.5), (0.2, 1.5), (-1.0, 0.5)])
        with pytest.raises(ValueError, match="^action cost must be finite and >= 0, got nan$"):
            ActionSet.from_pairs([(0.1, 0.5), (math.nan, 1.5)])

    def test_arrays_are_read_only_copies(self):
        costs, probs = np.array([0.25, 0.0, 0.1]), [1.0, 0.4, 0.5]
        acts = ActionSet(costs, probs, 2)
        costs[0], probs[1] = 0.5, 0.9
        assert acts.costs.tolist() == [0.25, 0.0, 0.1] and acts.probs.tolist() == [1.0, 0.4, 0.5]
        for arr in (acts.costs, acts.probs, acts.known.costs, acts[1:].probs):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.3
        with pytest.raises(AttributeError):
            acts.known_count = 3

    def test_sequence_of_action_specs(self):
        acts = ActionSet([0.25, 0.0, 0.1], [1.0, 0.4, 0.5], 2)
        assert len(acts) == 3 and acts[1] == ActionSpec(0.0, 0.4) and acts[-1].prob == 0.5
        assert acts.known == ActionSet([0.25, 0.0], [1.0, 0.4])
        assert acts[1:] == ActionSet([0.0, 0.1], [0.4, 0.5], 1)
        assert len(acts[:0]) == 0 and not ActionSet([0.1], [0.5], 0).known
        assert acts.extend([ActionSpec(0.0, 1.0)]) == ActionSet([0.25, 0.0, 0.1, 0.0],
                                                               [1.0, 0.4, 0.5, 1.0], 2)
        assert acts.extend(acts[2:]) == acts.extend([ActionSpec(0.1, 0.5)])
        assert acts.extend([]) == acts
        assert acts != ActionSet([0.25, 0.0, 0.1], [1.0, 0.4, 0.5], 3)
        assert acts.actions is acts


class TestContractJson:
    def test_round_trip(self):
        w = Contract(0.6, 0.2, 0.0, 0.1)
        assert Contract.from_json(w.to_json()) == w

    def test_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError):
            Contract.from_json({"w11": 1, "w10": 0, "w01": 0, "w00": 0, "w2": 3})
        with pytest.raises(ValueError):
            Contract.from_json({"w11": 1, "w10": 0})

    def test_non_object_inputs_are_named(self):
        with pytest.raises(ValueError) as exc:
            Contract.from_json("w11")
        assert str(exc.value) == "expected contract fields in a JSON object, got str"
        with pytest.raises(ValueError) as exc:
            ActionSet.from_json([{"cost": 0.1, "prob": 0.5}])
        assert str(exc.value) == "expected action-set fields in a JSON object, got list"
        with pytest.raises(ValueError) as exc:
            ActionSet.from_json({"actions": [{"cost": 0.1, "prob": 0.5}, None]})
        assert str(exc.value) == "expected action 1 fields in a JSON object, got NoneType"
