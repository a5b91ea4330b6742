"""Pattern dispatch and witness construction as the package had them before
``worstcase.worst_case``: the branch of the ``evaluate`` verb and the
``with_witness`` paths of ``jpe_value``, ``ipe_value`` and ``rpe_value``,
kept as the oracle ``worst_case`` is checked against.  Import it from a
test module in this directory.
"""

import math
from dataclasses import replace

from teamcontracts import (
    ActionSpec,
    ContractPatternError,
    Witness,
    WorstCaseResult,
    best_known_solution,
    classify,
    euler_adversary,
    ipe_adversary,
    jpe_value_w00,
    rpe_value,
)
from teamcontracts.model import MAX_WITNESS_CHAIN
from teamcontracts.worstcase import FULL_SUCCESS, SHIRK_EQ, shirk_branch


def _min_branch(pbar, full, shirk, a0_set, with_witness):
    per_agent = min(full, shirk)
    binding = FULL_SUCCESS if full < shirk else SHIRK_EQ
    witness = None
    if with_witness and binding == FULL_SUCCESS:
        witness = Witness(a0_set.extend([ActionSpec(0.0, 1.0)]), 0.0)
    return WorstCaseResult(pbar, per_agent, 2.0 * per_agent, binding, witness)


def _jpe(contract, a0_set, witness_eps):
    w11, w10 = contract.w11, contract.w10
    best = best_known_solution(w11, w10, a0_set)
    pbar = best.p_end
    res = _min_branch(pbar, 1.0 - w11, shirk_branch(pbar, w11, w10), a0_set, True)
    if res.binding == SHIRK_EQ and best.t_hat > 0.0:
        n = int(min(max(2, math.ceil(best.t_hat / witness_eps)), MAX_WITNESS_CHAIN))
        chain = euler_adversary(contract, best.a0, n, verify=False)
        res = replace(res, witness=Witness(a0_set.extend(chain.actions[1:]), witness_eps))
    return res


def _ipe(w, a0_set, witness_eps):
    pbar = best_known_solution(w, w, a0_set).p_end
    res = _min_branch(pbar, 1.0 - w, pbar * (1.0 - w), a0_set, True)
    if res.binding == SHIRK_EQ and w > 0.0:
        adv = ipe_adversary(w, a0_set, witness_eps)
        res = replace(res, witness=Witness(adv.actions, witness_eps))
    return res


def _rpe(contract, a0_set, witness_eps):
    res = rpe_value(contract, a0_set)
    adv = a0_set.extend(
        [ActionSpec(0.0, min(1.0, res.pbar + witness_eps)), ActionSpec(0.0, 0.0)]
    )
    return replace(res, witness=Witness(adv, witness_eps))


def worst_case_oracle(reduced, a0, eps):
    """The worst case and witness the ``evaluate`` verb computed for the
    reduced contract, or the ContractPatternError it refused with."""
    w11, w10, w01, w00 = reduced.as_tuple()
    if w01 == 0.0 and w00 == 0.0:
        if w11 > w10:
            return _jpe(reduced, a0, eps)
        if w11 < w10:
            return _rpe(reduced, a0, eps)
        return _ipe(w11, a0, eps)
    if w10 == 0.0 and w01 == 0.0 and w11 > 0.0:
        return jpe_value_w00(reduced, a0)
    raise ContractPatternError(
        "worst-case evaluation is not defined for this wage pattern "
        f"even after reduction (class {classify(reduced).tag}); "
        "supported: zero failure wages, or w11/w00 with w10=w01=0",
    )
