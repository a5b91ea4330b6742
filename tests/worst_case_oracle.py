"""Pattern dispatch and witness construction as the package had them before
``worstcase.worst_case``: the branch of the ``evaluate`` verb and the
``with_witness`` paths of ``jpe_value``, ``ipe_value`` and ``rpe_value``,
kept as the oracle ``worst_case`` is checked against.  Import it from a
test module in this directory.  ``worst_case_oracle`` checks each chain
witness with the dense best-response path of ``test_best_response``, not
with ``worstcase.check_witness``.

Beside it are the readers of raw wages that ``worstcase.marginal_wage``
replaced: ``require_pattern``, ``jpe_value_w00`` with its own checks and its
own shift of the kernel to the singularity, and the n-agent scheme's
``two_agent_equivalent`` contract.
"""

import math
from dataclasses import replace

from teamcontracts import (
    ActionSpec,
    ContractPatternError,
    ConvergenceError,
    Witness,
    WorstCaseResult,
    best_known_solution,
    classify,
    euler_adversary,
    induce_game,
    ipe_adversary,
    rpe_value,
)
from teamcontracts.model import MAX_WITNESS_CHAIN, Contract
from teamcontracts.worstcase import FULL_SUCCESS, SHIRK_EQ, _endpoint, shirk_branch

from test_best_response import dense_path


def require_pattern(contract, jpe):
    """The check of zero failure wages and of joint (``jpe``) or relative
    evaluation that ``jpe_value``, ``rpe_value``, ``euler_adversary`` and
    ``euler_error_bound`` made on the raw wages."""
    w11, w10, w01, w00 = contract.as_tuple()
    if w01 != 0.0 or w00 != 0.0:
        raise ContractPatternError("failure wages must be zero (w01 = w00 = 0)")
    if jpe and not w11 > w10:
        raise ContractPatternError(f"joint evaluation requires w11 > w10, got ({w11}, {w10})")
    if not jpe and not w11 < w10:
        raise ContractPatternError(f"relative evaluation requires w11 < w10, got ({w11}, {w10})")


def jpe_value_w00(contract, a0_set):
    """``jpe_value_w00`` with its own pattern checks and its own shift: the
    pooled kernel at wage w11 + w00 from q0 = p(a0) - p_sing, where p_sing =
    w00/(w11 + w00), and p_sing + q_end where q_end > 0, else 0."""
    w11, w00 = contract.w11, contract.w00
    if contract.w10 != 0.0 or contract.w01 != 0.0:
        raise ContractPatternError("pattern requires w10 = w01 = 0")
    if w11 <= 0.0:
        raise ContractPatternError("pattern requires w11 > 0")
    known = a0_set.known
    if not known:
        raise ValueError("action set has no known prefix to target")
    p_sing = w00 / (w11 + w00)
    q_end = float(_endpoint(0.0, w11 + w00, known.probs - p_sing, known.costs)[1].max())
    pbar = p_sing + q_end if q_end > 0.0 else 0.0
    shirk = pbar * pbar * (1.0 - w11) + (1.0 - pbar) ** 2 * (-w00)
    return _min_branch(pbar, 1.0 - w11, shirk, a0_set, False)


def two_agent_equivalent(mac):
    """The two-agent contract ``multi_agent_value`` valued an n-agent team
    scheme (w0, b) by."""
    return Contract(mac.w0 + mac.b, mac.w0, 0.0, 0.0)


def _min_branch(pbar, full, shirk, a0_set, with_witness):
    per_agent = min(full, shirk)
    binding = FULL_SUCCESS if full < shirk else SHIRK_EQ
    witness = None
    if with_witness and binding == FULL_SUCCESS:
        witness = Witness(a0_set.extend([ActionSpec(0.0, 1.0)]), 0.0)
    return WorstCaseResult(pbar, per_agent, 2.0 * per_agent, binding, witness)


def _jpe(contract, a0_set, witness_eps):
    w11, w10 = contract.w11, contract.w10
    best = best_known_solution(w10, w11, a0_set)
    pbar = best.p_end
    res = _min_branch(pbar, 1.0 - w11, shirk_branch(pbar, w11, w10), a0_set, True)
    if res.binding == SHIRK_EQ and best.t_hat > 0.0:
        n = int(min(max(2, math.ceil(best.t_hat / witness_eps)), MAX_WITNESS_CHAIN))
        chain = euler_adversary(best, n)
        res = replace(res, witness=Witness(a0_set.extend(chain.actions[1:]), witness_eps))
    return res


def _checked(contract, res):
    """``res``, once the dense maximal best-response path of its chain witness
    ends at the witness's last action; ConvergenceError otherwise."""
    if res.binding == SHIRK_EQ and res.witness is not None:
        actions = res.witness.actions
        limit, _ = dense_path(induce_game(contract, actions), "MAX")
        if limit != len(actions) - 1:
            raise ConvergenceError(
                f"witness failed verification: the maximal best-response path "
                f"stops at action {limit}, not at the last action {len(actions) - 1}")
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
    reduced contract, or the ContractPatternError it refused with; a joint
    chain witness that fails the dense check raises ConvergenceError."""
    w11, w10, w01, w00 = reduced.as_tuple()
    if w01 == 0.0 and w00 == 0.0:
        if w11 > w10:
            return _checked(reduced, _jpe(reduced, a0, eps))
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
