"""Core domain types: actions, action sets, and four-wage contracts.

An action is a (cost, success probability) pair.  An action set holds its
actions once, as read-only float64 cost and probability arrays that every
other layer computes on; this module alone knows how it is stored.  Only
the action set's methods that call numpy import it, so the scalar types,
the contracts and the JSON checks load without it.  A
contract is a quadruple of non-negative wages w[own outcome][other's
outcome] paid to each of two identical agents.  Contracts are classified
by how own pay responds to the other agent's outcome: independent (IPE),
relative (RPE), joint (JPE), or none of the three (OTHER).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionError

# Contract class tags.
IPE = "IPE"
RPE = "RPE"
JPE = "JPE"
OTHER = "OTHER"

# Tolerance for the affine decomposition w11 = w10 + w01 - w00.
AFFINE_TOL = 1e-9

# Cap on the length of an undercut chain: the witnesses `worstcase` sizes
# from an eps target, and the chains the command line may ask for.
MAX_WITNESS_CHAIN = 100_000


@dataclass(frozen=True)
class ActionSpec:
    """One action: effort cost (utility units) and success probability."""

    cost: float
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.cost < math.inf:  # also rejects NaN
            raise ValueError(f"action cost must be finite and >= 0, got {self.cost}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"success probability must be in [0, 1], got {self.prob}")


def clip(x) -> str:
    """``repr(x)`` for a refusal line, cut to 60 characters and ``...``."""
    text = repr(x)
    return text if len(text) <= 60 else text[:60] + "..."


def number(x, what: str = "value") -> float:
    """``float(x)`` for an int or float, else TypeError naming ``what``: a
    number field of JSON input takes a JSON number, not a bool or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{what} is not a number: {clip(x)}")
    return float(x)


def integral(x, what: str = "value") -> int:
    """``int(x)`` for a number with no fractional part, else ValueError."""
    if not number(x, what).is_integer():
        raise ValueError(f"not an integer: {clip(x)}")
    return int(x)


def json_list(x, what: str = "") -> list:
    """``x``, if it is a JSON list, else TypeError naming it by ``what``."""
    if not isinstance(x, list):
        raise TypeError(f"{what}must be a list, got {type(x).__name__}")
    return x


def json_object(obj, required: dict, optional: dict = {}, what: str = "") -> list:
    """The ``required`` then ``optional`` fields of the JSON object ``obj``, each
    read as ``read(value, name)`` by its table's reader, an absent one as None.
    Else ValueError naming ``obj`` by ``what``, empty or ending in a space:
    ``what="contract "`` gives ``unknown contract fields: ['w2']``."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected {what}fields in a JSON object, got {type(obj).__name__}")
    unknown = obj.keys() - required.keys() - optional.keys()
    if unknown:
        raise ValueError(f"unknown {what}fields: {clip(sorted(unknown))}")
    missing = required.keys() - obj.keys()
    if missing:
        raise ValueError(f"missing {what}fields: {sorted(missing)}")
    return [read(obj[name], name) if name in obj else None
            for name, read in (*required.items(), *optional.items())]


def json_action(obj, what: str = "") -> tuple[float, float]:
    """The (cost, prob) numbers of a JSON action object, named by ``what`` in
    errors (``action 0 cost is not a number: '0.25'``); an action checks them."""
    def read(x, name):
        return number(x, what + name)
    return tuple(json_object(obj, {"cost": read, "prob": read}, what=what))


@dataclass(frozen=True, eq=False, init=False)
class ActionSet:
    """A finite ordered list of actions whose leading prefix is known.

    The actions are held once, as the read-only float64 arrays ``costs``
    and ``probs``.  ``s[i]`` and iteration give ``ActionSpec``s, a slice is
    an action set keeping its actions' known flags, and equality is by
    value.  ``known_count`` marks how many leading actions the principal
    knows about; the remainder are adversarial additions.  The productivity
    order ranks a above a' when a succeeds with higher probability, or with
    equal probability at lower cost.  Duplicate (cost, prob) pairs are
    permitted; ties are broken by list position so the order stays total.
    """

    costs: np.ndarray
    probs: np.ndarray
    known_count: int

    def __init__(self, costs, probs, known_count=None):
        import numpy as np

        costs, probs = np.array(costs, dtype=float), np.array(probs, dtype=float)
        if costs.ndim != 1 or costs.shape != probs.shape:
            raise ValueError(f"need 1-D costs and probs alike, got {costs.shape}, {probs.shape}")
        if not costs.size:
            raise ValueError("action set must be non-empty")
        bad = ~((costs >= 0.0) & (costs < math.inf) & (probs >= 0.0) & (probs <= 1.0))
        if bad.any():  # ActionSpec names the first failing action's first failing field
            ActionSpec(*(float(x[np.argmax(bad)]) for x in (costs, probs)))
        known_count = costs.size if known_count is None else known_count
        if not 0 <= known_count <= costs.size:
            raise ValueError(f"known_count {known_count} out of range for {costs.size} actions")
        costs.flags.writeable = probs.flags.writeable = False
        self.__dict__.update(costs=costs, probs=probs, known_count=known_count)

    @classmethod
    def from_pairs(cls, pairs, known_count=None) -> "ActionSet":
        """Build from (cost, prob) pairs; by default all actions are known."""
        costs, probs = list(zip(*pairs)) or ((), ())
        return cls(costs, probs, known_count)

    @property
    def actions(self) -> "ActionSet":
        """The set itself, as the sequence of its ``ActionSpec``s."""
        return self

    @property
    def known(self) -> "ActionSet":
        """The known prefix, as an action set (empty when none is known)."""
        return self[: self.known_count]

    def __len__(self) -> int:
        return self.costs.size

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return ActionSpec(float(self.costs[key]), float(self.probs[key]))
        taken = range(len(self))[key]
        if taken.step != 1:
            raise ValueError("action-set slices take consecutive actions")
        known = len(range(taken.start, min(taken.stop, self.known_count)))
        out = object.__new__(ActionSet)  # views of checked arrays, possibly empty
        out.__dict__.update(costs=self.costs[key], probs=self.probs[key], known_count=known)
        return out

    def __eq__(self, other) -> bool:
        import numpy as np

        return (isinstance(other, ActionSet) and self.known_count == other.known_count
                and np.array_equal(self.costs, other.costs)
                and np.array_equal(self.probs, other.probs))

    def ranking(self) -> tuple[int, ...]:
        """Indices sorted from the largest action down, under the
        productivity order with list-position tie-breaking."""
        import numpy as np

        return tuple(np.lexsort((self.costs, -self.probs)).tolist())  # stable: index breaks ties

    def extend(self, extra) -> "ActionSet":
        """Append adversarial actions, an action set or ``ActionSpec``s; the
        known prefix is unchanged."""
        import numpy as np

        if not isinstance(extra, ActionSet):
            pairs = [(a.cost, a.prob) for a in extra]
            extra = ActionSet.from_pairs(pairs) if pairs else self[:0]
        return ActionSet(np.concatenate((self.costs, extra.costs)),
                         np.concatenate((self.probs, extra.probs)), self.known_count)

    @classmethod
    def from_json(cls, obj) -> "ActionSet":
        def actions(x, name):  # the (cost, prob) numbers of each action
            return [json_action(a, f"action {i} ") for i, a in enumerate(json_list(x, name + " "))]
        return cls.from_pairs(*json_object(obj, {"actions": actions}, {"known": integral},
                                           "action-set "))


def check_known_assumptions(a0: ActionSet) -> None:
    """Validate the standing assumptions on a known action set.

    Requires a non-empty known prefix, every known action costly, and at
    least one known action with prob - cost > 0.
    """
    known = a0.known
    if not known:
        raise AssumptionError("known action set is empty")
    free = known.costs <= 0.0
    if free.any():
        a = known[int(free.argmax())]
        raise AssumptionError(f"known actions must be costly; got cost {a.cost} at prob {a.prob}")
    if not (known.probs - known.costs > 0.0).any():
        raise AssumptionError(
            "no known action generates strictly positive surplus (prob - cost > 0)"
        )


@dataclass(frozen=True)
class Contract:
    """Four non-negative wages, first index own outcome, second the other's."""

    w11: float
    w10: float
    w01: float
    w00: float

    def __post_init__(self):
        for name in ("w11", "w10", "w01", "w00"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # also rejects NaN
                raise ValueError(
                    f"{name} must be finite and >= 0 (limited liability), got {value}"
                )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w11, self.w10, self.w01, self.w00)

    def to_json(self) -> dict:
        return {"w11": self.w11, "w10": self.w10, "w01": self.w01, "w00": self.w00}

    @classmethod
    def from_json(cls, obj) -> "Contract":
        return cls(*json_object(obj, dict.fromkeys(("w11", "w10", "w01", "w00"), number),
                                what="contract "))


@dataclass(frozen=True)
class ContractClass:
    """A contract's class tag (IPE, JPE, RPE or OTHER) and whether it is affine."""

    tag: str
    affine: bool


def classify(contract: Contract) -> ContractClass:
    """Classify a contract as IPE, JPE, RPE, or OTHER, and test affinity.

    The classes are definitional, so they are decided exactly: IPE when
    w11 = w10 and w01 = w00, else JPE when w11 >= w10 and w01 >= w00, else
    RPE when w11 <= w10 and w01 <= w00.  A contract is affine when
    w = a0 + ai*yi + aj*yj with non-negative coefficients, equivalently
    w11 = w10 + w01 - w00 with w10 >= w00 and w01 >= w00, to AFFINE_TOL.
    """
    w11, w10, w01, w00 = contract.as_tuple()
    if w11 == w10 and w01 == w00:
        tag = IPE
    elif w11 >= w10 and w01 >= w00:
        tag = JPE
    elif w11 <= w10 and w01 <= w00:
        tag = RPE
    else:
        tag = OTHER
    affine = abs(w11 - (w10 + w01 - w00)) <= AFFINE_TOL and min(w10, w01) >= w00 - AFFINE_TOL
    return ContractClass(tag, affine)


def reduce_failure_wages(contract: Contract) -> Contract:
    """Zero out the smaller wage in each other's-outcome column.

    Subtracting a constant from both wages paid under the same realization of
    the other agent's outcome shifts each agent's payoff by a constant given
    the opponent's action, so the induced best responses (and equilibria) are
    unchanged while every wage weakly falls.  Idempotent.
    """
    w11, w10, w01, w00 = contract.as_tuple()
    s1 = min(w11, w01)
    s0 = min(w10, w00)
    return Contract(w11 - s1, w10 - s0, w01 - s1, w00 - s0)


def calibrate_jpe(w_star: float, a0: ActionSpec, eps: float) -> Contract:
    """Build the joint-evaluation contract calibrated to (w_star, a0).

    Sets w10 = w_star - eps and solves p0*w11 + (1 - p0)*w10 = w_star, so an
    agent who succeeds expects pay w_star conditional on the other agent
    taking a0.  Failure wages are zero and w11 > w10 by construction.
    """
    if not 0.0 < eps < w_star <= 1.0:
        raise ValueError(f"need 0 < eps < w_star <= 1, got eps={eps}, w_star={w_star}")
    if a0.prob <= 0.0:
        raise ValueError("calibration target must succeed with positive probability")
    w10 = w_star - eps
    w11 = (w_star - (1.0 - a0.prob) * w10) / a0.prob
    return Contract(w11, w10, 0.0, 0.0)


def linear_contract(alpha: float) -> Contract:
    """Contract paying each agent the share alpha of total output."""
    if alpha < 0.0:
        raise ValueError("share must be non-negative")
    return Contract(2.0 * alpha, alpha, alpha, 0.0)
