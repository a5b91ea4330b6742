"""Core domain types: actions, action sets, and four-wage contracts.

An action is a (cost, success probability) pair.  A contract is a quadruple
of non-negative wages w[own outcome][other's outcome] paid to each of two
identical agents.  Contracts are classified by how own pay responds to the
other agent's outcome: independent (IPE), relative (RPE), joint (JPE), or
none of the three (OTHER).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError

# Contract class tags.
IPE = "IPE"
RPE = "RPE"
JPE = "JPE"
OTHER = "OTHER"

# Tolerance for the affine decomposition w11 = w10 + w01 - w00.
AFFINE_TOL = 1e-9


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


@dataclass(frozen=True)
class ActionSet:
    """A finite ordered list of actions whose leading prefix is known.

    ``known_count`` marks how many leading actions the principal knows about;
    the remainder are adversarial additions.  The productivity order ranks
    a above a' when a succeeds with higher probability, or with equal
    probability at lower cost.  Duplicate (cost, prob) pairs are permitted;
    ties are broken by list position so the order stays total.
    """

    actions: tuple[ActionSpec, ...]
    known_count: int

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ValueError("action set must be non-empty")
        if not 0 <= self.known_count <= len(self.actions):
            raise ValueError(
                f"known_count {self.known_count} out of range for "
                f"{len(self.actions)} actions"
            )

    @classmethod
    def from_pairs(cls, pairs, known_count=None) -> "ActionSet":
        """Build from (cost, prob) pairs; by default all actions are known."""
        actions = tuple(ActionSpec(float(c), float(p)) for c, p in pairs)
        if known_count is None:
            known_count = len(actions)
        return cls(actions, known_count)

    @property
    def known(self) -> tuple[ActionSpec, ...]:
        return self.actions[: self.known_count]

    def __len__(self) -> int:
        return len(self.actions)

    def ranking(self) -> tuple[int, ...]:
        """Indices sorted from the largest action down, under the
        productivity order with list-position tie-breaking."""
        probs = np.array([a.prob for a in self.actions], dtype=float)
        costs = np.array([a.cost for a in self.actions], dtype=float)
        return tuple(np.lexsort((costs, -probs)).tolist())  # stable: index breaks ties

    @property
    def max_index(self) -> int:
        return self.ranking()[0]

    @property
    def min_index(self) -> int:
        return self.ranking()[-1]

    def extend(self, extra) -> "ActionSet":
        """Append adversarial actions; the known prefix is unchanged."""
        return ActionSet(self.actions + tuple(extra), self.known_count)

    def to_json(self) -> dict:
        return {
            "actions": [{"cost": a.cost, "prob": a.prob} for a in self.actions],
            "known": self.known_count,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ActionSet":
        extra = set(obj) - {"actions", "known"}
        if extra:
            raise ValueError(f"unknown action-set fields: {sorted(extra)}")
        if "actions" not in obj:
            raise ValueError("action-set JSON requires an 'actions' list")
        actions = []
        for entry in obj["actions"]:
            bad = set(entry) - {"cost", "prob"}
            if bad:
                raise ValueError(f"unknown action fields: {sorted(bad)}")
            actions.append(ActionSpec(float(entry["cost"]), float(entry["prob"])))
        known = int(obj.get("known", len(actions)))
        return cls(tuple(actions), known)


def check_known_assumptions(a0: ActionSet) -> None:
    """Validate the standing assumptions on a known action set.

    Requires a non-empty known prefix, every known action costly, and at
    least one known action with prob - cost > 0.
    """
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
    def from_json(cls, obj: dict) -> "Contract":
        keys = {"w11", "w10", "w01", "w00"}
        extra = set(obj) - keys
        if extra:
            raise ValueError(f"unknown contract fields: {sorted(extra)}")
        missing = keys - set(obj)
        if missing:
            raise ValueError(f"contract JSON missing fields: {sorted(missing)}")
        return cls(*(float(obj[k]) for k in ("w11", "w10", "w01", "w00")))


@dataclass(frozen=True)
class ContractClass:
    tag: str
    affine: bool
    affine_coeffs: tuple[float, float, float] | None = None


def classify(contract: Contract, tol: float = 0.0) -> ContractClass:
    """Classify a contract as IPE, RPE, JPE, or OTHER, and test affinity.

    Comparisons are exact by default because the class boundaries are
    definitional; pass ``tol`` > 0 to absorb optimizer round-off.  A contract
    is affine when w = a0 + ai*yi + aj*yj with non-negative coefficients,
    equivalently w11 = w10 + w01 - w00 with w10 >= w00 and w01 >= w00.
    """
    w11, w10, w01, w00 = contract.as_tuple()

    def eq(a, b):
        return abs(a - b) <= tol

    def gt(a, b):
        return a > b + tol

    if eq(w11, w10) and eq(w01, w00):
        tag = IPE
    elif w11 >= w10 - tol and w01 >= w00 - tol and (gt(w11, w10) or gt(w01, w00)):
        tag = JPE
    elif w11 <= w10 + tol and w01 <= w00 + tol and (gt(w10, w11) or gt(w00, w01)):
        tag = RPE
    else:
        tag = OTHER

    atol = max(tol, AFFINE_TOL)
    affine = (
        abs(w11 - (w10 + w01 - w00)) <= atol
        and w10 >= w00 - atol
        and w01 >= w00 - atol
    )
    coeffs = None
    if affine:
        coeffs = (w00, max(0.0, w10 - w00), max(0.0, w01 - w00))
    return ContractClass(tag, affine, coeffs)


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
