"""The envelope best responses agree with the dense column argmax.

The oracle below is the dense rule the envelope replaced: build the payoff
column, keep every exact maximiser, and break ties by productivity rank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamcontracts import (
    ActionSet,
    ActionSpec,
    BestResponseCycleError,
    Contract,
    euler_adversary,
    extremal_br_path,
    induce_game,
    paired_br_limit,
    worst_case,
)
from teamcontracts.game import _best_response


def dense_best_response(game, j, largest, rank=None):
    col = game.payoff_column(j)
    ties = np.flatnonzero(col == col.max())
    if rank is None:
        rank = {idx: r for r, idx in enumerate(game.actions.ranking())}
    pick = min if largest else max
    return int(pick(ties, key=lambda t: rank[t]))


def dense_path(game, start):
    largest = start == "MAX"
    ranking = game.actions.ranking()
    rank = {idx: r for r, idx in enumerate(ranking)}
    cur = ranking[0] if largest else ranking[-1]
    path, seen = [cur], {cur}
    while True:
        nxt = dense_best_response(game, cur, largest, rank)
        if nxt == cur:
            return cur, path
        if nxt in seen:
            raise BestResponseCycleError(path + [nxt])
        path.append(nxt)
        seen.add(nxt)
        cur = nxt


def dense_paired(game):
    ranking = game.actions.ranking()
    rank = {idx: r for r, idx in enumerate(ranking)}
    a, b = ranking[0], ranking[-1]
    seen = {(a, b)}
    while True:
        nxt = (dense_best_response(game, b, True, rank),
               dense_best_response(game, a, False, rank))
        if nxt == (a, b):
            return a, b
        if nxt in seen:
            raise BestResponseCycleError([(a, b), nxt])
        seen.add(nxt)
        a, b = nxt


def outcome(fn, *args):
    """Result of fn, or the exception type and payload it raised."""
    try:
        return fn(*args)
    except BestResponseCycleError as exc:
        return ("cycle", exc.args)


def assert_best_responses_match_dense(game, columns):
    """The largest and smallest best response to each opponent action in
    ``columns`` are the dense rule's."""
    for j in columns:
        for largest in (True, False):
            assert _best_response(game, j, largest) == dense_best_response(game, j, largest)


def assert_same_dynamics(game):
    assert_best_responses_match_dense(game, range(len(game)))
    for start in ("MAX", "MIN"):
        assert outcome(extremal_br_path, game, start) == outcome(dense_path, game, start)
    assert outcome(paired_br_limit, game) == outcome(dense_paired, game)


# Dyadic values make exact payoff ties common; free floats make near-ties.
DYADIC = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
PROB = st.one_of(DYADIC, st.floats(0.0, 1.0))
COST = st.one_of(DYADIC, st.floats(0.0, 1.0))
WAGE = st.one_of(DYADIC, st.floats(0.0, 1.5))


@st.composite
def games(draw):
    base = draw(st.lists(st.tuples(COST, PROB), min_size=1, max_size=7))
    dupes = draw(st.lists(st.sampled_from(base), max_size=3))
    order = draw(st.permutations(base + dupes))
    wages = draw(st.tuples(WAGE, WAGE, st.one_of(st.just(0.0), WAGE),
                           st.one_of(st.just(0.0), WAGE)))
    return induce_game(Contract(*wages), ActionSet.from_pairs(order))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(games())
def test_small_games_match_dense_oracle(game):
    assert_same_dynamics(game)


def test_seeded_games_match_dense_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1500):
        n = int(rng.integers(1, 9))
        pairs = []
        for _ in range(n):
            if pairs and rng.random() < 0.2:
                pairs.append(pairs[int(rng.integers(len(pairs)))])
            else:
                prob = float(rng.choice([0.0, 0.5, 1.0])) if rng.random() < 0.3 else rng.uniform()
                cost = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 0.5)
                pairs.append((cost, prob))
        wages = rng.uniform(0.0, 1.0, 4)
        if rng.random() < 0.5:
            wages[2:] = 0.0
        assert_same_dynamics(induce_game(Contract(*wages), ActionSet.from_pairs(pairs)))


@pytest.mark.parametrize("w11, w10, target, n", [
    (0.60, 0.00, (0.25, 1.00), 5000),   # pooled, runs the whole chain
    (1.05, 0.00, (0.09, 0.96), 3000),   # pooled, stops inside (0, 1)
    (1.10, 0.43, (0.49, 0.96), 4000),
    (0.93, 0.05, (0.50, 0.82), 2000),   # collapses to zero
])
def test_undercut_chains_match_dense_paths(w11, w10, target, n):
    contract = Contract(w11, w10, 0.0, 0.0)
    chain = euler_adversary(contract, ActionSpec(*target), n, verify=False).actions
    game = induce_game(contract, chain)
    for start in ("MAX", "MIN"):
        assert extremal_br_path(game, start) == dense_path(game, start)
    assert outcome(paired_br_limit, game) == outcome(dense_paired, game)


def test_witness_with_known_actions_matches_dense_path():
    contract = Contract(0.6, 0.0, 0.0, 0.0)
    known = ActionSet.from_pairs([(0.25, 1.0), (0.3, 0.7), (0.25, 1.0)])
    witness = worst_case(contract, known, eps=2.5e-4).witness
    game = induce_game(contract, witness.actions)
    assert extremal_br_path(game, "MAX") == dense_path(game, "MAX")


def test_rounding_level_near_ties_match_dense_oracle():
    # Two actions whose payoffs against action 0 agree up to rounding, where
    # the envelope's and the column's arithmetic can order them differently.
    rng = np.random.default_rng(7)
    for _ in range(3000):
        w = Contract(*rng.uniform(0.0, 1.0, 4))
        q = rng.uniform()
        s = (q * w.w11 + (1 - q) * w.w10) - (q * w.w01 + (1 - q) * w.w00)
        p1, p2, c1 = rng.uniform(), rng.uniform(), rng.uniform(0.0, 0.5)
        c2 = c1 + (p2 - p1) * s
        if c2 < 0.0:
            continue
        game = induce_game(w, ActionSet.from_pairs([(0.3, q), (c1, p1), (c2, p2)]))
        assert_best_responses_match_dense(game, [0])
