"""Seeded fuzzing of every verb's input (property-based testing after
MacIver, Hatfield-Dodds et al., "Hypothesis: a new approach to
property-based testing", JOSS 2019).

Each verb's valid document is mutated: fields dropped, added and retyped;
numbers made huge, tiny, negative or integral floats, integers past the
float range or past int()'s digit limit; lists of up to five entries; and
values nested deeply.  Whatever the document, a call exits 0, 2 or 3 and
raises nothing; a refusal writes exactly one ``error:`` line and no file,
and a success writes strict JSON.  ``selftest`` reads no input.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teamcontracts.cli import main

ACTIONS = {"actions": [{"cost": 0.25, "prob": 1.0}, {"cost": 0.1, "prob": 0.5}], "known": 1}
CONTRACT = {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0}
VERBS = {  # verb: a valid document, and flags that keep the call cheap
    "evaluate": ({"contract": CONTRACT, "actions": ACTIONS}, ["--eps", "1e-2"]),
    "adversary": ({"contract": CONTRACT, "actions": ACTIONS}, ["--n", "10"]),
    "optimize": (ACTIONS, ["--grid-step", "0.1"]),
    "discriminate": (ACTIONS, ["--grid-step", "0.1"]),
    "sweep": ({"p_grid": [0.8, 1.0], "c_grid": [0.2, 0.9]}, ["--grid-step", "0.1"]),
    "bayes": ({"mu": 0.9, "p0": 1.0, "c0": 0.25, "p_star": 0.5, "w0": 0.2}, []),
    "multi": ({"n": 3, "w0": 0.4, "b": 0.1, "actions": ACTIONS}, []),
    "asym": ({"contract": CONTRACT, "a0": {"cost": 0.25, "prob": 1.0}}, []),
}


class Raw(str):
    """JSON text written as it is: an integer too long for ``json.dumps``,
    or a value nested deeper than this module's recursion could write."""


def encode(value) -> str:
    """The JSON text of ``value``, which may hold ``Raw`` text, NaN and
    infinities (written as Python's json writes them)."""
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(encode, value)) + "]"
    return json.dumps(value)


NAMES = st.sampled_from(sorted({k for doc, _ in VERBS.values() for k in doc}
                               | set(ACTIONS) | set(CONTRACT) | {"cost", "prob", "note"}))
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -3.0, 0.5, 5e-324, 1e-300, 1e-12,
                     1e16, 1e308, -1e308, math.inf, -math.inf, math.nan,
                     0, 1, 2, -1, 2**53 + 1, 10**309, -10**309, 10**400]),
    st.sampled_from([4300, 5000]).map(lambda digits: Raw("9" * digits)),
    st.floats(),
    st.integers(-5, 5),
)
SCALARS = st.one_of(NUMBERS, st.none(), st.booleans(), st.text(max_size=3))
ANY = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=5)
                   | st.dictionaries(NAMES, kids, max_size=3), max_leaves=8)


def nodes(value, path=()):
    """The path of every value within ``value``, its own first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from nodes(item, path + (key,))


def numbers(value, draw):
    """``value`` with about half its numbers redrawn."""
    if isinstance(value, dict):
        return {k: numbers(v, draw) for k, v in value.items()}
    if isinstance(value, list):
        return [numbers(v, draw) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool) and draw(st.booleans()):
        return draw(NUMBERS)
    return value


@st.composite
def mutated(draw, doc):
    """``doc`` after up to three mutations, each at a drawn place: its
    numbers redrawn, a value retyped, a field dropped or added, a list
    resized to up to five entries, or a value nested in lists."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(nodes(doc))))
        parent, key, node = None, None, doc
        for key in path:
            parent, node = node, node[key]
        op = draw(st.sampled_from(["numbers", "retype", "drop", "add", "resize", "nest"]))
        if op == "numbers":
            node = numbers(node, draw)
        elif op == "retype":
            node = draw(ANY)
        elif op == "drop" and path:
            del parent[key]
            continue
        elif op == "add" and isinstance(node, dict):
            node[draw(NAMES | st.text(max_size=3))] = draw(ANY)
        elif op == "resize" and isinstance(node, list) and node:
            node = [copy.deepcopy(node[i % len(node)]) for i in range(draw(st.integers(0, 5)))]
        elif op == "nest":
            depth = draw(st.sampled_from([1, 2, 50, 900, 5000]))
            node = Raw("[" * depth + encode(node) + "]" * depth)
        if path:
            parent[key] = node
        else:
            doc = node
    return doc


def strict(text: str):
    """``json.loads`` refusing NaN and infinities, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_any_document_exits_0_2_or_3_with_one_line_or_json(verb, data):
    doc, flags = VERBS[verb]
    text = encode(data.draw(mutated(doc), label="document"))
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp, "in.json"), Path(tmp, "out.json")
        inp.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([verb, "--input", str(inp), "--output", str(out), *flags])
        assert code in (0, 2, 3)
        assert stdout.getvalue() == ""
        if code == 0:
            assert stderr.getvalue() == ""
            strict(out.read_text())
        else:
            assert re.fullmatch(r"error: [^\n]*\n", stderr.getvalue()), stderr.getvalue()[:300]
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["in.json"]
