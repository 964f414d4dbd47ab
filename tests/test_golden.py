"""The pinned outputs of `tests/golden.py`, compared leaf by leaf.

Every non-float leaf must be equal: statuses, flag names and their order,
the discrepancy list, descriptors, notes, counts and the number of minima.
Floats must agree within a bound stated per kind of value, so that the test
passes on every numpy version and runner CPU that CI uses; `golden.py
--check` is the exact byte comparison on one platform.

- A scan minimum (time, deviation) is fixed only as far as its golden-section
  refinement fixes it: where the deviation is smooth at its minimum, rounding
  flattens the bottom, so the time moves by about 1e-8 where one rounding unit
  of a probe takes the search the other way.  Times get TIME_BOUND relative
  (to 1 below |t| = 1) and their deviations MINIMUM_BOUND absolute.
- Every other float gets FLOAT_BOUND relative, to 1 below magnitude 1.

The ensemble pins (`ensemble_*`) are compared byte for byte: the sampler and
its reductions run in a fixed order with no BLAS, and their output is
promised bit for bit on every platform.
"""

import json
import math
import re

import pytest

from tests.golden import CASES, GOLDEN, leaves, moved, render

TIME_BOUND = 1e-7
MINIMUM_BOUND = 1e-9
FLOAT_BOUND = 1e-12
BOUNDS = {"time": (TIME_BOUND, True), "minimum": (MINIMUM_BOUND, False),
          "float": (FLOAT_BOUND, True)}
# a float as json and repr print it; integers stay in the surrounding text
FLOAT = re.compile(r"(-?(?:\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf)|nan)")


def _close(got: float, want: float, kind: str) -> bool:
    bound, relative = BOUNDS[kind]
    if not math.isfinite(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= bound * (max(1.0, abs(want)) if relative else 1.0)


def assert_leaves_match(got, want) -> None:
    """Equal structure and non-float leaves; floats within the bound of their
    kind (`golden.leaves`)."""
    for where, kind, g, w in leaves(got, want):
        if isinstance(w, float):
            assert isinstance(g, float) and _close(g, w, kind), (where, g, w)
        else:
            assert type(g) is type(w) and g == w, (where, g, w)


def assert_text_matches(got: str, want: str, scan: bool = False) -> None:
    """The CSV and table formats line by line: equal text between the floats,
    and the floats within their bounds.  A line listing minima, [(t, d), ...],
    and every line of a `scan` (its `t,deviation` rows and `t  deviation`
    columns) alternates time and deviation; a scan's spacing may differ, since
    a time's printed width moves its right-aligned column."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for number, (g, w) in enumerate(zip(got_lines, want_lines)):
        g_parts, w_parts = FLOAT.split(g), FLOAT.split(w)
        g_text, w_text = g_parts[0::2], w_parts[0::2]  # the text between floats
        if scan:
            g_text, w_text = [t.split() for t in g_text], [t.split() for t in w_text]
        assert g_text == w_text, (number, g, w)
        kinds = ("time", "minimum") if scan or "[(" in w else ("float",)
        floats = zip(g_parts[1::2], w_parts[1::2])
        for i, (a, b) in enumerate(floats):
            assert _close(float(a), float(b), kinds[i % len(kinds)]), (number, a, b)


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_the_pinned_files(name):
    got = render(CASES[name]).decode("utf-8")
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.startswith("ensemble_"):
        assert got == want
    elif name.endswith(".json"):
        assert_leaves_match(json.loads(got), json.loads(want))
    else:
        assert_text_matches(got, want, scan=name.startswith("scan_"))


def test_the_comparison_refuses_a_moved_leaf():
    doc = {"flags": {"a": {"status": "pass", "measured": 0.25}},
           "minima": [{"t": 1.5, "deviation": 1e-12}], "times": [[2.0, 0.5]]}
    assert_leaves_match(json.loads(json.dumps(doc)), doc)
    moved = [{"flags": {"a": {"status": "fail", "measured": 0.25}}},
             {"flags": {"a": {"status": "pass", "measured": 0.25 + 1e-11}}},
             {"minima": [{"t": 1.5 + 1e-6, "deviation": 1e-12}]},
             {"times": [[2.0, 0.5 + 1e-8]]},
             {"times": [[2.0, 0.5], [3.0, 0.5]]}]
    for change in moved:
        with pytest.raises(AssertionError):
            assert_leaves_match({**doc, **change}, doc)
    # within the bounds
    assert_leaves_match({**doc, "minima": [{"t": 1.5 + 1e-8, "deviation": 2e-12}]}, doc)
    line = "PASS  complete K_4  uniform_instant  [(0.7853981715735275, 4.9e-16)]\n"
    assert_text_matches(line.replace("0.7853981715735275", "0.78539817"), line)
    for bad in (line.replace("PASS", "FAIL"), line.replace("4.9e-16", "4.9e-8"),
                line.replace("K_4", "K_5")):
        with pytest.raises(AssertionError):
            assert_text_matches(bad, line)
    # a scan's CSV row and table line: times to TIME_BOUND, deviations to MINIMUM_BOUND
    for row, near, far in (("0.9573055322147699,4.9e-16", "0.95730554,2e-15", "0.957306,4.9e-16"),
                           ("    0.957305532215  4.9e-16", "     0.95730554  2e-15",
                            "    0.957305532215  4.9e-08")):
        assert_text_matches(near, row, scan=True)
        with pytest.raises(AssertionError):  # FLOAT_BOUND refuses the moved time
            assert_text_matches(near, row)
        with pytest.raises(AssertionError):
            assert_text_matches(far, row, scan=True)


def test_check_lists_each_moved_leaf():
    want = {"n": 3, "p": [0.25, 1.0], "minima": [[1.5, 0.5]]}
    got = {"n": 4, "p": [0.25, 1.0000000000000002], "minima": [[1.5, 0.5]]}
    assert moved("x.json", json.dumps(got).encode(), json.dumps(want).encode()) == [
        "  $.n: 3 -> 4", "  $.p[1]: 1.0 -> 1.0000000000000002  (2.2e-16 relative)"]
    assert moved("x.json", b'{"a": [1]}', b'{"a": [1, 2]}') == ["  $.a: [1, 2] -> [1]"]
    assert moved("x.txt", b"PASS\nK_4 0.5\n", b"PASS\nK_4 0.25\n") == [
        "  line 2: 'K_4 0.25' -> 'K_4 0.5'"]
