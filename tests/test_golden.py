"""Pinned CLI outputs: one small config of each of the six commands, plus
`zeros --T 1000`, seven files in all.

The files in tests/golden/ were recorded from the per-point Delta
evaluator (one GEMV per point) that the batched engine replaced, so a
refactor proves here that it changed nothing beyond rounding.
`metrics` and `delta` sum their terms in a different order now, so
their columns must match to 1e-12 relative or `--tol`/4 absolute; the
other five files must be byte-identical.  `goldbach` was re-recorded
when the engine became the Chebyshev block-moment kernel, which rounds
its F_k and Psi at x = 100 an ulp or two differently (x = 10 and
x = 10^1.5 are unchanged).  `zeros` at T = 100 stays below
t = 200, where the zero finder's Riemann-Siegel sign scan starts;
`zeros_1000` (recorded from the Euler-Maclaurin-only scan that preceded
it) pins the zeros that scan feeds.

Re-record only as a deliberate re-baseline, and say so in CHANGES.md.
Name the commands whose files are to move; the others are left as they
are (re-recording metrics or delta moves them off the per-point
baseline in the last digits):

    PYTHONPATH=src python tests/test_golden.py pintz turan

With no names, all seven files are rewritten.
"""

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

import pytest

from smoothed_pnt import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "metrics": ["metrics", "--x", "1:1e4:7", "--tol", "1e-6", "--zeros", "builtin"],
    "delta": ["delta", "--x", "100:1e4:9", "--tol", "1e-9", "--zeros", "builtin"],
    "zeros": ["zeros", "--T", "100"],
    "zeros_1000": ["zeros", "--T", "1000"],
    "pintz": ["pintz", "--mu-scale", "20", "--k", "0.5", "--tol", "0.2", "--zeros", "builtin"],
    "turan": ["turan", "--seed", "0", "--instances", "50"],
    "goldbach": ["goldbach", "--k", "2", "--x", "10:1e2:3"],
}
REORDERED = {"metrics", "delta"}
REL = 1e-12


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, f"{argv} exited with {code}"
    return buf.getvalue()


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _close(got, want, atol):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= max(REL * abs(want), atol)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    argv = CASES[name]
    want = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    got = _run(argv)
    if name not in REORDERED:
        assert got == want
        return
    atol = float(argv[argv.index("--tol") + 1]) / 4.0
    got_rows, want_rows = _rows(got), _rows(want)
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows[1:], want_rows[1:]):
        assert g[0] == w[0]  # x is exact
        for col, a, b in zip(want_rows[0], g, w):
            assert _close(float(a), float(b), atol), f"x={w[0]} {col}: {a} vs {b}"


def record(names=()):
    """Rewrite the golden files of `names` (all of CASES when empty)."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden {', '.join(unknown)}; choose from {', '.join(CASES)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or CASES:
        (GOLDEN_DIR / f"{name}.txt").write_text(_run(CASES[name]), encoding="utf-8", newline="\n")
        print(f"wrote {name}.txt")


def test_record_writes_only_the_named_files(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    record(["turan"])
    assert [p.name for p in tmp_path.iterdir()] == ["turan.txt"]
    assert (tmp_path / "turan.txt").read_text(encoding="utf-8") == _run(CASES["turan"])


if __name__ == "__main__":
    record(sys.argv[1:])
