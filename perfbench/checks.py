"""Output checks for every benchmarked step.

Two gates, both counted as a failed step when they trip:

* invariants, on every seed: properties each command's output must have
  whatever its configuration (row counts, omega_V = log x - log V,
  S >= |delta| and D <= S up to rounding, the delta residual constant,
  649 zeros below T = 1000, rel_diff <= tol, F_k = Psi^k, Turan
  ratio >= 0.99);
* reference outputs, for any step whose argv matches one recorded at
  the benchmark's default seed.  The tolerance admits summation
  reordering (~1e-13 relative) and rejects drift beyond what the
  command certifies (`--tol`, or brentq's xtol for zero heights).
"""

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# zeta'/zeta(-1) - 1/12: the limit of x * (Delta(x) - explicit_delta(x)),
# the residue at s = -1 that explicit_delta leaves out.
RESIDUAL_LIMIT = 1.9017198
# exact zero counts N(T) for the heights the workloads use
ZERO_COUNTS = {100.0: 29, 1000.0: 649}
FK_REL = 1e-11  # F_k = Psi^k holds to ~1e-12 relative at desk scale
RATIO_MIN = 0.99  # the Turan verifier's contract
REL = 1e-12  # reordering slack relative to the value itself
ZERO_ATOL = 2e-10  # two brentq refinements, each within xtol = 1e-10


def option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _grid_points(argv):
    return int(option(argv, "--x").split(":")[2])


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty output")
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, map(float, r))) for r in body]


def zero_lines(text):
    """The zero-table file: comment lines kept as text, the rest as floats."""
    return [ln if ln.startswith("#") else float(ln) for ln in text.splitlines()]


def _check_metrics(argv, text, problems):
    rows = parse_csv(text)[1]
    if len(rows) != _grid_points(argv):
        problems.append(f"{len(rows)} rows, expected {_grid_points(argv)}")
    for r in rows:
        x = r["x"]
        for col, v in (("omega_S", "S"), ("omega_D", "D"), ("omega_W", "W")):
            want = math.log(x) - math.log(r[v])
            if not abs(r[col] - want) <= 1e-12 * max(1.0, abs(want)):
                problems.append(f"x={x!r}: {col}={r[col]!r} != log x - log {v} = {want!r}")
        # S, D and delta may come from differently ordered sums of terms
        # that add up to about x, so each holds up to that rounding.  Even
        # one build is not bit-reproducible: two runs of table_sweep at
        # seed 0 gave deltas 2.3e-10 apart at x = 1e6.
        slack = REL * x
        if not r["S"] >= abs(r["delta"]) - slack:
            problems.append(f"x={x!r}: S={r['S']!r} < |delta|={abs(r['delta'])!r}")
        if not r["D"] <= r["S"] + slack:
            problems.append(f"x={x!r}: D={r['D']!r} > S={r['S']!r}")


def _check_delta(argv, text, problems):
    rows = parse_csv(text)[1]
    if len(rows) != _grid_points(argv):
        problems.append(f"{len(rows)} rows, expected {_grid_points(argv)}")
    for r in rows:
        x, scaled = r["x"], r["x"] * r["residual"]
        slack = 0.3 if x < 100.0 else 0.05
        if not abs(scaled - RESIDUAL_LIMIT) <= slack:
            problems.append(f"x={x!r}: x*residual={scaled!r} not within {slack} of {RESIDUAL_LIMIT}")


def _check_zeros(argv, text, problems, builtin):
    gammas = [v for v in zero_lines(text) if not isinstance(v, str)]
    T = float(option(argv, "--T"))
    want = ZERO_COUNTS.get(T)
    if want is not None and len(gammas) != want:
        problems.append(f"{len(gammas)} zeros below T={T:g}, expected {want}")
    if not all(b > a for a, b in zip(gammas, gammas[1:])):
        problems.append("zero heights not strictly ascending")
    for i, (got, ref) in enumerate(zip(gammas, builtin)):
        if not abs(got - ref) <= ZERO_ATOL:
            problems.append(f"zero {i + 1}: {got!r} differs from builtin {ref!r}")
            break
    top = min(T, builtin[-1])
    if sum(g <= top for g in gammas) != sum(g <= top for g in builtin):
        problems.append(f"zero count below {top:g} differs from the builtin table")


def _check_pintz(argv, text, problems):
    rows = parse_csv(text)[1]
    tol = float(option(argv, "--tol", "0.1"))
    if len(rows) != 1:
        problems.append(f"{len(rows)} rows, expected 1")
    for r in rows:
        if not r["rel_diff"] <= tol:
            problems.append(f"rel_diff={r['rel_diff']!r} > tol={tol}")


def _check_goldbach(argv, text, problems):
    rows = parse_csv(text)[1]
    if len(rows) != _grid_points(argv):
        problems.append(f"{len(rows)} rows, expected {_grid_points(argv)}")
    for r in rows:
        rel = abs(r["F_k"] - r["psi_pow_k"]) / abs(r["psi_pow_k"])
        if not rel <= FK_REL:
            problems.append(f"x={r['x']!r}: |F_k - Psi^k|/Psi^k = {rel:.2e} > {FK_REL}")


def _check_turan(argv, text, problems):
    rows = parse_csv(text)[1]
    n = int(option(argv, "--instances", "1000"))
    if len(rows) != n:
        problems.append(f"{len(rows)} rows, expected {n}")
    low = [r for r in rows if not r["ratio"] >= RATIO_MIN]
    if low:
        problems.append(f"{len(low)} instances with ratio < {RATIO_MIN}")


CHECKS = {
    "metrics": _check_metrics,
    "delta": _check_delta,
    "pintz": _check_pintz,
    "goldbach": _check_goldbach,
    "turan": _check_turan,
}


def tolerance(argv):
    """(relative, absolute) slack for comparing one command's output with its reference."""
    cmd = argv[0]
    if cmd == "zeros":
        return 0.0, ZERO_ATOL
    if cmd == "turan":
        return 1e-9, 0.0  # the golden-section refinement of the grid maximum
    if cmd == "pintz":
        return 1e-9, 0.0  # far inside the certified tol = 0.1 relative
    return REL, float(option(argv, "--tol", "1e-6")) / 4.0


def compare(argv, ref_text, text):
    """Problems found comparing `text` with the reference output for the same argv."""
    rel, atol = tolerance(argv)
    if argv[0] == "zeros":
        got, ref = zero_lines(text), zero_lines(ref_text)
        pairs = [(None, a, b) for a, b in zip(got, ref)]
    else:
        ref_header, ref_rows = parse_csv(ref_text)
        header, rows = parse_csv(text)
        if header != ref_header:
            return [f"header {header} differs from reference {ref_header}"]
        got, ref = rows, ref_rows
        pairs = [(k, r[k], q[k]) for r, q in zip(rows, ref_rows) for k in header]
    if len(got) != len(ref):
        return [f"{len(got)} rows, reference has {len(ref)}"]
    for col, a, b in pairs:
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return [f"line {a!r} differs from reference {b!r}"]
            continue
        if not abs(a - b) <= max(rel * max(abs(a), abs(b)), atol):
            where = f"{col} " if col else ""
            return [f"{where}{a!r} differs from reference {b!r} by {abs(a - b):.3g}"]
    return []


def load_references():
    """{(workload, step index): (argv template, reference text)}."""
    index_path = REFERENCE_DIR / "index.json"
    if not index_path.exists():
        return {}
    index = json.loads(index_path.read_text(encoding="utf-8"))
    return {
        (wl, int(i)): (entry["argv"], (REFERENCE_DIR / entry["file"]).read_text(encoding="utf-8"))
        for wl, steps in index["workloads"].items()
        for i, entry in steps.items()
    }


def check_step(argv, code, text, builtin, reference=None):
    """Every problem with one step's result; an empty list means it passed.

    `text` is the step's output (its --out file when it has one, else its
    stdout); `reference` is the recorded output for the same argv, if any.
    """
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    try:
        if argv[0] == "zeros":
            _check_zeros(argv, text, problems, builtin)
        else:
            CHECKS[argv[0]](argv, text, problems)
        if reference is not None:
            problems += compare(argv, reference, text)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return problems
