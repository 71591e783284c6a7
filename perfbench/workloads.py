"""Workload definitions: a seed becomes a fixed sequence of CLI argv lists.

Each workload is a list of steps; each step is one `smoothed-pnt`
invocation.  The seed sets `turan --seed` and a small multiplicative
jitter on grid endpoints and on `--mu-scale`; the program only ever sees
the generated argv.  The literal "{tmp}" in an argv is replaced by the
run's scratch directory, so a table written by one step can feed the next.
"""

import random

DEFAULT_SEED = 0
JITTER = 0.02  # endpoints and mu-scale move by at most +-2 %

WHY = {
    "table_sweep": "metrics --x 10:1e6:25: the Lambda-table side (sieve to ~4.8e7, "
    "~9.7k grid Delta evaluations) does nearly all the work",
    "zero_side": "zeros --T 1000 feeding delta and metrics at x <= 1e3: zero finding "
    "and zero sums dominate, the sieve and Delta grid are small",
    "lower_bound": "pintz, turan and goldbach: scattered single-point Delta under the "
    "loose tail, the Turan scan and the convolution/contour layer",
}
NAMES = tuple(WHY)


def _jitter(rng, value):
    return float(f"{value * (1.0 + rng.uniform(-JITTER, JITTER)):.6g}")


def _grid(rng, start, stop, points):
    return f"{_jitter(rng, start)!r}:{_jitter(rng, stop)!r}:{points}"


def steps(name, seed, smoke=False):
    """The argv list of every step of workload `name` for `seed`.

    `smoke` swaps in tiny configs of the same commands (for the self-test).
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    if name == "table_sweep":
        stop = 1e3 if smoke else 1e6
        return [["metrics", "--x", _grid(rng, 10, stop, 5 if smoke else 25)]]
    if name == "zero_side":
        zeros_path = "{tmp}/zeros.txt"
        stop, points = (1e2, 5) if smoke else (1e3, 25)
        return [
            ["zeros", "--T", "100" if smoke else "1000", "--out", zeros_path],
            ["delta", "--x", _grid(rng, 10, stop, points), "--zeros", zeros_path],
            ["metrics", "--x", _grid(rng, 10, stop, points), "--zeros", zeros_path],
        ]
    mu_scale = _jitter(rng, 100.0 if smoke else 200.0)
    return [
        ["pintz", "--mu-scale", repr(mu_scale), "--k", "1", "--tol", "0.1"],
        ["turan", "--seed", str(seed), "--instances", "20" if smoke else "1000"],
        ["goldbach", "--k", "2", "--x", _grid(rng, 10, 1e2 if smoke else 1e3, 3 if smoke else 7)],
    ]


def resolve(argv, tmp):
    return [a.replace("{tmp}", tmp) for a in argv]
