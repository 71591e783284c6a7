"""Batch experiment driver.

Subcommands build the sieve tables, sweep a geometric x grid, and emit
CSV (or JSON) for plotting.  Output is deterministic: floats are printed
with repr (shortest round-trip decimal), rows are ordered by x, lines
end with LF.  JSON writes a non-finite float as null, as JSON has no
NaN or infinity.  Data goes to --out or standard output; everything
diagnostic goes to standard error.  An --out whose directory is missing
or not writable is refused before any table is sieved or zero found.

Each table is exactly as long as the certificate that reads it needs:
smooth.truncation_cutoff for metrics and delta and goldbach.fk_cutoff
(one tail bound, one search), with contour_cutoff, for goldbach,
pintz.U_window for pintz.  No flag sets a table's size.  metrics, delta
and pintz stream their table (sieve.LambdaStream); goldbach alone holds
its table whole.

Exit codes: 0 ok, 2 configuration error, 3 capacity (a certified table
past the sieve's supported range), 4 tolerance/accuracy failure.

The default zero table is the builtin one; the SMOOTHED_PNT_ZEROS
environment variable overrides it and --zeros overrides both.
"""

import argparse
import contextlib
import dataclasses
import errno
import math
import os
import sys

import numpy as np

from . import goldbach, metrics, pintz, smooth, zeros as zeros_mod
from .errors import (
    AccuracyError,
    AliasError,
    CapacityError,
    NumericsError,
    ToleranceError,
)
from .sieve import LambdaStream, build_lambda

ENV_ZEROS = "SMOOTHED_PNT_ZEROS"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_TOLERANCE = 4


class ConfigError(Exception):
    pass


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip decimal, numpy scalars included
    return str(v)


def _parse_grid(spec):
    """Geometric grid spec 'start:stop:points'."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad grid spec {spec!r}, expected start:stop:points")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid endpoints must be finite, got {spec!r}")
    if start < 1.0 or stop < start or points < 1:
        raise ConfigError("grid needs start >= 1, stop >= start, points >= 1")
    if points == 1:
        return np.array([start])
    return np.geomspace(start, stop, points)


def _load_zero_source(arg):
    source = arg or os.environ.get(ENV_ZEROS) or "builtin"
    if source == "builtin":
        return zeros_mod.builtin_zeros()
    try:
        return zeros_mod.load_zeros(source)
    except OSError as exc:
        raise ConfigError(f"cannot read zero table {source!r}: {exc.strerror}") from None


def _check_tol(args):
    if not (0.0 < args.tol < 1.0):
        raise ConfigError(f"tol must lie in (0, 1), got {args.tol}")


def _check_out(path):
    """ConfigError unless path's directory exists and is writable.

    main checks this before any command sieves a table or finds a zero;
    _writing still reports a write that fails anyway.
    """
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {path!r}: {os.strerror(errno.ENOENT)}")
    if not os.access(folder, os.W_OK):
        raise ConfigError(f"cannot write {path!r}: {os.strerror(errno.EACCES)}")


@contextlib.contextmanager
def _writing(path):
    """Report a path that cannot be written as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


def _json_value(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(rows, header, out_path, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[h]) for h in header))
        text = "\n".join(lines) + "\n"
    else:
        import json  # only --format json needs it

        rows = [{h: _json_value(v) for h, v in row.items()} for row in rows]
        text = json.dumps({"rows": rows}, separators=(",", ":"), allow_nan=False) + "\n"
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(out_path)
    else:
        sys.stdout.write(text)


def _grid_inputs(args):
    """The x grid, zero table and Lambda table that metrics and delta read.

    The engine reads the table once, in order, so it is streamed, never
    held whole.
    """
    _check_tol(args)
    xs = _parse_grid(args.x)
    zs = _load_zero_source(args.zeros)
    table = LambdaStream(smooth.truncation_cutoff(float(np.max(xs)), args.tol))
    return xs, zs, table


def _cmd_metrics(args):
    xs, zs, table = _grid_inputs(args)
    header = [f.name for f in dataclasses.fields(metrics.MetricsRow)] + ["psi_over_x"]
    rows = [
        {**dataclasses.asdict(row), "psi_over_x": row.psi / row.x}
        for row in metrics.metrics_rows(table, zs, xs, tol=args.tol)
    ]
    _emit(rows, header, args.out, args.format)
    return EXIT_OK


def _cmd_delta(args):
    xs, zs, table = _grid_inputs(args)
    header = ["x", "psi", "baseline", "delta", "explicit_delta", "residual"]
    batch = smooth.delta_many(table, xs, tol=args.tol)
    rows = []
    for x, psi, baseline, delta in zip(xs, batch.psi, batch.baseline, batch.delta):
        ed = zeros_mod.explicit_delta(x, zs, constant_mode=args.constant)
        rows.append({
            "x": float(x),
            "psi": float(psi),
            "baseline": float(baseline),
            "delta": float(delta),
            "explicit_delta": ed,
            "residual": float(delta) - ed,
        })
    _emit(rows, header, args.out, args.format)
    return EXIT_OK


def _cmd_goldbach(args):
    _check_tol(args)
    xs = _parse_grid(args.x)
    k = args.k
    if not (1 <= k <= 5):
        raise ConfigError("k must be in [1, 5]")
    conv_limit = goldbach.fk_cutoff(k, float(np.max(xs)), args.tol)
    n_check = min(100, conv_limit)  # k = 2 also checks the contour identity at N = 100
    table_limit = max(conv_limit, goldbach.contour_cutoff(n_check)) if k == 2 else conv_limit
    table = build_lambda(table_limit)
    conv = goldbach.convolve_psik(table, k, conv_limit)
    # matched truncation: the identity F_k = Psi^k holds per cutoff
    psi_conv = goldbach.convolve_psik(table, 1, conv_limit)
    header = ["x", "F_k", "psi_pow_k", "ratio_to_xk", "err_ratio"]
    fks = goldbach.smooth_Fk(conv, xs, tol=args.tol).tolist()
    psis = goldbach.smooth_Fk(psi_conv, xs, tol=args.tol).tolist()
    rows = [
        {"x": x, "F_k": fk, "psi_pow_k": psi**k, "ratio_to_xk": fk / x**k,
         "err_ratio": abs(fk - x**k) / x ** (k - k / 2.0)}
        for x, fk, psi in zip(xs.tolist(), fks, psis)
    ]
    if k == 2:
        val, imag = goldbach.contour_extract(table, n_check)
        direct = float(np.sum(goldbach.psi2_centered(table, n_check)[: n_check + 1]))
        print(
            f"contour identity check at N={n_check}: quadrature={val!r} "
            f"direct={direct!r} |imag|={imag:.2e}",
            file=sys.stderr,
        )
    _emit(rows, header, args.out, args.format)
    return EXIT_OK


def _cmd_zeros(args):
    zs = zeros_mod.find_zeros(args.T)
    expected = zeros_mod.riemann_vonmangoldt_count(args.T)
    print(
        f"found {len(zs)} zeros up to T={args.T:g}; "
        f"counting-formula main term {expected:.2f}",
        file=sys.stderr,
    )
    if args.out:
        with _writing(args.out):
            zeros_mod.save_zeros(zs, args.out)
        print(args.out)
    else:
        for g in zs.gammas:
            sys.stdout.write(f"{float(g)!r}\n")
    return EXIT_OK


def _cmd_pintz(args):
    _check_tol(args)
    if not (0.0 < args.mu_scale < math.inf):
        raise ConfigError(f"mu-scale must be positive and finite, got {args.mu_scale}")
    zs = _load_zero_source(args.zeros)
    zs.require_nonempty()
    rho0 = complex(zs.betas[0], zs.gammas[0])
    p = pintz.PintzParams(mu=math.log(args.mu_scale), k=args.k, rho0=rho0)
    table = LambdaStream(pintz.U_window(p, args.tol)[1])
    ui = pintz.U_integral(table, p, tol=args.tol)
    ur = pintz.U_residue(zs, p)
    rel = abs(ui.value - ur.value) / max(abs(ur.value), 1e-300)
    header = [
        "mu", "k", "U_integral_re", "U_integral_im", "U_integral_err",
        "U_residue_re", "U_residue_im", "U_residue_err", "rel_diff",
    ]
    rows = [{
        "mu": p.mu,
        "k": p.k,
        "U_integral_re": ui.value.real,
        "U_integral_im": ui.value.imag,
        "U_integral_err": ui.error,
        "U_residue_re": ur.value.real,
        "U_residue_im": ur.value.imag,
        "U_residue_err": ur.error,
        "rel_diff": rel,
    }]
    _emit(rows, header, args.out, args.format)
    return EXIT_OK


def _cmd_turan(args):
    if args.instances < 1:
        raise ConfigError(f"instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    instances = []
    for _ in range(args.instances):
        n = int(rng.integers(1, 9))
        alphas = np.zeros(n, dtype=complex)
        alphas[0] = 1j * rng.uniform(-10, 10)
        if n > 1:
            alphas[1:] = rng.uniform(-1, 0, n - 1) + 1j * rng.uniform(-10, 10, n - 1)
        a = rng.uniform(1, 10)
        b = rng.uniform(1, 10)
        instances.append((alphas, a, b))
    grid_max, bound = pintz.turan_bounds(instances)
    violated = np.flatnonzero(grid_max < 0.99 * bound)
    if len(violated):
        i = int(violated[0])
        raise ToleranceError(
            f"power-sum bound violated at instance {i}: "
            f"{float(grid_max[i])} < 0.99*{float(bound[i])}"
        )
    header = ["instance", "n", "a", "b", "grid_max", "bound", "ratio"]
    rows = [
        {
            "instance": i,
            "n": len(alphas),
            "a": float(a),
            "b": float(b),
            "grid_max": gmax,
            "bound": bd,
            "ratio": gmax / bd,
        }
        for i, ((alphas, a, b), gmax, bd) in enumerate(
            zip(instances, grid_max.tolist(), bound.tolist())
        )
    ]
    _emit(rows, header, args.out, args.format)
    return EXIT_OK


# Flags several subcommands take; a subcommand may override a default.
_SHARED_FLAGS = {
    "--x": dict(default="10:1e4:13", help="geometric grid start:stop:points"),
    "--zeros": dict(default=None, help="zero table path or 'builtin'"),
    "--tol": dict(type=float, default=1e-6),
    "--out": dict(default=None, help="output path (default: stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="smoothed-pnt",
        description="Smoothed prime sums, zeta-zero metrics, and Goldbach convolutions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def shared(p, *names, **defaults):
        """Add the shared flags `names`, in that order; `defaults` overrides theirs."""
        for name in names:
            spec = _SHARED_FLAGS["--" + name]
            p.add_argument("--" + name, **{**spec, "default": defaults.get(name, spec["default"])})

    p = sub.add_parser("metrics", help="S/D/W/omega metric family per grid point")
    shared(p, "x", "zeros", "tol", "out", "format")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("delta", help="smoothed sums and explicit-formula residual")
    shared(p, "x", "zeros", "tol", "out", "format")
    p.add_argument("--constant", choices=("paper", "derived"), default="derived")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("goldbach", help="F_k identity columns for one k")
    shared(p, "x", "tol", "out", "format", x="10:1e3:7")
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=_cmd_goldbach)

    p = sub.add_parser("zeros", help="locate critical-line zeros up to T")
    p.add_argument("--T", type=float, required=True)
    shared(p, "out")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("pintz", help="dual-representation check of the smoothing integral")
    p.add_argument("--mu-scale", type=float, default=200.0, help="u-scale e^mu")
    p.add_argument("--k", type=float, default=1.0)
    shared(p, "tol", "zeros", "out", "format", tol=0.1)
    p.set_defaults(func=_cmd_pintz)

    p = sub.add_parser("turan", help="seeded random verification of the power-sum bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=1000)
    shared(p, "out", "format")
    p.set_defaults(func=_cmd_turan)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ToleranceError, AccuracyError, AliasError) as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ConfigError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
