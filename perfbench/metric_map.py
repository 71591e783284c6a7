"""Every metric the benchmark reports, its unit, and what it should move.

END_TO_END metrics come from untraced runs (--trace 0), one set per
workload.  LAYERS come from the traced run (--trace 1) and are reported
as `<workload>.<metric>` for each workload the layer runs on, except the
import breakdown, which does not depend on the workload.  The last field
of each layer line is the prediction a change to that layer is judged
against: the end-to-end metric and workload it should move, and where it
should not move.  BENCHMARK.json is `benchmark_json()` of this file.
"""

import workloads

TS, ZS, LB = "table_sweep", "zero_side", "lower_bound"
ALL = (TS, ZS, LB)

# name: (unit, better, bound, meaning)
# The three times are at the reference host speed: each child's time is
# scaled by run.CAL_REF_S over the mean wall time of the two calibration
# children around it.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25, "wall time of all the workload's steps"),
    "cpu_s": ("s", "lower", 0.25, "user + sys time of the step children (os.wait4)"),
    "peak_rss_mb": ("MB", "lower", 0.1, "largest per-child ru_maxrss among the steps"),
    "setup_s": ("s", "lower", 0.25, "fresh-interpreter `import smoothed_pnt` wall time"),
}

# (metric, unit, better, workloads it runs on or None for workload-free, what it should move)
LAYERS = [
    ("setup.import_s", "s", "lower", None,
     "setup_s and wall_s on every workload, most on zero_side and lower_bound"),
    ("setup.scipy_import_s", "s", "lower", None,
     "setup_s and wall_s on every workload, most on zero_side and lower_bound"),
    ("sieve.build_lambda.s", "s", "lower", ALL,
     "wall_s and peak_rss_mb on table_sweep and lower_bound; nothing on zero_side"),
    ("sieve.limit", "count", "lower", ALL, "largest table limit of any step (input size, not a cost)"),
    ("sieve.table_bytes", "bytes", "lower", ALL,
     "peak_rss_mb on table_sweep and lower_bound; values + prefix nbytes of the largest table"),
    ("smooth.weighted_exp_sum.calls", "count", "lower", ALL,
     "wall_s on table_sweep, and on lower_bound through pintz; little on zero_side"),
    ("smooth.weighted_exp_sum.s", "s", "lower", ALL,
     "wall_s on table_sweep, and on lower_bound through pintz; little on zero_side"),
    ("smooth.exp_terms", "count", "lower", ALL, "wall_s on table_sweep and lower_bound"),
    ("smooth.bytes_read", "bytes", "lower", ALL,
     "wall_s on table_sweep and lower_bound; 8 bytes per exp term"),
    ("smooth.gbps", "GB/s", "higher", ALL,
     "wall_s on table_sweep and lower_bound; bytes_read / weighted_exp_sum time, no roofline"),
    ("smooth.delta.calls", "count", "lower", (TS, ZS), "wall_s on table_sweep; little on zero_side"),
    ("smooth.delta.self_s", "s", "lower", (TS, ZS), "wall_s on table_sweep; little on zero_side"),
    ("smooth.sup_metric.s", "s", "lower", (TS, ZS), "wall_s on table_sweep; little on zero_side"),
    ("smooth.avg_metric.s", "s", "lower", (TS, ZS), "wall_s on table_sweep; little on zero_side"),
    ("specfun.hardy_Z.calls", "count", "lower", (ZS,), "wall_s on zero_side; nothing on table_sweep"),
    ("specfun.hardy_Z.points", "count", "lower", (ZS,), "wall_s on zero_side; nothing on table_sweep"),
    ("specfun.hardy_Z.s", "s", "lower", (ZS,), "wall_s on zero_side; nothing on table_sweep"),
    ("specfun.loggamma.calls", "count", "lower", ALL, "wall_s on zero_side; nothing on table_sweep"),
    ("specfun.loggamma.s", "s", "lower", ALL, "wall_s on zero_side; nothing on table_sweep"),
    ("zeros.find_zeros.s", "s", "lower", (ZS,), "wall_s on zero_side; nothing on table_sweep"),
    ("zeros.found", "count", "higher", (ZS,), "nothing: 649 zeros below T = 1000 (a check, not a cost)"),
    ("zeros.hardy_Z_calls_per_zero", "count", "lower", (ZS,),
     "wall_s on zero_side; nothing on table_sweep"),
    ("zeros.explicit_delta.calls", "count", "lower", (ZS,), "wall_s on zero_side; nothing on table_sweep"),
    ("zeros.explicit_delta.s", "s", "lower", (ZS,), "wall_s on zero_side; nothing on table_sweep"),
    ("metrics.metrics_row.s", "s", "lower", (TS, ZS), "wall_s on zero_side and table_sweep"),
    ("metrics.zero_sum_W.calls", "count", "lower", (TS, ZS), "wall_s on zero_side and table_sweep"),
    ("metrics.zero_sum_W.s", "s", "lower", (TS, ZS), "wall_s on zero_side and table_sweep"),
    ("pintz.U_integral.s", "s", "lower", (LB,), "wall_s on lower_bound only"),
    ("pintz.U_integral.delta_evals", "count", "lower", (LB,), "wall_s on lower_bound only"),
    ("pintz.U_residue.s", "s", "lower", (LB,), "wall_s on lower_bound only"),
    ("pintz.turan_bound.calls", "count", "lower", (LB,), "wall_s on lower_bound only"),
    ("pintz.turan_bound.s", "s", "lower", (LB,), "wall_s on lower_bound only"),
    ("goldbach.convolve_psik.s", "s", "lower", (LB,), "wall_s on lower_bound, by a small amount"),
    ("goldbach.smooth_Fk.s", "s", "lower", (LB,), "wall_s on lower_bound, by a small amount"),
    ("goldbach.contour_extract.s", "s", "lower", (LB,), "wall_s on lower_bound, by a small amount"),
    ("cli.metrics.s", "s", "lower", (TS, ZS), "wall_s of the workload: the whole metrics step"),
    ("cli.zeros.s", "s", "lower", (ZS,), "wall_s on zero_side: the whole zeros step"),
    ("cli.delta.s", "s", "lower", (ZS,), "wall_s on zero_side: the whole delta step"),
    ("cli.pintz.s", "s", "lower", (LB,), "wall_s on lower_bound: the whole pintz step"),
    ("cli.turan.s", "s", "lower", (LB,), "wall_s on lower_bound: the whole turan step"),
    ("cli.goldbach.s", "s", "lower", (LB,), "wall_s on lower_bound: the whole goldbach step"),
    ("cli._emit.s", "s", "lower", ALL, "wall_s of every workload, by a small amount"),
    ("trace.spans", "count", "lower", ALL, "nothing: the tracer's own span count"),
    ("trace.overhead_s", "s", "lower", ALL,
     "nothing: traced minus untraced wall of the steps, one sample each, so machine noise shows"),
]


def layer_metrics(workload):
    """The per-layer metric names reported for one workload (without its prefix)."""
    return [m for m, _, _, where, _ in LAYERS if where is not None and workload in where]


def _per_layer():
    """(reported name, unit, better) for every per-layer metric, in BENCHMARK.json order."""
    for metric, unit, better, where, _ in LAYERS:
        for name in ([metric] if where is None else [f"{w}.{metric}" for w in where]):
            yield name, unit, better


def per_layer_units():
    return {name: unit for name, unit, _ in _per_layer()}


def benchmark_json(run_seconds):
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": workloads.WHY[n]} for n in workloads.NAMES],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better} for n, unit, better in _per_layer()
        ],
    }
