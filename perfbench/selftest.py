"""Smoke-size self-test of the benchmark: python3 perfbench/run.py --self-test

Checks, in one process and about half a minute:
  * every workload's steps run and pass their output checks at tiny configs;
  * the output checker (invariants and reference comparison) accepts a
    recorded reference output, accepts it after reordering-sized
    perturbations that move delta either way and S below |delta|, rejects
    a copy with one Delta moved by more than the command's --tol, and
    rejects S clearly below |delta|;
  * the tracer leaves no module attribute bound to an unwrapped target
    and records a call made through a by-name import (goldbach calls
    `weighted_exp_sum` imported from smooth);
  * the traced run reports every per-layer metric of metric_map.py, and
    each workload reaches exactly the layers the map says it does;
  * BENCHMARK.json is what metric_map.benchmark_json() generates.
"""

import json
import math
import sys

import checks
import metric_map
import run
import tracer
import workloads


def check_references(problems):
    refs = checks.load_references()
    argv, text = refs[("table_sweep", 0)]
    builtin = run.builtin_zeros()
    for (wl, i), (ref_argv, ref_text) in sorted(refs.items()):
        found = checks.check_step(workloads.resolve(ref_argv, "."), 0, ref_text, builtin, ref_text)
        if found:
            problems.append(f"reference {wl}/{i} fails its own checks: {found}")
    tol = float(checks.option(argv, "--tol", "1e-6"))
    header, rows = checks.parse_csv(text)

    def rewritten(change):
        """The table_sweep reference with change(row) applied to every row."""
        lines = [",".join(header)]
        for row in rows:
            row = dict(row)
            change(row)
            lines.append(",".join(repr(row[h]) for h in header))
        return "\n".join(lines) + "\n"

    def delta_moved(by):  # by * x: a reordering of sums of terms adding up to ~x
        def change(row):
            row["delta"] += by * row["x"]
            row["psi"] += by * row["x"]
        return change

    # A reordered Delta sum may move delta either way and S a little below
    # |delta|; the invariants and the comparison must both admit that.
    for by in (1e-13, -1e-13):
        def worst(row, by=by):
            delta_moved(by)(row)
            row["S"] = abs(row["S"]) * (1.0 - 1e-13)
            row["omega_S"] = math.log(row["x"]) - math.log(row["S"])
        for change in (delta_moved(by), worst):
            found = checks.check_step(argv, 0, rewritten(change), builtin, text)
            if found:
                problems.append(f"checker rejects a reordering-sized ({by:+g}) change: {found[:2]}")

    def delta_far(row):
        if row["x"] == rows[-1]["x"]:
            row["delta"] += 1.5 * tol
    if not checks.compare(argv, text, rewritten(delta_far)):
        problems.append(f"checker accepts a Delta moved by 1.5 * tol = {1.5 * tol:g}")

    def s_low(row):
        row["S"] = abs(row["delta"]) * (1.0 - 1e-6)
        row["omega_S"] = math.log(row["x"]) - math.log(row["S"])
    if not checks.check_step(argv, 0, rewritten(s_low), builtin):
        problems.append("invariants accept S below |delta| by 1e-6 relative")


def check_tracer(problems):
    sys.path.insert(0, str(run.PACKAGE_DIR.parent))
    from smoothed_pnt import goldbach, sieve

    t = tracer.Tracer()
    t.install()
    for module, func, layer in tracer.TARGETS:
        wrapper = getattr(sys.modules[f"{tracer.PACKAGE}.{module}"], func)
        original = wrapper.__wrapped__
        for name, mod in list(sys.modules.items()):
            if name.startswith(tracer.PACKAGE) and any(v is original for v in vars(mod).values()):
                problems.append(f"{name} still holds the unwrapped {layer}")
    table = sieve.build_lambda(2000)
    conv = goldbach.convolve_psik(table, 2, 400)
    goldbach.smooth_Fk(conv, 10.0, tol=1e-6)
    layers = [t.layers[s[0]] for s in t.spans]
    parents = {t.layers[s[0]]: t.layers[t.spans[s[3]][0]] if s[3] >= 0 else None for s in t.spans}
    if "smooth.weighted_exp_sum" not in layers:
        problems.append("a weighted_exp_sum call through goldbach's by-name import was missed")
    elif parents["smooth.weighted_exp_sum"] != "goldbach.smooth_Fk":
        problems.append(f"weighted_exp_sum span parent is {parents['smooth.weighted_exp_sum']}")


def check_smoke_runs(problems):
    runner = run.Runner(workloads.DEFAULT_SEED, smoke=True)
    try:
        for name in workloads.NAMES:
            steps = workloads.steps(name, runner.seed, smoke=True)
            run.run_iteration(runner, name, steps, runner.calibrate())
        metrics, detail = run.run_traced(runner)
        for f in runner.failures:
            problems.append(f"smoke step failed: {f['argv']}: {f['problems']}")
        missing = [m for m in metric_map.per_layer_units() if m not in metrics]
        if missing:
            problems.append(f"per-layer metrics missing: {missing}")
        for name in workloads.NAMES:
            declared = {m.rsplit(".", 1)[0] for m in metric_map.layer_metrics(name)}
            summary = detail["layers"][name]
            targets = {layer for _, _, layer in tracer.TARGETS}
            reached = {layer for layer in targets if summary[f"{layer}.calls"] > 0}
            wrong = targets & (declared ^ reached)
            if wrong:
                problems.append(f"{name}: metric map disagrees with the trace on {sorted(wrong)}")
    finally:
        runner.close()


def check_benchmark_json(problems):
    path = run.ROOT / "BENCHMARK.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc != metric_map.benchmark_json(doc.get("run_seconds")):
        problems.append("BENCHMARK.json differs from metric_map.benchmark_json()")


def main():
    problems = []
    for check in (check_benchmark_json, check_references, check_smoke_runs, check_tracer):
        before = len(problems)
        check(problems)
        status = "ok" if len(problems) == before else "FAILED"
        print(f"self-test {check.__name__}: {status}", file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0
