#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `smoothed-pnt` CLI.

Run from the root of a smoothed-pnt source checkout:

    python3 perfbench/run.py --workload table_sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0                # every workload
    python3 perfbench/run.py --self-test                            # smoke-size checks

Each workload is a fixed sequence of CLI steps (see workloads.py).  One
parent process runs them one at a time, each step a fresh child
(`python -m smoothed_pnt.cli ...`, one BLAS thread), so interpreter
start, import and sieve are paid on every step as a user pays them.
Every step's output is checked (checks.py); a nonzero exit, a timeout
or a failed check counts the step as failed.

--trace 0 repeats the workload for about --seconds (at least three
passes, no pass started that would end after --seconds) and reports
the medians over passes of:
  wall_s       wall time of all the workload's steps
  cpu_s        user + sys time of those children, from os.wait4 on each pid
  peak_rss_mb  largest per-child ru_maxrss among the steps
  setup_s      wall time of a fresh `python -c "import smoothed_pnt"`,
               one child in each pass, each checked to import the
               package from this checkout
The three times are given at a fixed reference host speed.  A shared
host's speed drifts by tens of percent over seconds to minutes, so a
calibration child (fixed work of the benchmark's own: interpreter start,
numpy import, a bytecode loop and a numpy array pass) runs between
every two children of a pass and at its ends, and each probe or step
time is scaled by CAL_REF_S / (the mean wall time of the two
calibration children around it).  The detail line before the result
holds the unscaled times too.

--trace 1 runs every workload's steps once untraced and once traced
(tracer.py wraps the package's public functions from outside) and
reports the per-layer metrics of metric_map.py; the traced-minus-
untraced wall time is `<workload>.trace.overhead_s`.  It covers all
workloads whatever --workload says, so each per-layer metric is named
by the workload it was measured on and none reads 0 for a layer that
workload never reaches.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it record the
environment and per-iteration detail.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import checks
import metric_map
import tracer
import workloads

ROOT = Path.cwd()
PACKAGE_DIR = ROOT / "src" / "smoothed_pnt"
TMP_ROOT = ROOT / ".perfbench_tmp"
TRACER = Path(tracer.__file__).resolve()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 3
CAL_REF_S = 0.5  # the calibration child's wall time at the reference host speed
CALIBRATION = """\
import numpy as np
s = 0
for i in range(1500000):
    s += i * i % 7
a = np.arange(4000000, dtype=float)
for _ in range(5):
    np.exp(-a / 4e6).sum()
"""
IMPORTTIME_CHILDREN = 3
RUN_BUDGET_S = 170.0  # every run ends well inside three minutes
IMPORT_PROBE = "import smoothed_pnt, sys; sys.stdout.write(smoothed_pnt.__file__)"


class SetupFailure(Exception):
    pass


class Child(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool


class Step(NamedTuple):
    child: Child
    text: str  # the step's output (its --out file, else stdout); "" if it failed
    spans: dict | None  # the tracer's document for a traced step


def run_child(cmd, env, out_path, err_path, timeout):
    """Run one child to completion and read its own rusage with os.wait4."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        timed_out=timed_out.is_set(),
    )


def child_env():
    """The caller's environment with the checkout's src first and one BLAS thread."""
    env = dict(os.environ)
    src = str(PACKAGE_DIR.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: with two on a two-core box each Lambda-table GEMV waits
    # for the busier core.  On a shared 2-vCPU VM that widened the run-to-run
    # spread of table_sweep wall time from ~6 % to ~20 % of the median.
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    env.pop("SMOOTHED_PNT_ZEROS", None)  # steps without --zeros use the builtin table
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run from cached bytecode
    return env


def builtin_zeros():
    """The package's builtin zero heights, read from the checkout."""
    text = (PACKAGE_DIR / "data" / "zeros_rh_100.txt").read_text(encoding="utf-8")
    return [v for v in checks.zero_lines(text) if not isinstance(v, str)]


def spread(values):
    """[q1, median, q3] of the values, as statistics.quantiles gives them."""
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


class Runner:
    """One benchmark run: a scratch directory, a deadline, and the step results."""

    def __init__(self, seed, budget=RUN_BUDGET_S, smoke=False):
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.perf_counter() + budget
        self.env = child_env()
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
        self.builtin = builtin_zeros()
        self.references = {} if smoke else checks.load_references()
        self.attempted = 0
        self.failures = []
        self._serial = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    def remaining(self):
        return self.deadline - time.perf_counter()

    def child(self, cmd, timeout=None):
        """Run a child; returns (Child, stdout path, stderr path)."""
        self._serial += 1
        out = self.tmp / f"{self._serial}.out"
        err = self.tmp / f"{self._serial}.err"
        budget = max(1.0, self.remaining())
        res = run_child(cmd, self.env, out, err, min(timeout or budget, budget))
        return res, out, err

    def probe_import(self):
        """One fresh child that imports the package; fails unless it comes from this checkout."""
        res, out, err = self.child([sys.executable, "-c", IMPORT_PROBE], timeout=60)
        where = Path(out.read_text(encoding="utf-8") or ".").resolve()
        if res.code != 0 or where.parent != PACKAGE_DIR.resolve():
            raise SetupFailure(
                f"children import smoothed_pnt from {where} (exit {res.code}), "
                f"not from {PACKAGE_DIR}:\n{err.read_text(encoding='utf-8', errors='replace')}"
            )
        return res.wall

    def import_breakdown(self, n=IMPORTTIME_CHILDREN):
        """(package import s, scipy import s), medians from `python -X importtime`."""
        self.probe_import()
        totals, scipy = [], []
        for _ in range(n):
            res, _, err = self.child(
                [sys.executable, "-X", "importtime", "-c", "import smoothed_pnt"], timeout=60)
            if res.code != 0:
                raise SetupFailure(err.read_text(encoding="utf-8", errors="replace"))
            total, sci = parse_importtime(err.read_text(encoding="utf-8"))
            totals.append(total)
            scipy.append(sci)
        return statistics.median(totals), statistics.median(scipy)

    def calibrate(self):
        """Wall time of one calibration child: a measure of the host's speed just now."""
        res, out, err = self.child([sys.executable, "-c", CALIBRATION], timeout=60)
        if res.code != 0:
            raise SetupFailure("calibration child failed:\n"
                               + err.read_text(encoding="utf-8", errors="replace"))
        return res.wall

    def workdir(self):
        """A fresh directory for one pass over a workload's steps ("{tmp}" in argv)."""
        self._serial += 1
        path = self.tmp / f"pass{self._serial}"
        path.mkdir()
        return path

    def step(self, workload, index, template, workdir, traced=False):
        """Run one step (fresh child) and check its output."""
        argv = workloads.resolve(template, str(workdir))
        spans = workdir / f"spans{index}.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "smoothed_pnt.cli", *argv]
        res, out, err = self.child(cmd)
        self.attempted += 1
        text_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else out
        ref_argv, ref_text = self.references.get((workload, index), (None, None))
        reference = ref_text if ref_argv == template else None
        text = ""
        if res.timed_out:
            problems = ["timed out"]
        elif res.code == 0 and not text_path.exists():
            problems = [f"no output at {text_path}"]
        else:
            text = text_path.read_text(encoding="utf-8") if res.code == 0 else ""
            problems = checks.check_step(argv, res.code, text, self.builtin, reference)
        if problems:
            stderr_tail = err.read_text(encoding="utf-8", errors="replace")[-400:]
            self.failures.append({"workload": workload, "argv": template, "traced": traced,
                                  "problems": problems[:5], "stderr": stderr_tail})
        out.unlink()
        err.unlink()
        doc = None
        if traced and res.code == 0 and spans.exists():
            doc = json.loads(spans.read_text(encoding="utf-8"))
        return Step(res, text, doc)


def parse_importtime(stderr):
    """Cumulative seconds of the top-level `smoothed_pnt` import and total scipy self time."""
    total = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the column header
        name = fields[2].strip()
        if name == "smoothed_pnt":
            total = cum_us / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy += self_us / 1e6
    return total, scipy


def run_iteration(runner, name, steps, before):
    """One untraced pass in a fresh directory: a setup probe, then the steps.

    `before` is the wall time of the calibration child just run.  Another
    follows the probe and each step; each probe or step time is scaled by
    CAL_REF_S over the mean of the two calibrations around it (see the
    module docstring).  Returns the pass's metrics, with the sums also
    unscaled as raw_*, and the last calibration, which the next pass
    starts from.
    """
    workdir = runner.workdir()
    calibration = [before]
    setup = runner.probe_import()
    calibration.append(runner.calibrate())
    results = []
    for index, template in enumerate(steps):
        results.append(runner.step(name, index, template, workdir).child)
        calibration.append(runner.calibrate())
    shutil.rmtree(workdir, ignore_errors=True)
    # scale[0] is the probe's, scale[1 + i] step i's
    scale = [2 * CAL_REF_S / (a + b) for a, b in zip(calibration, calibration[1:])]
    return calibration[-1], {
        "wall_s": sum(r.wall * k for r, k in zip(results, scale[1:])),
        "cpu_s": sum(r.cpu * k for r, k in zip(results, scale[1:])),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "setup_s": setup * scale[0],
        "calibration_s": statistics.mean(calibration),
        "raw_wall_s": sum(r.wall for r in results),
        "raw_cpu_s": sum(r.cpu for r in results),
        "raw_setup_s": setup,
    }


def run_end_to_end(runner, name, seconds):
    """Passes for `seconds` (at least MIN_ITERATIONS); the medians over passes.

    Each pass holds one setup probe, so the probes are spread over the run
    and a slow stretch of a shared host weighs on setup_s no more than on
    the other metrics.
    """
    steps = workloads.steps(name, runner.seed, smoke=runner.smoke)
    start = time.perf_counter()
    iterations, longest = [], 0.0
    calibration = runner.calibrate()
    while True:
        if iterations and runner.remaining() < 1.5 * longest + 5.0:
            break  # another pass would overrun the run's time budget
        if len(iterations) >= MIN_ITERATIONS and time.perf_counter() - start + longest > seconds:
            break  # another pass would not end within --seconds
        began = time.perf_counter()
        calibration, metrics = run_iteration(runner, name, steps, calibration)
        iterations.append(metrics)
        longest = max(longest, time.perf_counter() - began)
    samples = {key: [it[key] for it in iterations] for key in iterations[0]}
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    detail = {"workload": name, "argv": steps, "iterations": len(iterations),
              "quartiles": {k: spread(v) for k, v in samples.items()}, "samples": samples}
    return metrics, detail


def run_traced(runner):
    """Per-layer metrics: every workload untraced then traced, plus the import breakdown."""
    import_s, scipy_s = runner.import_breakdown()
    metrics = {"setup.import_s": import_s, "setup.scipy_import_s": scipy_s}
    detail = {"table_bytes": {}, "rebinds": None, "layers": {}}
    for name in workloads.NAMES:
        steps = workloads.steps(name, runner.seed, smoke=runner.smoke)
        # each step untraced then traced, so drift in machine speed between
        # the two passes stays out of the overhead as far as it can
        plain_dir, traced_dir = runner.workdir(), runner.workdir()
        plain = traced = 0.0
        docs = []
        for index, template in enumerate(steps):
            plain += runner.step(name, index, template, plain_dir).child.wall
            step = runner.step(name, index, template, traced_dir, traced=True)
            traced += step.child.wall
            if step.spans is not None:
                docs.append(step.spans)
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
        if docs:
            detail["rebinds"] = docs[0]["rebinds"]
        layer = tracer.summarize(docs)
        layer["trace.overhead_s"] = traced - plain
        detail["table_bytes"][name] = layer["sieve.table_bytes"]
        detail["layers"][name] = layer
        for metric in metric_map.layer_metrics(name):
            metrics[f"{name}.{metric}"] = layer[metric]
    return metrics, detail


def environment(seed):
    """Versions, core and BLAS thread counts, CPU and cache sizes, commit and seed."""
    env = child_env()
    cpu = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env={**os.environ, "LC_ALL": "C"}).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
                cpu[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        cpu["Model name"] = platform.processor() or "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def result_line(runner, metrics, units):
    return json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="smoke-size self-test, then exit")
    args = ap.parse_args(argv)

    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: no {PACKAGE_DIR.relative_to(ROOT)}/cli.py here; run from the root "
              "of a smoothed-pnt checkout", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()

    signal.signal(signal.SIGTERM, _terminate)  # unwind: kill the running child, remove scratch
    several = args.workload == "all" and not args.trace
    runner = Runner(args.seed, budget=RUN_BUDGET_S * (len(workloads.NAMES) if several else 1))
    try:
        print(json.dumps({"env": environment(args.seed)}), flush=True)
        if args.trace:
            metrics, detail = run_traced(runner)
            units = metric_map.per_layer_units()
        elif several:
            metrics, detail, units = {}, [], {}
            for name in workloads.NAMES:
                attempted, failed = runner.attempted, len(runner.failures)
                m, d = run_end_to_end(runner, name, args.seconds)
                detail.append(d)
                failed_frac = (len(runner.failures) - failed) / (runner.attempted - attempted)
                print(f"{name:12s} {'failed_frac':12s} {failed_frac:12.6g} 1    "
                      f"of {runner.attempted - attempted} steps")
                for key, (unit, *_rest) in metric_map.END_TO_END.items():
                    print(f"{name:12s} {key:12s} {m[key]:12.6g} {unit:3s}  "
                          f"q1..q3 {d['quartiles'][key][0]:.6g}..{d['quartiles'][key][2]:.6g}  "
                          f"n={len(d['samples'][key])}")
                    metrics[f"{name}.{key}"] = m[key]
                    units[f"{name}.{key}"] = unit
        else:
            metrics, detail = run_end_to_end(runner, args.workload, args.seconds)
            units = {key: unit for key, (unit, *_rest) in metric_map.END_TO_END.items()}
        failed_frac = len(runner.failures) / max(runner.attempted, 1)
        print(json.dumps({"detail": detail, "failed_frac": failed_frac,
                          "failures": runner.failures[:10]}))
        print(result_line(runner, metrics, units))
    except SetupFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
