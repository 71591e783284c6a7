#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against.

Run from the root of a smoothed-pnt checkout:  python3 perfbench/record_reference.py

Runs every workload's steps once at the default seed, through the same
Runner.step the benchmark uses, and writes each step's output (its --out
file, else its stdout) to perfbench/reference/, with index.json mapping
(workload, step) to the argv template it belongs to.  Nothing is written
unless every step passes its invariants.  Re-recording is a deliberate
re-baseline: only do it when a change is meant to alter the outputs, and
say so.
"""

import json
import sys

import checks
import run
import workloads


def main():
    runner = run.Runner(workloads.DEFAULT_SEED)
    runner.references = {}  # record afresh, compare with nothing old
    outputs = {}
    try:
        for name in workloads.NAMES:
            workdir = runner.workdir()
            for i, template in enumerate(workloads.steps(name, runner.seed)):
                outputs[name, i, template[0]] = (template, runner.step(name, i, template, workdir).text)
    finally:
        runner.close()
    if runner.failures:
        for f in runner.failures:
            print(f"step failed, nothing recorded: {f}", file=sys.stderr)
        return 1
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    index = {"seed": runner.seed, "workloads": {name: {} for name in workloads.NAMES}}
    for (name, i, command), (template, text) in outputs.items():
        fname = f"{name}.{i}.{command}.txt"
        (checks.REFERENCE_DIR / fname).write_text(text, encoding="utf-8")
        index["workloads"][name][str(i)] = {"argv": template, "file": fname}
        print(f"recorded {fname}", file=sys.stderr)
    (checks.REFERENCE_DIR / "index.json").write_text(json.dumps(index, indent=1) + "\n",
                                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
