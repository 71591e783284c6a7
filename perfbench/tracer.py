"""In-process span tracer for one `smoothed-pnt` CLI step, plus span aggregation.

Run as a child:  python perfbench/tracer.py SPANS_JSON -- CLI_ARGS...

It imports the package, wraps the public functions named in TARGETS,
runs `smoothed_pnt.cli.main(CLI_ARGS)`, and writes every span (layer,
start, end, parent) and the counts taken at the same boundaries to
SPANS_JSON when the step ends.  The program itself is not modified: the
wrappers are installed from outside by rebinding module attributes.

A function imported by name into another module (`from .smooth import
weighted_exp_sum` in pintz, say) is a second reference to the same
object, so `install` rebinds every attribute of every loaded package
module that *is* the original function, not only the one in the
defining module.  Recursive calls of a traced function (loggamma
reflects through itself) pass straight through, so a layer's spans never
nest inside themselves and its time is never counted twice.

This module imports nothing outside the standard library, so the
benchmark (run.py) can import it for `summarize` without paying for numpy.
"""

import importlib
import json
import sys
import time
from collections import Counter

PACKAGE = "smoothed_pnt"

# (module, function, layer name) for every wrapped function.
TARGETS = [
    ("sieve", "build_lambda", "sieve.build_lambda"),
    ("smooth", "weighted_exp_sum", "smooth.weighted_exp_sum"),
    ("smooth", "delta", "smooth.delta"),
    ("smooth", "sup_metric", "smooth.sup_metric"),
    ("smooth", "avg_metric", "smooth.avg_metric"),
    ("specfun", "hardy_Z", "specfun.hardy_Z"),
    ("specfun", "loggamma", "specfun.loggamma"),
    ("zeros", "find_zeros", "zeros.find_zeros"),
    ("zeros", "explicit_delta", "zeros.explicit_delta"),
    ("metrics", "metrics_row", "metrics.metrics_row"),
    ("metrics", "zero_sum_W", "metrics.zero_sum_W"),
    ("pintz", "U_integral", "pintz.U_integral"),
    ("pintz", "U_residue", "pintz.U_residue"),
    ("pintz", "turan_bound", "pintz.turan_bound"),
    ("goldbach", "convolve_psik", "goldbach.convolve_psik"),
    ("goldbach", "smooth_Fk", "goldbach.smooth_Fk"),
    ("goldbach", "contour_extract", "goldbach.contour_extract"),
    ("cli", "_emit", "cli._emit"),
] + [("cli", f"_cmd_{c}", f"cli.{c}") for c in ("metrics", "delta", "zeros", "pintz", "turan", "goldbach")]


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


# Counts recorded at a layer boundary: (args, kwargs, result) -> dict.
COUNTERS = {
    "sieve.build_lambda": lambda a, k, r: {
        "limit": r.limit,
        "bytes": r.values.nbytes + r.prefix.nbytes,
    },
    "smooth.weighted_exp_sum": lambda a, k, r: {"terms": len(_first_arg(a, k, "coeffs"))},
    "specfun.hardy_Z": lambda a, k, r: {"points": getattr(_first_arg(a, k, "t"), "size", 1)},
    "zeros.find_zeros": lambda a, k, r: {"found": len(r)},
}


class Tracer:
    """Spans and counts kept in memory; `to_json` hands them over once, at exit."""

    def __init__(self):
        self.layers = []
        self.spans = []  # [layer index, start, end, parent span index or -1]
        self.counts = {}  # span index -> dict of counts
        self._stack = []
        self._active = set()
        self.rebinds = Counter()

    def wrap(self, fn, layer):
        layer_idx = len(self.layers)
        self.layers.append(layer)
        counter = COUNTERS.get(layer)
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if layer_idx in active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [layer_idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            active.add(layer_idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active.discard(layer_idx)
            if counter is not None:
                counts[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target and rebind each module attribute that refers to it."""
        for module, _, _ in targets:
            importlib.import_module(f"{PACKAGE}.{module}")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module, func, layer in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            wrapper = self.wrap(original, layer)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self.rebinds[layer] += 1

    def to_json(self, **extra):
        return {"layers": self.layers, "spans": self.spans,
                "counts": {str(i): c for i, c in self.counts.items()}, **extra}


def summarize(docs):
    """Per-layer metrics from the span documents of one workload's steps.

    Returns a flat dict: `<layer>.calls`, `<layer>.s`, `<layer>.self_s`
    for every target layer, plus the derived counts.  Self time is span
    time minus the time covered by its direct child spans.
    """
    layers = [layer for _, _, layer in TARGETS]
    calls, total, self_s = Counter(), Counter(), Counter()
    for layer in layers:
        calls[layer] = 0
    limit = table_bytes = terms = points = found = 0
    hz_in_find = wes_in_uint = n_spans = 0
    for doc in docs:
        names = doc["layers"]
        spans = doc["spans"]
        counts = {int(i): c for i, c in doc["counts"].items()}
        n_spans += len(spans)
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start

        def under(idx, layer):
            parent = spans[idx][3]
            while parent >= 0:
                if names[spans[parent][0]] == layer:
                    return True
                parent = spans[parent][3]
            return False

        for i, (li, start, end, _) in enumerate(spans):
            layer = names[li]
            calls[layer] += 1
            total[layer] += end - start
            self_s[layer] += end - start - covered[i]
            c = counts.get(i, {})
            if layer == "sieve.build_lambda":
                limit = max(limit, c["limit"])
                table_bytes = max(table_bytes, c["bytes"])
            elif layer == "smooth.weighted_exp_sum":
                terms += c["terms"]
                wes_in_uint += under(i, "pintz.U_integral")
            elif layer == "specfun.hardy_Z":
                points += c["points"]
                hz_in_find += under(i, "zeros.find_zeros")
            elif layer == "zeros.find_zeros":
                found += c["found"]
    out = {}
    for layer in layers:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = total[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    wes_s = total["smooth.weighted_exp_sum"]
    out.update({
        "sieve.limit": limit,
        "sieve.table_bytes": table_bytes,
        "smooth.exp_terms": terms,
        "smooth.bytes_read": 8 * terms,
        "smooth.gbps": 8 * terms / wes_s / 1e9 if wes_s > 0 else 0.0,
        "specfun.hardy_Z.points": points,
        "zeros.found": found,
        "zeros.hardy_Z_calls_per_zero": hz_in_find / found if found else 0.0,
        "pintz.U_integral.delta_evals": wes_in_uint,
        "trace.spans": n_spans,
    })
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    from smoothed_pnt import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(rebinds=dict(tracer.rebinds)), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
