"""Layer spans recorded from outside the library.

`Tracer.install()` replaces the public functions of each dcmwalk layer with
wrappers that record a span (name, start, end, parent, run id) and a few
counters read from the call's result. The wrappers are bound
into every `dcmwalk` module namespace that refers to the original function,
so calls made inside the library (for example `run_exponent_sweep` calling
`sample_dcm`) are recorded too. Spans stay in memory until `write_jsonl` is
called at the end of the run; an untraced run never constructs a Tracer and
pays nothing.

A layer's time is its self time: the span's duration minus the durations of
its direct child spans, summed over every span of that layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Layer name -> public functions, as (module, attribute). Every wrapped
# function belongs to exactly one layer.
LAYER_FUNCTIONS = {
    "degrees.realize": [("dcmwalk.degrees", "realize_sequence")],
    "degrees.validate": [("dcmwalk.degrees", "validate_sequence")],
    "graph.sample": [("dcmwalk.graph", "sample_dcm")],
    "graph.scc": [("dcmwalk.graph", "sccs"), ("dcmwalk.graph", "attractive_scc")],
    "walks.stationary": [("dcmwalk.walks", "stationary_distribution")],
    "walks.hitting_exact": [
        ("dcmwalk.walks", "walk_times_exact"),
        ("dcmwalk.walks", "return_times_exact"),
        ("dcmwalk.walks", "return_time_exact"),
        ("dcmwalk.walks", "hitting_times_exact"),
    ],
    "walks.cover_mc": [("dcmwalk.walks", "cover_time_mc")],
    "walks.hitting_mc": [("dcmwalk.walks", "hitting_time_mc")],
    "gwsim.tail_cell": [("dcmwalk.gwsim", "subcritical_tail_experiment")],
    "ratefn.params": [
        ("dcmwalk.harness", "run_params"),
        ("dcmwalk.harness", "analyze_distribution"),
        ("dcmwalk.branching", "compute_bp_parameters"),
        ("dcmwalk.ratefn", "minimize_phi"),
        ("dcmwalk.gwsim", "tail_rate_theory"),
    ],
    "harness.sweep": [("dcmwalk.harness", "run_exponent_sweep")],
}

# Generations of the tail-ladder cells; each has a gwsim.tail_cell_s.t<t> metric.
TAIL_TS = (10, 20, 30)

# Counts that must repeat exactly across runs of the same code and seed.
EXACT_COUNTS = (
    "graph.scc_calls",
    "walks.power_iters",
    "walks.hitting_solves",
    "gwsim.successes",
    "graph.array_bytes",
)


def _graph_bytes(g) -> int:
    return sum(v.nbytes for v in vars(g).values() if hasattr(v, "nbytes"))


class Tracer:
    """In-memory span recorder for one run (one worker process)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS, in every loaded dcmwalk
        module that refers to it. Call after `import dcmwalk`."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "dcmwalk" or name.startswith("dcmwalk."))
        ]
        for layer, targets in LAYER_FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(layer, attr, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, layer: str, attr: str, fn):
        observe = getattr(self, f"_observe_{attr}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "run": self.run_id,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": layer,
                "fn": attr,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(span, result)
            return result

        return wrapper

    # Counters, read from the results of the public calls.

    def _observe_sccs(self, span, result):
        self.counts["graph.scc_calls"] += 1

    def _observe_sample_dcm(self, span, result):
        size = _graph_bytes(result)
        self.counts["graph.array_bytes"] = max(self.counts["graph.array_bytes"], size)

    def _observe_stationary_distribution(self, span, result):
        self.counts["walks.power_iters"] += result.iterations
        span["xcheck"] = result.cross_check_linf is not None

    def _observe_walk_times_exact(self, span, result):
        self.counts["walks.hitting_solves"] += len(result.targets)

    def _observe_return_times_exact(self, span, result):
        self.counts["walks.hitting_solves"] += len(result)

    def _observe_hitting_times_exact(self, span, result):
        self.counts["walks.hitting_solves"] += 1

    def _observe_cover_time_mc(self, span, result):
        self.counts["walks.walkers"] += result.reps
        self.counts["walks.censored"] += result.censored

    _observe_hitting_time_mc = _observe_cover_time_mc

    def _observe_subcritical_tail_experiment(self, span, result):
        span["t"] = result.t
        self.counts["gwsim.successes"] += result.successes
        self.counts["gwsim.reps"] += result.reps

    def self_times(self) -> list[float]:
        """Self time of each span, indexed like `spans`."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs an
        untraced run to compare against."""
        own = self.self_times()
        by_layer: dict[str, float] = defaultdict(float)
        xcheck = 0.0
        tail: dict[int, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            by_layer[s["name"]] += t
            if s.get("xcheck"):
                xcheck += t
            if "t" in s:
                tail[s["t"]] += t
        c = self.counts
        out = {
            "degrees.realize_s": by_layer["degrees.realize"],
            "degrees.validate_s": by_layer["degrees.validate"],
            "graph.sample_s": by_layer["graph.sample"],
            "graph.array_bytes": int(c["graph.array_bytes"]),
            "graph.scc_s": by_layer["graph.scc"],
            "graph.scc_calls": int(c["graph.scc_calls"]),
            "walks.stationary_s": by_layer["walks.stationary"],
            "walks.power_iters": int(c["walks.power_iters"]),
            "walks.stationary_xcheck_s": xcheck,
            "walks.hitting_exact_s": by_layer["walks.hitting_exact"],
            "walks.hitting_solves": int(c["walks.hitting_solves"]),
            "walks.cover_mc_s": by_layer["walks.cover_mc"],
            "walks.hitting_mc_s": by_layer["walks.hitting_mc"],
            "walks.censored_frac": (
                c["walks.censored"] / c["walks.walkers"] if c["walks.walkers"] else 0.0
            ),
            "gwsim.successes": int(c["gwsim.successes"]),
            "gwsim.success_frac": (
                c["gwsim.successes"] / c["gwsim.reps"] if c["gwsim.reps"] else 0.0
            ),
            "ratefn.params_s": by_layer["ratefn.params"],
            "harness.self_s": by_layer["harness.sweep"],
        }
        for t in TAIL_TS:
            out[f"gwsim.tail_cell_s.t{t}"] = tail[t]
        return out

    def write_jsonl(self, path) -> None:
        """Write one JSON line per span, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**span, "self": own}) + "\n")
