"""Spans around the public functions of coopgrid's layers, from outside the program.

A Tracer replaces a public function by a timing wrapper under every name a
module of the package binds it to (`from .lp import solve_lp` in
centralized.py binds its own `solve_lp`), so callers inside the program hit
the wrapper without any change to src/.  Each call becomes one span: name,
start, end, parent span and operation id.  Spans stay in memory and are
written out once, when the run ends.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans (calls are nested and single-threaded,
so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("scenario", "graph", "lp", "centralized", "selfish", "codes",
          "allocation", "cli")


def _lp_counts(args, kwargs, sol):
    lp = args[0] if args else kwargs["lp"]
    return {"pivots": int(sol.iterations), "vars": int(lp.n_vars),
            "rows": int(lp.a_ub.shape[0] + lp.a_eq.shape[0])}


def _codes_counts(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged),
            "j_est": np.asarray(result.trace.j_est),
            "imbalance": np.asarray(result.trace.max_imbalance_kw)}


def _consensus_counts(args, kwargs, state):
    return {"rounds": int(state.iteration)}


def _write_counts(args, kwargs, _):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


# (span name, module, attribute, counter function).  These are the public
# entry points each layer offers to the layer above it on the user path.
TARGETS = (
    ("scenario.load_scenario", "coopgrid.scenario", "load_scenario", None),
    ("scenario.scenario_digest", "coopgrid.scenario", "scenario_digest", None),
    ("graph.metropolis_weights", "coopgrid.graph", "metropolis_weights", None),
    ("graph.run_consensus", "coopgrid.graph", "run_consensus", _consensus_counts),
    ("lp.solve_lp", "coopgrid.lp", "solve_lp", _lp_counts),
    ("centralized.solve_social", "coopgrid.centralized", "solve_social", None),
    ("centralized.build_social_lp", "coopgrid.centralized", "build_social_lp", None),
    ("selfish.disagreement_point", "coopgrid.selfish", "disagreement_point", None),
    ("codes.run_codes", "coopgrid.codes", "run_codes", _codes_counts),
    ("allocation.allocate_centralized", "coopgrid.allocation", "allocate_centralized", None),
    ("allocation.allocate_distributed", "coopgrid.allocation", "allocate_distributed", None),
    ("cli.main", "coopgrid.cli", "main", None),
    ("cli.write_atomic", "coopgrid.cli", "write_atomic", _write_counts),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None       # id of the benchmark operation running now
        self._stack: list[int] = []

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "op": self.op}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every target under each name a loaded coopgrid module binds it to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "coopgrid" or n.startswith("coopgrid."))]
        for name, module, attr, counts in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: Path) -> None:
        keep = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([{k: s[k] for k in keep} for s in self.spans]))


def _ancestors(spans, span):
    while span["parent"] is not None:
        span = spans[span["parent"]]
        yield span


def layer_metrics(spans: list[dict], oracle_j: dict[int, float]) -> dict[str, float]:
    """Per-layer counters and self times from a finished run's spans.

    oracle_j maps an operation id to the reference optimum of the day its
    codes run worked on; it defines the contract iteration (first iteration
    within 0.5 % of the optimum with imbalance at most 1e-3 kW).
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[k]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    by_name: dict[str, list[int]] = {}
    for k, s in enumerate(spans):
        out[s["name"].split(".")[0] + ".self_s"] += dur[k] - child[k]
        by_name.setdefault(s["name"], []).append(k)

    def total(name):
        return sum(dur[k] for k in by_name.get(name, ()))

    lp = [spans[k] for k in by_name.get("lp.solve_lp", ())]
    out["lp.calls"] = len(lp)
    out["lp.pivots"] = sum(s["pivots"] for s in lp)
    out["lp.solve_s"] = total("lp.solve_lp")
    out["lp.us_per_pivot"] = 1e6 * out["lp.solve_s"] / max(out["lp.pivots"], 1)
    out["lp.vars"] = max((s["vars"] for s in lp), default=0)
    out["lp.rows"] = max((s["rows"] for s in lp), default=0)
    out["centralized.build_s"] = total("centralized.build_social_lp")
    out["centralized.solve_s"] = total("centralized.solve_social")
    out["selfish.solve_s"] = total("selfish.disagreement_point")
    out["selfish.lp_calls"] = sum(
        1 for s in lp if any(a["name"].startswith("selfish.") for a in _ancestors(spans, s)))

    runs = [spans[k] for k in by_name.get("codes.run_codes", ())]
    out["codes.iterations"] = sum(s["iterations"] for s in runs)
    out["codes.us_per_iter"] = 1e6 * total("codes.run_codes") / max(out["codes.iterations"], 1)
    contract, used = 0, 0
    for s in runs:
        j = oracle_j.get(s["op"])
        if j is None:
            continue
        ok = (np.abs(s["j_est"] - j) <= 0.005 * abs(j)) & (s["imbalance"] <= 1e-3)
        if ok.any():
            contract += int(np.argmax(ok)) + 1
            used += s["iterations"]
    out["codes.contract_iter"] = contract
    out["codes.useful_iter_ratio"] = contract / used if used else 0.0
    out["codes.converged_runs"] = sum(1 for s in runs if s["converged"])

    out["graph.weights_s"] = total("graph.metropolis_weights")
    out["graph.consensus_s"] = total("graph.run_consensus")
    out["graph.consensus_rounds"] = sum(spans[k]["rounds"]
                                        for k in by_name.get("graph.run_consensus", ()))
    out["scenario.load_s"] = total("scenario.load_scenario")
    out["scenario.loads"] = len(by_name.get("scenario.load_scenario", ()))
    writes = [spans[k] for k in by_name.get("cli.write_atomic", ())]
    out["cli.write_s"] = total("cli.write_atomic")
    out["cli.bytes_written"] = sum(s["bytes"] for s in writes)
    out["cli.files_written"] = len(writes)
    return out


# unit of each per-layer metric, in the order BENCHMARK.json lists them
UNITS = {
    "lp.calls": "count", "lp.pivots": "count", "lp.solve_s": "s",
    "lp.us_per_pivot": "us", "lp.vars": "count", "lp.rows": "count",
    "centralized.build_s": "s", "centralized.solve_s": "s",
    "selfish.solve_s": "s", "selfish.lp_calls": "count",
    "codes.iterations": "count", "codes.us_per_iter": "us",
    "codes.contract_iter": "count", "codes.useful_iter_ratio": "ratio",
    "codes.converged_runs": "count",
    "graph.weights_s": "s", "graph.consensus_s": "s", "graph.consensus_rounds": "count",
    "scenario.load_s": "s", "scenario.loads": "count",
    "cli.write_s": "s", "cli.bytes_written": "bytes", "cli.files_written": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
