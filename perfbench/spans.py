"""In-memory spans around the calls into divbell's modules.

``instrument`` replaces the public functions the CLI reaches with wrappers
that record one span per call (name, start, end, parent) and read counts
from the arguments and results.  A wrapper passes its arguments through
and returns the wrapped function's result unchanged.  Everything else here
turns the recorded spans into self times and per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import resource
import time

# Quadrature size of the harness mollifier (order 6): each mollified node
# evaluates a 4 x 4 float64 matrix at this many points.
MOLLIFIER_QUAD_POINTS = 176
MOLLIFIED_BYTES_PER_NODE = MOLLIFIER_QUAD_POINTS * 16 * 8


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans as dicts in call order; ``parent`` is an index or None."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "counts": {}, "rss_before_mb": _maxrss_mb()}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_rise_mb"] = _maxrss_mb() - span.pop("rss_before_mb")
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a traced wrapper.

        ``count(span, args, kwargs, result)`` runs after the span closes, so
        reading counts is charged to the tracer, not to the layer.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)


# ---------------------------------------------------------------------------
# counts read at the module boundary
# ---------------------------------------------------------------------------

def _count_sample(span, args, kwargs, result):
    span["counts"]["points"] = len(result[0])


def _count_certify(span, args, kwargs, result):
    from divbell import bellman
    samples = args[3] if len(args) > 3 else kwargs.get("direction_samples", 256)
    points = len(result["tau"])
    span["counts"]["points"] = points
    span["counts"]["form_evals"] = points * len(bellman.unit_directions(samples)[0])


def _count_assemble(span, args, kwargs, result):
    span["counts"]["unknowns"] = int(result.n)


def _count_evolve(span, args, kwargs, result):
    stats = result.stats
    span["counts"]["steps"] = len(stats)
    span["counts"]["krylov_iters"] = sum(st.iterations for st in stats)
    span["counts"]["gmres_fallbacks"] = sum("gmres" in st.method for st in stats)
    span["counts"]["worst_residual"] = max((st.residual for st in stats), default=0.0)


def _count_pointwise(span, args, kwargs, result):
    ev = args[0] if args else kwargs["ev"]
    span["counts"]["space_time_nodes"] = int(ev.traj_f.values.size)
    span["counts"]["mollified_nodes"] = int(result.n_mollified)


def _count_emit(span, args, kwargs, result):
    tables = args[1] if len(args) > 1 else kwargs["tables"]
    span["counts"]["rows"] = sum(len(rows) for _, rows in tables.values())
    span["counts"]["bytes"] = sum(os.path.getsize(p) for p in result)


def instrument(tracer: Tracer) -> None:
    """Wrap each public function the CLI commands call, under every name
    the calling module binds it to."""
    from divbell import (bellman, cli, harness, operators, reports, scenario,
                         semigroup)
    tracer.wrap(bellman, "sample_certification_points", "bellman.sample", _count_sample)
    tracer.wrap(bellman, "certify_batch", "bellman.certify", _count_certify)
    for mod in (scenario, cli):
        tracer.wrap(mod, "build_scenario", "scenario.build")
    tracer.wrap(harness, "run_scenario", "harness.run_scenario")
    for mod in (operators, harness):
        tracer.wrap(mod, "assemble", "operators.assemble", _count_assemble)
    for mod in (semigroup, harness):
        tracer.wrap(mod, "evolve", "semigroup.evolve", _count_evolve)
    tracer.wrap(harness, "pointwise_check", "harness.pointwise", _count_pointwise)
    tracer.wrap(harness, "chain_rule_rhs", "harness.chain_rule")
    tracer.wrap(harness, "embedding_check", "harness.embedding")
    for mod in (reports, cli):
        tracer.wrap(mod, "emit_report", "reports.emit", _count_emit)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another, so their durations add up
    to the part of the parent's interval they cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "rss_rise_mb": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["total_s"] += s["end"] - s["start"]
        agg["self_s"] += self_s
        agg["rss_rise_mb"] += s["rss_rise_mb"]
        for k, v in s["counts"].items():
            if k == "worst_residual":
                agg["counts"][k] = max(agg["counts"].get(k, 0.0), v)
            elif k == "unknowns":
                agg["counts"][k] = max(agg["counts"].get(k, 0), v)
            else:
                agg["counts"][k] = agg["counts"].get(k, 0) + v
    return out


def layer_metrics(summary: dict[str, dict], wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    Layers no span reached read 0 calls and 0 s; the caller decides which
    of those the workload should have reached.
    """
    def get(name, key="total_s"):
        return summary.get(name, {}).get(key, 0.0)

    def cnt(name, key):
        return summary.get(name, {}).get("counts", {}).get(key, 0)

    steps = cnt("semigroup.evolve", "steps")
    top = [v["total_s"] for k, v in summary.items() if k in ("cli.command", "reports.emit")]
    moll = cnt("harness.pointwise", "mollified_nodes")
    return {
        "bellman.certify_s": get("bellman.certify"),
        "bellman.sample_s": get("bellman.sample"),
        "bellman.points": cnt("bellman.certify", "points"),
        "bellman.form_evals": cnt("bellman.certify", "form_evals"),
        "semigroup.evolve_s": get("semigroup.evolve"),
        "semigroup.evolve_calls": get("semigroup.evolve", "calls"),
        "semigroup.steps": steps,
        "semigroup.krylov_iters": cnt("semigroup.evolve", "krylov_iters"),
        "semigroup.iters_per_step": (cnt("semigroup.evolve", "krylov_iters") / steps
                                     if steps else 0.0),
        "semigroup.gmres_fallbacks": cnt("semigroup.evolve", "gmres_fallbacks"),
        "semigroup.worst_residual": cnt("semigroup.evolve", "worst_residual"),
        "operators.assemble_s": get("operators.assemble"),
        "operators.assemble_calls": get("operators.assemble", "calls"),
        "operators.unknowns_max": cnt("operators.assemble", "unknowns"),
        "scenario.build_s": get("scenario.build"),
        "harness.pointwise_s": get("harness.pointwise"),
        "harness.chain_rule_s": get("harness.chain_rule"),
        "harness.embedding_s": get("harness.embedding"),
        "harness.space_time_nodes": cnt("harness.pointwise", "space_time_nodes"),
        "harness.mollified_nodes": moll,
        "harness.mollified_bytes_computed": moll * MOLLIFIED_BYTES_PER_NODE,
        # pointwise and embedding spans never nest, so their peak-RSS rises add
        "harness.rss_rise_mb": (get("harness.pointwise", "rss_rise_mb")
                                + get("harness.embedding", "rss_rise_mb")),
        "reports.emit_s": get("reports.emit"),
        "reports.rows": cnt("reports.emit", "rows"),
        "reports.bytes": cnt("reports.emit", "bytes"),
        "cli.self_s": get("cli.command", "self_s"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(top),
    }


# Counts that must repeat exactly for a fixed seed and code.
COUNT_METRICS = (
    "bellman.points", "bellman.form_evals", "semigroup.evolve_calls",
    "semigroup.steps", "semigroup.krylov_iters", "semigroup.gmres_fallbacks",
    "operators.assemble_calls", "operators.unknowns_max",
    "harness.space_time_nodes", "harness.mollified_nodes",
    "harness.mollified_bytes_computed", "reports.rows", "reports.bytes",
)
