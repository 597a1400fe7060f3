"""The per-layer metrics of a traced run, computed from its raw inputs.

Every traced run prints every name in :data:`PER_LAYER`, whatever the
workload; a layer the workload does not run reads 0.  Times are self
times in milliseconds per op, counts are per op, ratios are in [0, 1].
"""

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from perfbench.trace import Span, self_times

#: (metric, unit): ``<span>.ms`` / ``<span>_ms`` names are self times of
#: the span of that name; the rest are counts and ratios.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("apps.iterations.ms", "ms"),
    ("apps.flops.ms", "ms"),
    ("apps.memory.ms", "ms"),
    ("apps.cache_lines.ms", "ms"),
    ("apps.dependences.ms", "ms"),
    ("core.general.ms", "ms"),
    ("presburger.dnf.ms", "ms"),
    ("presburger.dnf.clauses", "count/op"),
    ("presburger.disjoint.ms", "ms"),
    ("presburger.disjoint.clauses", "count/op"),
    ("omega.problem.normalize_calls", "count/op"),
    ("omega.problem.normalize_iterations", "count/op"),
    ("omega.problem.normalize_memo_hit_ratio", "ratio"),
    ("omega.kernels.rows_normalized", "count/op"),
    ("omega.satisfiability.ms", "ms"),
    ("omega.satisfiability.calls", "count/op"),
    ("omega.satisfiability.cache_hit_ratio", "ratio"),
    ("omega.eliminate.ms", "ms"),
    ("omega.eliminate.fm_eliminations", "count/op"),
    ("omega.eliminate.fm_rows_reused", "count/op"),
    ("omega.eliminate.splinters", "count/op"),
    ("core.convex.ms", "ms"),
    ("core.convex.residue_cases", "count/op"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.evictions", "count/op"),
    ("evalc.compiler.compile_ms", "ms"),
    ("evalc.compiler.eval_ms", "ms"),
    ("evalc.compiler.points", "count/op"),
    ("serve.http.ms", "ms"),
    ("serve.daemon.handle_ms", "ms"),
    ("service.request.decode_ms", "ms"),
    ("service.request.hash_ms", "ms"),
    ("service.diskcache.get_ms", "ms"),
    ("service.diskcache.put_ms", "ms"),
    ("service.diskcache.hit_ratio", "ratio"),
    ("service.executor.job_ms", "ms"),
    ("service.executor.worker_ms", "ms"),
    ("service.executor.overhead_ms", "ms"),
    ("service.executor.execute_ms", "ms"),
    ("service.executor.retries", "count/op"),
    ("automaton.build_ms", "ms"),
    ("automaton.states", "count/op"),
    ("automaton.query_ms", "ms"),
    ("core.backend.fallback_ratio", "ratio"),
    ("serve.metrics.warm_hits", "count/op"),
    ("serve.metrics.artifact_hits", "count/op"),
    ("serve.metrics.automaton_hits", "count/op"),
    ("serve.metrics.cold_jobs", "count/op"),
    ("serve.metrics.coalesced", "count/op"),
    ("serve.metrics.shed", "count/op"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: Self-time metric -> span name.
SELF_TIME = {
    "apps.iterations.ms": "apps.iterations",
    "apps.flops.ms": "apps.flops",
    "apps.memory.ms": "apps.memory",
    "apps.cache_lines.ms": "apps.cache_lines",
    "apps.dependences.ms": "apps.dependences",
    "core.general.ms": "core.general",
    "presburger.dnf.ms": "presburger.dnf",
    "presburger.disjoint.ms": "presburger.disjoint",
    "omega.satisfiability.ms": "omega.satisfiability",
    "omega.eliminate.ms": "omega.eliminate",
    "core.convex.ms": "core.convex",
    "evalc.compiler.compile_ms": "evalc.compiler.compile",
    "evalc.compiler.eval_ms": "evalc.compiler.eval",
    "serve.http.ms": "serve.http",
    "serve.daemon.handle_ms": "serve.daemon.handle",
    "service.request.decode_ms": "service.request.decode",
    "service.request.hash_ms": "service.request.hash",
    "service.diskcache.get_ms": "service.diskcache.get",
    "service.diskcache.put_ms": "service.diskcache.put",
    "service.executor.overhead_ms": "service.executor.job",
    "service.executor.execute_ms": "service.executor.execute",
    "automaton.build_ms": "automaton.build",
    "automaton.query_ms": "automaton.query",
}

#: Per-op engine counters (``repro.core.stats`` names).
ENGINE_COUNTS = {
    "omega.problem.normalize_calls": "normalize_calls",
    "omega.problem.normalize_iterations": "normalize_iterations",
    "omega.kernels.rows_normalized": "kernel_rows_normalized",
    "omega.satisfiability.calls": "sat_calls",
    "omega.eliminate.fm_eliminations": "fm_eliminations",
    "omega.eliminate.fm_rows_reused": "fm_rows_reused",
    "omega.eliminate.splinters": "splinters_taken",
    "core.convex.residue_cases": "residue_cases",
    "core.memo.evictions": "answer_memo_evictions",
    "automaton.states": "automaton_states",
}

#: The daemon's serving counters reported per op.
SERVE_COUNTS = (
    "warm_hits",
    "artifact_hits",
    "automaton_hits",
    "cold_jobs",
    "coalesced",
    "shed",
)

#: Root span names: the op as the caller sees it.  ``op`` is the
#: benchmark's own loop (its self time is unattributed); ``serve.http``
#: is a request over HTTP, whose self time is the wire and front end.
ROOTS = ("op", "serve.http")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    spans: Sequence[Span],
    ops: int,
    wall_s: float,
    counters: Mapping[str, float],
    serve: Optional[Mapping[str, float]] = None,
    overhead_ratio: float = 0.0,
    retries: int = 0,
) -> Dict[str, float]:
    """Every per-layer metric from one traced phase.

    ``spans`` are all spans of the phase from every process, ``ops``
    the ops completed, ``wall_s`` the caller-side wall time (summed
    over concurrent clients), ``counters`` the engine counters the
    phase spent, ``serve`` the daemon's serving-counter deltas.
    """
    ops = max(1, ops)
    roots = {s[5]: s[3] for s in spans if s[0] in ROOTS and s[5] is not None}
    selfs = self_times(spans, roots)
    out: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for metric, span in SELF_TIME.items():
        out[metric] = selfs.get(span, 0.0) * 1000.0 / ops
    for metric, counter in ENGINE_COUNTS.items():
        out[metric] = counters.get(counter, 0) / ops

    def n_sum(name: str) -> Tuple[int, int]:
        picked = [s[6] for s in spans if s[0] == name]
        return sum(picked), len(picked)

    out["presburger.dnf.clauses"] = n_sum("presburger.dnf")[0] / ops
    out["presburger.disjoint.clauses"] = n_sum("presburger.disjoint")[0] / ops
    out["evalc.compiler.points"] = n_sum("evalc.compiler.eval")[0] / ops
    hits, gets = n_sum("service.diskcache.get")
    out["service.diskcache.hit_ratio"] = _ratio(hits, gets)

    c = counters
    out["omega.problem.normalize_memo_hit_ratio"] = _ratio(
        c.get("normalize_memo_hits", 0), c.get("normalize_calls", 0)
    )
    out["omega.satisfiability.cache_hit_ratio"] = _ratio(
        c.get("sat_cache_hits", 0), c.get("sat_calls", 0)
    )
    out["core.memo.hit_ratio"] = _ratio(
        c.get("answer_memo_hits", 0),
        c.get("answer_memo_hits", 0) + c.get("answer_memo_misses", 0),
    )
    out["core.backend.fallback_ratio"] = _ratio(
        c.get("genfunc_fallbacks", 0) + c.get("automaton_fallbacks", 0),
        c.get("genfunc_calls", 0) + c.get("automaton_calls", 0),
    )

    # Executor jobs: the job span runs in the daemon, the worker's
    # execute span in the forked child (its parent is the job span).
    jobs = {s[3]: s for s in spans if s[0] == "service.executor.job"}
    workers = [
        s for s in spans if s[0] == "service.executor.execute" and s[4] in jobs
    ]
    if jobs:
        out["service.executor.job_ms"] = (
            sum(s[2] - s[1] for s in jobs.values()) * 1000.0 / len(jobs)
        )
    if workers:
        out["service.executor.worker_ms"] = (
            sum(s[2] - s[1] for s in workers) * 1000.0 / len(workers)
        )
    out["service.executor.retries"] = retries / ops

    for name in SERVE_COUNTS:
        out["serve.metrics.%s" % name] = (serve or {}).get(name, 0) / ops

    attributed = sum(v for k, v in selfs.items() if k != "op")
    out["trace.wall_ms"] = wall_s * 1000.0 / ops
    out["trace.unattributed_ms"] = (wall_s - attributed) * 1000.0 / ops
    out["trace.attributed_share"] = _ratio(attributed, wall_s)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def self_time_table(spans: Sequence[Span]) -> List[Tuple[str, float]]:
    """(span name, total self ms), largest first, for the report."""
    roots = {s[5]: s[3] for s in spans if s[0] in ROOTS and s[5] is not None}
    selfs = self_times(spans, roots)
    return sorted(
        ((k, v * 1000.0) for k, v in selfs.items()), key=lambda kv: -kv[1]
    )
