"""``nest-analysis``: the library in-process, one caller, the paper's use.

Each op analyses one seeded loop nest the way a compiler pass would:
``count_iterations``, ``count_flops``, ``memory_locations_touched``,
``cache_lines_touched`` and ``count_dependences`` (write vs. first
read), each under a work budget, each answer compiled once through
``repro.evalc`` and evaluated over :data:`perfbench.nests.TABLE`.

A round analyses the run's nests (:func:`perfbench.nests.generate_round`)
from empty caches, as a fresh compiler process would; within a round the
caches persist, and the five queries of one nest share its iteration
space, so the satisfiability cache and the answer memo are hit.  The
run repeats identical rounds until its time is up, which makes the
failures of a seed repeat exactly and lets every step of an op be timed
at its best over the rounds (:func:`perfbench.common.round_metrics`).
"""

import time
from typing import Dict, List

from perfbench import common, nests

NAME = "nest-analysis"

#: Work budget per query, in satisfiability-cache misses.  Exceeding it
#: is a counted failure of the op, and it repeats exactly for a seed.
BUDGET = 20000

_ENVS = [{"N": n, "M": m} for n, m in nests.TABLE]


def _queries():
    from repro.apps import (
        cache_lines_touched,
        count_dependences,
        count_flops,
        count_iterations,
        memory_locations_touched,
    )

    return (
        ("iterations", lambda nest, refs: count_iterations(nest)),
        ("flops", lambda nest, refs: count_flops(nest)),
        ("memory", lambda nest, refs: memory_locations_touched(nest, "a")),
        (
            "cache_lines",
            lambda nest, refs: cache_lines_touched(
                nest, "a", line_size=nests.LINE_SIZE
            ),
        ),
        ("dependences", lambda nest, refs: count_dependences(nest, refs[0], refs[1])),
    )


def analyse(spec: nests.NestSpec, queries, steps=None) -> Dict[str, list]:
    """All five answers of one nest, evaluated over the table.

    ``steps`` (a :class:`perfbench.common.Steps`) is marked after
    building the nest and after each query and each evaluation.
    """
    from repro.core import stats
    from repro.evalc import compile_sum

    mark = steps.mark if steps is not None else (lambda: None)
    nest, refs = nests.build_nest(spec)
    mark()
    out = {}
    for name, query in queries:
        stats.set_work_budget(BUDGET)
        try:
            answer = query(nest, refs)
        finally:
            stats.set_work_budget(None)
        mark()
        out[name] = compile_sum(answer).many(_ENVS)
        mark()
    return out


def clear_caches() -> None:
    from repro.core.memo import clear_answer_memo
    from repro.evalc import clear_cache
    from repro.omega.satisfiability import clear_sat_cache

    clear_sat_cache()
    clear_answer_memo()
    clear_cache()


def one_round(specs, queries, tracer=None, first_op: int = 0) -> dict:
    """Analyse every spec from empty caches; one record per op."""
    clear_caches()
    records = []
    cpu0 = common.self_cpu_seconds()
    start = time.perf_counter()
    for index, spec in enumerate(specs):
        steps = common.Steps()
        t0 = time.perf_counter()
        opened = tracer.open("op", str(first_op + index)) if tracer else None
        try:
            answers = analyse(spec, queries, steps)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            answers = None
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            if tracer:
                tracer.close(opened, t0, "op")
        steps.mark()
        records.append(
            {
                "spec": spec,
                "s": time.perf_counter() - t0,
                "steps": steps,
                "answers": answers,
                "error": error,
            }
        )
    wall = time.perf_counter() - start
    return {"records": records, "wall": wall, "cpu": common.self_cpu_seconds() - cpu0}


def measure(specs, seconds: float, tracer=None) -> List[dict]:
    """Identical rounds until about ``seconds`` have been measured."""
    queries = _queries()
    rounds: List[dict] = []
    while common.more_rounds([r["wall"] for r in rounds], seconds):
        rounds.append(one_round(specs, queries, tracer, len(rounds) * len(specs)))
    return rounds


def check(rounds) -> int:
    """Answers that disagree with enumeration (outside the timed region).

    The first round is checked against the oracle; every later round
    must repeat the first round's answers exactly.
    """
    wrong = 0
    first = rounds[0]["records"]
    for record in first:
        if record["answers"] is None:
            continue
        expected = nests.oracle_table(record["spec"])
        for name in nests.QUERIES:
            if record["answers"][name] != expected[name]:
                wrong += 1
    for later in rounds[1:]:
        for a, b in zip(first, later["records"]):
            if a["answers"] != b["answers"]:
                wrong += 1
    return wrong


def memo_route_holds(spec) -> bool:
    """The query sequence of one nest hits the answer memo."""
    from repro.core import stats

    clear_caches()
    with stats.collecting_stats() as counters:
        analyse(spec, _queries())
        hits = counters["answer_memo_hits"]
    return hits > 0


#: Nests per round with ``--smoke``.
SMOKE_NESTS = 4


def setup(seed: int, smoke: bool):
    """Imports and input generation, timed ``SETUP_REPEATS`` times."""
    times = []
    specs = None
    for _ in range(common.SETUP_REPEATS):
        t0 = time.perf_counter()
        common.import_seconds(["repro.apps", "repro.evalc"])
        specs = nests.generate_round(seed)
        times.append(time.perf_counter() - t0)
    return (specs[:SMOKE_NESTS] if smoke else specs), common.median(times)


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    common.require_source()
    from repro.core import stats

    specs, setup_s = setup(seed, smoke)
    details = {"environment": common.environment(NAME, seed, 1, 0)}
    if not trace:
        rounds = measure(specs, seconds)
        metrics = common.round_metrics(rounds, lambda rec: rec["spec"].name)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = common.self_peak_rss_mb()
        routes = {"memo_hits": memo_route_holds(specs[0])}
    else:
        from perfbench.layers import compute, self_time_table
        from perfbench.trace import Tracer, install

        plain = measure(specs, seconds / 2.0)
        tracer = Tracer()
        install(tracer)
        stats.reset_stats()
        stats.enable_stats()
        rounds = measure(specs, seconds / 2.0, tracer)
        stats.disable_stats()
        ops = sum(len(r["records"]) for r in rounds)
        overhead = common.median([r["wall"] for r in rounds]) / common.median(
            [r["wall"] for r in plain]
        )
        metrics = compute(
            tracer.spans,
            ops,
            sum(r["wall"] for r in rounds),
            stats.stats_snapshot(),
            overhead_ratio=overhead,
        )
        routes = {"memo_hits": metrics["core.memo.hit_ratio"] > 0}
        details["self_ms"] = dict(self_time_table(tracer.spans))
    records = [rec for r in rounds for rec in r["records"]]
    failed = sum(1 for r in records if r["error"] is not None)
    wrong = check(rounds)
    details.update(
        {
            "ops": len(records),
            "rounds": len(rounds),
            "round_walls": [round(r["wall"], 3) for r in rounds],
            "wrong_answers": wrong,
            "error_rate": failed / len(records),
            "errors": sorted({r["error"] for r in records if r["error"]})[:5],
            "routes": routes,
        }
    )
    return {
        "details": details,
        "attempted": len(records),
        "failed": failed,
        "correct": wrong == 0 and all(routes.values()),
        "metrics": metrics,
    }
