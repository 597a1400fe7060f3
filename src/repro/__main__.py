"""Command-line interface: count or sum from a shell.

Examples::

    python -m repro count "1 <= i and i < j and j <= n" --over i,j
    python -m repro count "0 <= i+j <= 90" --over i,j --backend genfunc
    python -m repro sum "1 <= i <= n" --over i --poly "i*i"
    python -m repro count "1 <= i and 3*i <= n" --over i --simplify \
        --table n=0:20
    python -m repro simplify "x >= 1 and x >= 0 and (x <= 5 or x <= 9)"
    python -m repro fuzz --seed 0 --iterations 200
    python -m repro fuzz --replay tests/corpus
    python -m repro serve --http-port 8722 --answer-cache answers.sqlite
    python -m repro loadgen --requests 200 --clients 8 --rename-mix 0.5
"""

import argparse
import sys

from repro.core import BACKENDS, Strategy, SumOptions, count, stats, sum_poly
from repro.presburger.parser import parse
from repro.presburger.simplify import simplify


def _print_stats(args) -> None:
    """After-run counter dump (guards evaluated, caches hit, ...).

    Uses :func:`repro.core.stats.engine_snapshot`, the same entry
    point the batch service embeds in every response, so the CLI and
    the service report identical counter schemas.
    """
    if not args.stats:
        return
    print("-- stats --", file=sys.stderr)
    print(stats.format_stats(stats.engine_snapshot()), file=sys.stderr)


def _parse_at(spec: str):
    """``n=12`` -> ("n", 12), with argparse-friendly errors."""
    name, eq, value = spec.partition("=")
    name = name.strip()
    if not eq or not name:
        raise argparse.ArgumentTypeError(
            "--at expects sym=value (e.g. n=10), got %r" % spec
        )
    try:
        return name, int(value.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--at value for %r must be an integer, got %r"
            % (name, value.strip())
        )


def _parse_points(spec: str):
    """``n=1,m=2`` -> {"n": 1, "m": 2}: one complete evaluation point."""
    env = {}
    for part in spec.split(","):
        name, value = _parse_at(part)
        env[name] = value
    return env


def _parse_table(spec: str):
    """``n=0:20`` or ``n=0:20:2`` -> (symbol, range)."""
    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    if not name or len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            "table spec must look like n=0:20 or n=0:20:2"
        )
    lo, hi = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
    return name, range(lo, hi + 1, step)


def _options(args) -> SumOptions:
    return SumOptions(
        strategy=Strategy(args.strategy),
        remove_redundant=not args.keep_redundant,
    )


def _over(args):
    return [v.strip() for v in args.over.split(",") if v.strip()]


def main(argv=None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Count solutions to Presburger formulas (Pugh, PLDI 1994)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_over=True):
        p.add_argument("formula", help="formula text, e.g. '1 <= i <= n'")
        p.add_argument(
            "--stats",
            action="store_true",
            help="print engine counters (sat cache, normalize, FM "
            "eliminations, ...) to stderr after the run",
        )
        if needs_over:
            p.add_argument(
                "--over",
                required=True,
                help="comma-separated variables to count/sum over",
            )
            p.add_argument(
                "--strategy",
                default="exact",
                choices=[s.value for s in Strategy],
                help="rational-bound strategy (default: exact)",
            )
            p.add_argument(
                "--keep-redundant",
                action="store_true",
                help="skip redundant-constraint elimination",
            )
            p.add_argument(
                "--backend",
                choices=list(BACKENDS),
                default=None,
                help="counting backend: the splinter recursion, the "
                "generating-function engine, or the binary automaton "
                "(genfunc/automaton fall back to the recursion outside "
                "their fragments; default: REPRO_BACKEND or recursion)",
            )
            p.add_argument(
                "--simplify",
                action="store_true",
                help="post-process: merge residues, widen guards",
            )
            p.add_argument(
                "--table",
                type=_parse_table,
                help="also print values along one symbol, e.g. n=0:20",
            )
            p.add_argument(
                "--at",
                action="append",
                default=[],
                type=_parse_at,
                metavar="sym=value",
                help="evaluate at a symbol assignment (repeatable)",
            )

    common(sub.add_parser("count", help="count integer solutions"))
    p_sum = sub.add_parser("sum", help="sum a polynomial over the solutions")
    common(p_sum)
    p_sum.add_argument(
        "--poly", required=True, help="the summand, e.g. 'i*i + 2*j'"
    )
    p_eval = sub.add_parser(
        "eval",
        help="compile the answer and evaluate it at many points",
        description="Count (or sum, with --poly) once, compile the "
        "symbolic answer with repro.evalc, and serve --points/--table "
        "through the compiled evaluator.  --no-compile falls back to "
        "the interpreted tree-walk (same values, for A/B checking).",
    )
    common(p_eval)
    p_eval.add_argument(
        "--poly", help="optional summand (evaluate a sum, not a count)"
    )
    p_eval.add_argument(
        "--points",
        action="append",
        default=[],
        type=_parse_points,
        metavar="sym=v[,sym=v]",
        help="evaluate at a complete assignment (repeatable)",
    )
    p_eval.add_argument(
        "--no-compile",
        action="store_true",
        help="escape hatch: evaluate with the interpreted fallback",
    )
    p_simp = sub.add_parser(
        "simplify", help="simplify a formula to (disjoint) DNF"
    )
    p_simp.add_argument("formula")
    p_simp.add_argument(
        "--disjoint", action="store_true", help="make the clauses disjoint"
    )
    p_simp.add_argument(
        "--stats",
        action="store_true",
        help="print engine counters to stderr after the run",
    )

    p_batch = sub.add_parser(
        "batch",
        help="answer a JSONL batch of count/sum/simplify jobs",
        description="Read one JSON request per line (file or '-' for "
        "stdin), stream one JSON response per line to stdout in input "
        "order, and print a summary to stderr.  Per-job failures "
        "(timeout, parse error, budget, worker crash) become "
        "structured error responses with exit code 0; malformed "
        "input lines also get structured responses but exit 1.",
    )
    p_batch.add_argument(
        "input", help="JSONL request file, or '-' to read stdin"
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default: 1)",
    )
    p_batch.add_argument(
        "--cache",
        default=".repro-cache.sqlite",
        help="persistent result-cache file (default: %(default)s)",
    )
    p_batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )
    p_batch.add_argument(
        "--cache-limit",
        type=int,
        default=100000,
        metavar="N",
        help="max cached results before LRU eviction (default: %(default)s)",
    )
    p_batch.add_argument(
        "--answer-cache",
        metavar="PATH",
        help="persist counting-recursion root answers to PATH (the "
        "answer memo's sqlite layer; shorthand for REPRO_ANSWER_DB, "
        "inherited by worker processes)",
    )
    p_batch.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-job wall-clock timeout (default: %(default)s; "
        "a request's own 'timeout' field wins)",
    )
    p_batch.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="per-job work budget in satisfiability calls "
        "(default: none; a request's own 'budget' field wins)",
    )
    p_batch.add_argument(
        "--summary-json",
        metavar="PATH",
        help="also write the end-of-batch summary as JSON to PATH",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived counting daemon (HTTP + JSONL)",
        description="Serve count/sum/simplify/evaluate requests from a "
        "warm process.  Answers come from the persistent results store "
        "(warm), an identical in-flight computation (coalesced), or a "
        "fresh executor job under admission control (cold).  SIGTERM "
        "or SIGINT drains in-flight work and exits 0.",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    p_serve.add_argument(
        "--http-port",
        type=int,
        default=8722,
        help="HTTP port; 0 picks a free port (default: %(default)s)",
    )
    p_serve.add_argument(
        "--jsonl-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve JSONL-over-TCP on PORT (0 picks a free port; "
        "default: HTTP only)",
    )
    p_serve.add_argument(
        "--cache",
        default=".repro-cache.sqlite",
        help="persistent result-cache file (default: %(default)s)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache (no warm tier)",
    )
    p_serve.add_argument(
        "--cache-limit",
        type=int,
        default=100000,
        metavar="N",
        help="max cached results before LRU eviction (default: %(default)s)",
    )
    p_serve.add_argument(
        "--answer-cache",
        metavar="PATH",
        help="persist counting-recursion root answers to PATH "
        "(shorthand for REPRO_ANSWER_DB, inherited by worker processes)",
    )
    p_serve.add_argument(
        "--automaton-cache",
        metavar="PATH",
        help="persist built binary automata to PATH so restarts keep "
        "resident member/count_below sets (shorthand for "
        "REPRO_AUTOMATON_DB; may be the same file as --answer-cache)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="cold-job worker slots (default: 4)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="N",
        help="max in-flight cold jobs before load-shedding (default: 64)",
    )
    p_serve.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="per-tenant cold dispatches per second (default: unlimited)",
    )
    p_serve.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="B",
        help="per-tenant token-bucket burst (default: 16)",
    )
    p_serve.add_argument(
        "--tenant-budget",
        type=int,
        default=None,
        metavar="N",
        help="ceiling on any one job's sat-call budget (default: none)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout (default: 60)",
    )
    p_serve.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="default per-job sat-call budget (default: none)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="max wait for in-flight jobs on shutdown (default: 30)",
    )

    p_loadgen = sub.add_parser(
        "loadgen",
        help="replay a request corpus against the serve daemon",
        description="Benchmark client for 'repro serve': replay a "
        "request corpus at N concurrent clients, optionally "
        "alpha-renaming a fraction of requests (same canonical hash, "
        "different variable names), and report throughput, per-tier "
        "latency percentiles, and the daemon's coalesce/hit-rate "
        "counters as JSON.  Without --url an in-process daemon is "
        "spun up and drained around the run.",
    )
    p_loadgen.add_argument(
        "--url",
        metavar="http://HOST:PORT",
        help="drive a running daemon over HTTP (default: in-process)",
    )
    p_loadgen.add_argument(
        "--corpus",
        metavar="PATH",
        help="request pool: a testkit corpus directory or a JSONL "
        "request file (default: the built-in base set)",
    )
    p_loadgen.add_argument(
        "--requests",
        type=int,
        default=64,
        metavar="N",
        help="total requests per pass (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="concurrent clients (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--rename-mix",
        type=float,
        default=0.0,
        metavar="P",
        help="fraction of requests alpha-renamed (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--passes",
        type=int,
        default=1,
        metavar="N",
        help="in-process only: replay the corpus N times against one "
        "daemon, to measure warm-tier behaviour (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--seed", type=int, default=0, help="rename-mix RNG seed"
    )
    p_loadgen.add_argument(
        "--json",
        metavar="PATH",
        help="also write the summary JSON to PATH",
    )
    p_loadgen.add_argument(
        "--assert-no-duplicates",
        action="store_true",
        help="exit 1 if any content hash was cold-computed more than "
        "once (meaningful only against a daemon with a results cache)",
    )
    p_loadgen.add_argument(
        "--cache",
        default=".repro-cache.sqlite",
        help="in-process only: result-cache file (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--no-cache",
        action="store_true",
        help="in-process only: disable the persistent result cache",
    )
    p_loadgen.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="in-process only: cold-job worker slots",
    )
    p_loadgen.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="in-process only: cold-queue limit",
    )
    p_loadgen.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="in-process only: per-job timeout",
    )
    p_loadgen.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="in-process only: per-job sat-call budget",
    )

    from repro.testkit.fuzz import add_fuzz_parser

    add_fuzz_parser(sub)

    args = parser.parse_args(argv)

    if args.command == "batch":
        from repro.service.batch import batch_main

        return batch_main(args)

    if args.command == "serve":
        from repro.serve.http import serve_main

        return serve_main(args)

    if args.command == "loadgen":
        from repro.serve.loadgen import loadgen_main

        return loadgen_main(args)

    if args.command == "fuzz":
        from repro.testkit.fuzz import fuzz_main

        return fuzz_main(args)

    if args.stats:
        stats.reset_stats()
        stats.enable_stats()

    if args.command == "simplify":
        clauses = simplify(parse(args.formula), disjoint=args.disjoint)
        if not clauses:
            print("FALSE")
        for clause in clauses:
            print(clause)
        _print_stats(args)
        return 0

    if args.command == "eval" and args.no_compile:
        from repro.evalc import set_compile_enabled

        set_compile_enabled(False)

    backend = getattr(args, "backend", None)
    if backend is not None:
        from repro.core import set_backend

        # Set the global (not just the per-call override) so --stats
        # reports the backend the run actually used.
        set_backend(backend)

    over = _over(args)
    poly = getattr(args, "poly", None)
    if poly is not None:
        result = sum_poly(args.formula, over, poly, _options(args))
    else:
        result = count(args.formula, over, _options(args))
    if args.simplify:
        result = result.simplified()
    print(result)

    if args.command == "eval":
        # as_function() closes over the compiled evaluator (or the
        # interpreted fallback under --no-compile).
        fn = result.as_function()
        for env in args.points:
            print("at %s: %s" % (env, fn(**env)))
    fixed = dict(args.at)
    if fixed:
        print("at %s: %s" % (fixed, result.evaluate(fixed)))
    if args.table:
        name, values = args.table
        for v, c in result.table(name, values, **fixed):
            print("  %s=%-6d %s" % (name, v, c))
    _print_stats(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
