"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/launch.py TRACE_DIR serve --http-port 0 ...

Installs the span wrappers of :mod:`perfbench.trace` and turns the
engine counters on, then calls the normal ``python -m repro`` entry
point with the remaining arguments.  When the daemon has drained
(SIGTERM), its spans go to ``TRACE_DIR/spans-<pid>.jsonl``; forked
cold workers write their own files as their jobs finish.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def main(argv) -> int:
    trace_dir, rest = argv[0], argv[1:]
    common.require_source()
    from perfbench.trace import Tracer, install, write_spans
    from repro.__main__ import main as repro_main
    from repro.core import stats

    tracer = Tracer(trace_dir)
    install(tracer)
    stats.enable_stats()
    try:
        return repro_main(rest)
    finally:
        path = os.path.join(trace_dir, "spans-%d.jsonl" % os.getpid())
        write_spans(path, tracer.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
