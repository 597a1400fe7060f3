"""Helpers shared by the workloads: paths, quantiles, CPU and memory."""

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Scratch space for stores, traces and logs (ignored by git).
OUT = os.path.join(ROOT, "perfbench", ".out")

#: Times each run sets up, so that ``setup_s`` is a median.
SETUP_REPEATS = 5

#: Fewest measured rounds in a run, however short ``--seconds`` is.
MIN_ROUNDS = 3

#: End-to-end metrics: name -> unit.  Every workload prints all of them.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, daemon did not start)."""


def require_source() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError("no program source at %s" % SRC)
    compile_source()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError("repro imported from outside the checkout")


def compile_source() -> None:
    """Byte-compile ``src`` (the program's build step; quick when done).

    Children run with ``PYTHONDONTWRITEBYTECODE``; without this, whether
    a module loads from bytecode or is compiled afresh would depend on
    what earlier runs in the checkout imported, and compiling swings the
    daemon's start time and peak memory.
    """
    import compileall

    if not compileall.compile_dir(SRC, quiet=1):
        raise BenchError("cannot byte-compile %s" % SRC)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's source only.

    ``REPRO_*`` variables are dropped so only the default configuration
    is measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def import_seconds(modules: Sequence[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules``.

    No timeout: waiting with one polls in steps of up to 50 ms, which
    would show in the figure.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=child_env(),
        cwd=ROOT,
        check=True,
    )
    return time.perf_counter() - start


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile of ``values`` (q in [0, 1]), interpolated between ranks.

    Interpolation keeps the figure from jumping between neighbouring ops
    when a change of seed reorders them.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` and the children it has reaped."""
    with open("/proc/%d/stat" % pid) as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def more_rounds(walls: Sequence[float], seconds: float) -> bool:
    """Measure another round?  At least :data:`MIN_ROUNDS`; then only
    while another round ends nearer ``seconds`` than stopping does."""
    if len(walls) < MIN_ROUNDS:
        return True
    return sum(walls) + walls[-1] / 2.0 < seconds


class Steps:
    """Wall and CPU seconds of each step of one op, in order."""

    def __init__(self):
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self._t = time.perf_counter()
        self._c = time.process_time()

    def mark(self) -> None:
        """End the current step and start the next."""
        t, c = time.perf_counter(), time.process_time()
        self.wall.append(t - self._t)
        self.cpu.append(c - self._c)
        self._t, self._c = t, c


def best_per_op(rounds: List[dict], op_key, cpu: bool = False) -> List[float]:
    """Each op's best time over the rounds that repeat it, in ms.

    A record with ``steps`` (a :class:`Steps`) counts each step at its
    best, wall or ``cpu``, and sums them: the shorter the timed unit, the
    likelier one of its repeats ran while the machine was quiet.
    Otherwise the record's latency ``s`` is one step.
    """
    samples: Dict[object, List[List[float]]] = {}
    for r in rounds:
        for rec in r["records"]:
            if "steps" in rec:
                steps = rec["steps"].cpu if cpu else rec["steps"].wall
            else:
                steps = [rec["s"]]
            samples.setdefault(op_key(rec), []).append(steps)
    return [
        1000.0 * sum(min(column) for column in zip(*repeats))
        for repeats in samples.values()
    ]


def round_metrics(rounds: List[dict], op_key, clients: int = 1) -> Dict[str, float]:
    """End-to-end timings from rounds that repeat the same ops.

    Each round is ``{"records": [{"s": latency}, ...], "wall": s,
    "cpu": s}``, and ``op_key`` names the op of a record.  On a shared
    machine the same op's time swings by tens of percent from one repeat
    to the next, and medians over a run still follow the machine's
    slower swings, while an op's best time over many repeats spread
    across the run holds within a few percent.  So each op's latency is
    its best over the rounds, as ``timeit`` reports it; the quantiles
    are taken over those, and throughput follows from them by Little's
    law for a closed loop (``clients`` callers that always have a
    request outstanding).  CPU per op is likewise each op's best when
    the records carry their own ``steps``, else the least round's.
    """
    ms = best_per_op(rounds, op_key)
    throughput = clients * 1000.0 * len(ms) / sum(ms)
    if "steps" in rounds[0]["records"][0]:
        cpu_ms = best_per_op(rounds, op_key, cpu=True)
        cpu_per_op = sum(cpu_ms) / len(cpu_ms)
    else:
        cpu_per_op = min(r["cpu"] * 1000.0 / len(r["records"]) for r in rounds)
    return {
        "throughput_ops_s": throughput,
        "latency_p50_ms": percentile(ms, 0.50),
        "latency_p90_ms": percentile(ms, 0.90),
        "cpu_ms_per_op": cpu_per_op,
    }


def environment(workload: str, seed: int, clients: int, workers: int) -> dict:
    """Where and how a result was measured."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": _commit(),
        "clients": clients,
        "workers": workers,
    }


def _commit() -> str:
    """The checked-out commit, when the checkout is a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"
