"""``serve-cold`` and ``serve-warm``: the daemon over HTTP keep-alive.

The daemon is ``python -m repro serve`` in its default configuration
apart from ``--workers`` (see :data:`CLIENTS`) and a fresh store under
``perfbench/.out``.  One generator process drives it closed-loop from
:data:`CLIENTS` threads, each on its own keep-alive connection, each
sending its next request when the previous reply is in.

* ``serve-cold``: every request has a distinct content hash, so every
  one is computed by a fresh executor job (or, for member/count_below,
  an in-daemon automaton build).
* ``serve-warm``: the store is prefilled during set-up; the measured
  requests are alpha-renamed repeats (store hits), evaluate requests
  with fresh points (artifact tier: evalc plus a store write) and
  member/count_below requests with fresh points and bounds against
  resident automata.

Every request carries a work budget and a timeout.  Count and sum
requests carry symbol values drawn by the seed as evaluation points,
and those values are checked against the brute-force oracle of
``repro.testkit.oracle`` after the measured phase.
"""

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from typing import Dict, List, Optional

from perfbench import common

#: Per-request work budget (satisfiability-cache misses) and timeout.
BUDGET = 20000
TIMEOUT_S = 30.0

#: Requests per warm round.  A cold round sends the run's requests
#: (:data:`COLD_MIX`) to a fresh daemon and store; warm rounds fill the
#: same slots with fresh requests against one prefilled daemon.
WARM_ROUND = 200

#: Requests per round (cold and warm) with ``--smoke``.
SMOKE_ROUND = 12

#: Warm requests generated per measured second (more than are used).
WARM_PER_SECOND = 600

#: serve-warm base pool: count/sum jobs repeated under new names,
#: evaluate formulas, and member/count_below formulas.
WARM_REPEATS = 24
WARM_VARIANTS = 6
WARM_EVALUATE = 8
WARM_AUTOMATA = 8

_FORKED_KINDS = ("count", "sum", "simplify", "evaluate")
_IN_DAEMON_KINDS = ("member", "count_below")


#: Closed-loop clients, and daemon workers, of both serve workloads.
#: With two, a cold worker (in ``serve-cold`` or the warm prefill) now
#: and then hung until its timeout, and a timed-out worker's SIGTERM
#: reaches the daemon's own signal handler through the wakeup fd it
#: inherited, so the whole daemon drains (see README.md).  A second
#: client also made the warm figures follow every change in the
#: machine's other load.
CLIENTS = 1


# -- inputs -------------------------------------------------------------------


def _box_point(rng, over) -> Dict[str, int]:
    return {v: rng.randint(-9, 9) for v in over}


#: One cold round, by class: (kind, backend, several clauses) -> count.
#: A formula whose disjunctive normal form has several clauses is
#: disjointified, which costs a forked worker far more than the rest;
#: fixing the classes (from ``cold_cases.json``, see
#: ``perfbench/classify_cases.py``) makes every seed's round cost about
#: the same.
COLD_MIX = {
    ("count", None, False): 8,
    ("count", None, True): 8,
    ("count", "genfunc", False): 2,
    ("count", "genfunc", True): 2,
    ("count", "automaton", False): 2,
    ("count", "automaton", True): 2,
    ("sum", None, False): 4,
    ("sum", None, True): 4,
    ("simplify", None, False): 4,
    ("simplify", None, True): 4,
    ("member", None, False): 2,
    ("member", None, True): 2,
    ("count_below", None, False): 2,
    ("count_below", None, True): 2,
}
COLD_ROUND = sum(COLD_MIX.values())

#: Seed of the fixed order of a cold round's requests.
COLD_ORDER = 12

#: Seed of the fixed slot layout of a warm round.
WARM_LAYOUT = 12


#: Most satisfiability calls a case's count may cost: the engine work
#: per cold job (and per warm prefill job) stays small, and its heavy
#: tail stays out.
COLD_MAX_WORK = 100


def _case_pool():
    """(case seed, several clauses, has symbols, has poly) per case."""
    from perfbench.classify_cases import HAS_POLY, HAS_SYMBOLS, PATH, SEVERAL_CLAUSES

    with open(PATH) as fh:
        cases = json.load(fh)["cases"]
    return [
        (seed, bool(f & SEVERAL_CLAUSES), bool(f & HAS_SYMBOLS), bool(f & HAS_POLY))
        for seed, f, work in cases
        if work <= COLD_MAX_WORK
    ]


def _symbol_points(rng, case) -> List[Dict[str, int]]:
    """As many distinct symbol assignments as the case has, drawn by
    ``rng`` from the range the case's own come from."""
    from repro.testkit.generate import SYMBOL_MAX, SYMBOL_MIN

    envs = {
        tuple((s, rng.randint(SYMBOL_MIN, SYMBOL_MAX)) for s in case.symbols)
        for _ in case.envs
    }
    return [dict(env) for env in sorted(envs)]


def _eligible(cls, symbols: bool, poly: bool) -> bool:
    kind = cls[0]
    if kind in _IN_DAEMON_KINDS:
        return not symbols
    if kind == "sum":
        return poly
    return True


def cold_requests(seed: int) -> List[dict]:
    """One round of requests with distinct content hashes, from ``seed``.

    The formulas and their order are the same for every seed: the first
    cases of the table that fit each class of :data:`COLD_MIX`, in a
    fixed shuffle, because a cold job's cost depends on its formula and
    on what the fresh daemon ran before it far more than on anything
    else.  The seed draws the evaluation points of count and sum jobs
    and the points and bounds of member and count_below jobs.
    """
    from repro.service.request import JobRequest
    from repro.testkit.generate import formula_to_text, generate_case

    rng = random.Random(seed)
    pool = _case_pool()
    used = set()
    out = []
    for cls, count in sorted(COLD_MIX.items(), key=lambda kv: str(kv[0])):
        candidates = (
            c for c in pool if c[1] == cls[2] and _eligible(cls, c[2], c[3])
        )
        while count:
            case_seed = next(candidates)[0]
            if case_seed in used:
                continue
            used.add(case_seed)
            case = generate_case(case_seed)
            over = list(case.over)
            obj = {"formula": formula_to_text(case.formula), "timeout": TIMEOUT_S, "budget": BUDGET}
            kind = cls[0]
            if kind == "member":
                obj.update(kind=kind, over=over, at=[_box_point(rng, over) for _ in range(3)])
            elif kind == "count_below":
                obj.update(kind=kind, over=over, bound=rng.randint(1, 9), lo=rng.randint(-9, 0))
            elif kind == "simplify":
                obj.update(kind=kind)
            else:
                obj.update(kind=kind, over=over, at=_symbol_points(rng, case))
                if kind == "sum":
                    obj["poly"] = case.poly_text
                if cls[1]:
                    obj["backend"] = cls[1]
            key = JobRequest.from_json(obj).content_hash()
            if key in used:
                continue
            used.add(key)
            count -= 1
            out.append({"request": obj, "case": case})
    random.Random(COLD_ORDER).shuffle(out)
    # Member and count_below jobs run inside the daemon, and one that
    # disjointifies imports networkx there, after which every forked
    # worker starts with it loaded.  They go last, so the forked jobs
    # of every round meet the same freshly started daemon.
    out.sort(key=lambda item: item["request"]["kind"] in _IN_DAEMON_KINDS)
    for k, item in enumerate(out):
        item["request"]["id"] = "c%d" % k
    return out


def warm_inputs(seed: int, rounds: int, size: int = WARM_ROUND) -> dict:
    """The prefill set and the measured rounds of ``serve-warm``.

    Every round fills the same ``size`` slots: slot ``k`` always repeats
    the same prefilled job, evaluates the same formula or queries the
    same automaton, each time under a new name or at fresh points.  So
    the rounds repeat the same ops, as on the other workloads, while no
    evaluate, member or count_below request is ever answered twice.

    As on ``serve-cold``, the formulas and the slots are the same for
    every seed (the table's first cases that fit each role, and a fixed
    layout), because they set the cost.  The seed draws the names of the
    repeats and every point and bound.
    """
    from repro.serve.loadgen import alpha_variant
    from repro.testkit.generate import SYMBOL_MAX, SYMBOL_MIN, formula_to_text, generate_case

    rng = random.Random(seed)
    pool = _case_pool()
    roles = {"automata": [], "evaluate": [], "repeats": []}
    wanted = {
        (role, several): n // 2
        for role, n in (
            ("automata", WARM_AUTOMATA),
            ("evaluate", WARM_EVALUATE),
            ("repeats", WARM_REPEATS),
        )
        for several in (False, True)
    }
    for case_seed, several, symbols, _poly in pool:
        if not any(wanted.values()):
            break
        case = generate_case(case_seed)
        if not symbols and wanted[("automata", several)]:
            role = "automata"
        elif len(case.symbols) == 2 and wanted[("evaluate", several)]:
            role = "evaluate"
        elif wanted[("repeats", several)]:
            role = "repeats"
        else:
            continue
        wanted[(role, several)] -= 1
        over = list(case.over)
        base = {"formula": formula_to_text(case.formula), "over": over, "timeout": TIMEOUT_S, "budget": BUDGET}
        if role == "automata":
            base.update(kind="member", at=[_box_point(rng, over)])
        elif role == "evaluate":
            base.update(kind="evaluate", at=_symbol_points(rng, case))
        else:
            base.update(kind="count", at=_symbol_points(rng, case))
            if case.poly_text:
                base.update(kind="sum", poly=case.poly_text)
        roles[role].append({"request": base, "case": case})
    repeats, evaluate, automata = roles["repeats"], roles["evaluate"], roles["automata"]
    prefill = repeats + evaluate + automata
    for k, item in enumerate(prefill):
        item["request"]["id"] = "p%d" % k
    variants = [
        [alpha_variant(item["request"], rng) for _ in range(WARM_VARIANTS)]
        for item in repeats
    ]

    used = set()

    def fresh(make):
        for _attempt in range(1000):
            value = make()
            if value not in used:
                used.add(value)
                return value
        raise common.BenchError("ran out of fresh serve-warm points")

    def sym_env(case):
        return tuple((s, rng.randint(SYMBOL_MIN, SYMBOL_MAX)) for s in case.symbols)

    layout = random.Random(WARM_LAYOUT)
    slots = []
    for _ in range(size):
        roll = layout.random()
        if roll < 0.5:
            slots.append(("repeat", layout.randrange(len(repeats))))
        elif roll < 0.75:
            slots.append(("evaluate", layout.randrange(len(evaluate))))
        else:
            kind = "member" if layout.random() < 0.5 else "count_below"
            slots.append((kind, layout.randrange(len(automata))))

    measured = []
    for r in range(rounds):
        items = []
        for k, (role, b) in enumerate(slots):
            if role == "repeat":
                obj = dict(rng.choice(variants[b]))
                item = {"base": b}
            elif role == "evaluate":
                case = evaluate[b]["case"]
                points = fresh(lambda: (b, tuple(sym_env(case) for _ in range(3))))[1]
                obj = dict(evaluate[b]["request"], at=[dict(p) for p in points])
                item = {"case": case}
            else:
                case = automata[b]["case"]
                over = list(case.over)
                if role == "member":
                    pts = fresh(lambda: (b, tuple(tuple(sorted(_box_point(rng, over).items())) for _ in range(3))))[1]
                    obj = dict(automata[b]["request"], at=[dict(p) for p in pts])
                else:
                    _b, bound, lo = fresh(lambda: (b, rng.randint(1, 40), rng.randint(-40, 0)))
                    obj = dict(automata[b]["request"], kind="count_below", bound=bound, lo=lo)
                    obj.pop("at")
                item = {"case": case}
            obj["id"] = "m%d" % (r * size + k)
            item["request"] = obj
            item["slot"] = k
            items.append(item)
        measured.append(items)
    return {"prefill": prefill, "rounds": measured}


# -- oracle -------------------------------------------------------------------


class Oracle:
    """Brute-force answers of :mod:`repro.testkit.oracle`, memoized."""

    def __init__(self):
        self._points = {}

    def points(self, case, env=()):
        from repro.testkit.oracle import oracle_points

        key = (case.seed, tuple(sorted(dict(env).items())))
        if key not in self._points:
            self._points[key] = oracle_points(case.formula, case.over, env)
        return self._points[key]

    def value(self, request: dict, case, env) -> Fraction:
        pts = self.points(case, env)
        if request["kind"] == "sum":
            from repro.qpoly.parse import parse_polynomial

            poly = parse_polynomial(request["poly"])
            total = Fraction(0)
            for vals in pts:
                point = dict(env)
                point.update(zip(case.over, vals))
                total += poly.evaluate(point)
            return total
        return Fraction(len(pts))

    def check(self, request: dict, case, response: dict) -> bool:
        """Does an ok response agree with enumeration?"""
        kind = request["kind"]
        if kind == "simplify":
            return isinstance(response.get("clauses"), list)
        if kind == "member":
            from repro.testkit.oracle import oracle_eval

            got = [p["value"] for p in response["points"]]
            want = [oracle_eval(case.formula, p["at"]) for p in response["points"]]
            return got == want and len(got) == len(request["at"])
        if kind == "count_below":
            lo, hi = request.get("lo", 0), request["bound"] - 1
            want = sum(1 for p in self.points(case) if all(lo <= v <= hi for v in p))
            return response.get("value") == want
        points = response.get("points") or []
        if len(points) != len(request["at"]):
            return False
        for p in points:
            value = p["value"]
            got = Fraction(value) if isinstance(value, str) else Fraction(int(value))
            if got != self.value(request, case, p["at"]):
                return False
        return True


# -- the daemon ----------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process on a free port with a fresh store."""

    def __init__(self, run_dir: str, workers: int, trace_dir: Optional[str] = None):
        os.makedirs(run_dir, exist_ok=True)
        store = os.path.join(run_dir, "store.sqlite")
        serve = ["serve", "--http-port", "0", "--cache", store, "--workers", str(workers)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            launcher = os.path.join(common.ROOT, "perfbench", "launch.py")
            cmd = [sys.executable, launcher, trace_dir] + serve
        self.log_path = os.path.join(run_dir, "daemon.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, env=common.child_env(), cwd=common.ROOT,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.port = None
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, limit: float = 60.0) -> None:
        deadline = time.monotonic() + limit
        marker = "listening on http://127.0.0.1:"
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise common.BenchError("daemon did not start: %s" % self.log_tail())
            with open(self.log_path) as fh:
                for line in fh:
                    if marker in line and line.endswith("\n"):
                        self.port = int(line.split(marker, 1)[1].split(",")[0].strip())
            time.sleep(0.01)
        while True:
            try:
                status, doc = Client(self.port).get("/healthz")
                if status == 200 and doc.get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise common.BenchError("daemon /healthz never answered")
            time.sleep(0.01)

    def stats(self) -> dict:
        try:
            return Client(self.port).get("/stats")[1]
        except OSError as exc:
            raise common.BenchError(
                "daemon unreachable (%s; exit code %s): %s"
                % (exc, self.proc.poll(), self.log_tail())
            )

    def log_tail(self) -> str:
        with open(self.log_path) as fh:
            return fh.read()[-2000:]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """One HTTP/1.1 keep-alive connection to the daemon."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S * 4)

    def get(self, path: str):
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        doc = json.loads(resp.read())
        self.conn.close()
        return resp.status, doc

    def post(self, obj: dict) -> dict:
        body = json.dumps(obj)
        self.conn.request("POST", "/job", body, {"Content-Type": "application/json"})
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


def drive(port: int, items: List[dict], n_clients: int, tag: str = "", tracer=None):
    """Closed loop: each client sends its next request on each reply.

    Every item is sent once; ``tag`` is appended to request ids so the
    ops of different rounds stay distinct in the trace.
    """
    lock = threading.Lock()
    pending = list(reversed(items))
    records = []
    errors = []
    start = time.perf_counter()

    def client():
        conn = Client(port)
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    item = pending.pop()
                request = dict(item["request"], id=item["request"]["id"] + tag)
                t0 = time.perf_counter()
                response = conn.post(request)
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.record("serve.http", t0, t1, request["id"])
                with lock:
                    records.append({"item": item, "s": t1 - t0, "response": response})
        except BaseException as exc:  # surfaced below, after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return records, time.perf_counter() - start


# -- one workload run -----------------------------------------------------------


def _op_key(rec: dict):
    """What a request repeats across rounds: its id (cold), its slot (warm)."""
    item = rec["item"]
    return item.get("slot", item["request"]["id"])


def _serve_counters(stats_doc: dict) -> Dict[str, int]:
    return dict(stats_doc.get("serve", {}).get("counters", {}))


def _numbers(doc: dict) -> Dict[str, float]:
    return {
        k: v for k, v in doc.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _add(total: Dict[str, float], after: dict, before: dict) -> None:
    for k, v in after.items():
        total[k] = total.get(k, 0) + v - before.get(k, 0)


class Setup:
    """A run's inputs and its daemon (warm: with the store prefilled)."""

    def __init__(self, name, seed, seconds, run_dir, trace_dir=None, smoke=False):
        self.name = name
        self.run_dir = run_dir
        self.trace_dir = trace_dir
        self.round_size = SMOKE_ROUND if smoke else WARM_ROUND
        if name == "serve-cold":
            self.items = cold_requests(seed)[: SMOKE_ROUND if smoke else None]
            self.prefill = []
        else:
            rounds = int(seconds * WARM_PER_SECOND) // self.round_size + common.MIN_ROUNDS + 1
            inputs = warm_inputs(seed, rounds, self.round_size)
            self.rounds = inputs["rounds"]
            self.prefill = inputs["prefill"]
        self.prefill_records = []
        self.daemon = None
        self.start_daemon()

    def start_daemon(self) -> None:
        """A fresh daemon and store (warm: prefilled)."""
        if self.daemon is not None:
            self.daemon.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.daemon = Daemon(self.run_dir, CLIENTS, self.trace_dir)
        if self.prefill:
            try:
                self.prefill_records, _ = drive(self.daemon.port, self.prefill, CLIENTS)
            except BaseException:
                self.daemon.stop()
                raise

    def round_items(self, index: int) -> List[dict]:
        """Cold: the same requests each round, on a fresh daemon.
        Warm: the next round of the same slots, on the same daemon."""
        if self.name == "serve-cold":
            if index:
                self.start_daemon()
            return self.items
        if index >= len(self.rounds):
            raise common.BenchError("ran out of serve-warm rounds; raise WARM_PER_SECOND")
        return self.rounds[index]


def timed_setup(name, seed, seconds, run_dir, repeats, trace_dir=None, smoke=False):
    """Set up ``repeats`` times (keeping the last); returns (setup, median s)."""
    times = []
    setup = None
    for k in range(repeats):
        t0 = time.perf_counter()
        common.import_seconds(["repro.service", "repro.serve.loadgen", "repro.testkit"])
        setup = Setup(name, seed, seconds, run_dir, trace_dir, smoke)
        times.append(time.perf_counter() - t0)
        if k < repeats - 1:
            setup.daemon.stop()
    return setup, common.median(times)


def measure(setup: Setup, seconds: float, tracer=None) -> dict:
    """Rounds until ``seconds`` have been measured; the daemon is stopped."""
    rounds = []
    serve: Dict[str, float] = {}
    engine: Dict[str, float] = {}
    try:
        while common.more_rounds([r["wall"] for r in rounds], seconds):
            items = setup.round_items(len(rounds))
            daemon = setup.daemon
            pid = daemon.proc.pid
            before = daemon.stats()
            cpu0 = common.self_cpu_seconds() + common.proc_cpu_seconds(pid)
            records, wall = drive(daemon.port, items, CLIENTS, ".%d" % len(rounds), tracer)
            cpu = common.self_cpu_seconds() + common.proc_cpu_seconds(pid) - cpu0
            after = daemon.stats()
            _add(serve, _serve_counters(after), _serve_counters(before))
            _add(engine, _numbers(after), _numbers(before))
            rounds.append(
                {"records": records, "wall": wall, "cpu": cpu, "rss": common.proc_peak_rss_mb(pid)}
            )
    finally:
        setup.daemon.stop()
    return {"rounds": rounds, "serve": serve, "engine": engine}


def _stable(response: dict) -> str:
    """A response without its volatile keys and its request id."""
    from repro.service.batch import VOLATILE_RESPONSE_KEYS

    skip = set(VOLATILE_RESPONSE_KEYS) | {"id"}
    return json.dumps({k: v for k, v in response.items() if k not in skip}, sort_keys=True)


def check(setup: Setup, rounds) -> int:
    """Wrong answers: oracle disagreement; a warm repeat that differs
    from its prefill answer, or a cold answer that differs from the
    first round's, modulo volatile keys."""
    oracle = Oracle()
    wrong = 0
    prefilled = []
    for rec in setup.prefill_records:
        item, response = rec["item"], rec["response"]
        if response.get("ok") and not oracle.check(item["request"], item["case"], response):
            wrong += 1
    stable = {rec["item"]["request"]["id"]: _stable(rec["response"]) for rec in setup.prefill_records}
    prefilled = [item["request"]["id"] for item in setup.prefill]
    first = {}
    for index, r in enumerate(rounds):
        for rec in r["records"]:
            item, response = rec["item"], rec["response"]
            if not response.get("ok"):
                continue
            rid = item["request"]["id"]
            if "base" in item:
                ok = _stable(response) == stable[prefilled[item["base"]]]
            elif setup.name == "serve-cold" and index:
                ok = _stable(response) == first.get(rid)
            else:
                ok = oracle.check(item["request"], item["case"], response)
                first[rid] = _stable(response)
            wrong += 0 if ok else 1
    return wrong


def routes(name: str, m: dict, traced: bool) -> Dict[str, bool]:
    records = [rec for r in m["rounds"] for rec in r["records"]]
    serve = m["serve"]
    if name == "serve-cold":
        return {
            "all_cold": all(rec["response"].get("tier") == "cold" for rec in records),
            "no_coalesced": serve.get("coalesced", 0) == 0,
            "no_shed": serve.get("shed", 0) == 0,
        }
    out = {"no_cold_jobs": serve.get("cold_jobs", 0) == 0}
    if traced:  # the launcher turns the daemon's engine counters on
        out["no_sat_calls"] = m["engine"].get("sat_calls", 0) == 0
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    common.require_source()
    run_dir = os.path.join(common.OUT, "%s-%d" % (name, os.getpid()))
    try:
        return _run(name, seed, seconds, trace, run_dir, smoke)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, run_dir, smoke) -> dict:
    details = {"environment": common.environment(name, seed, CLIENTS, CLIENTS)}
    if not trace:
        setup, setup_s = timed_setup(
            name, seed, seconds, os.path.join(run_dir, "d"), common.SETUP_REPEATS, smoke=smoke
        )
        m = measure(setup, seconds)
        metrics = common.round_metrics(m["rounds"], _op_key, CLIENTS)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = common.median([r["rss"] for r in m["rounds"]])
        route = routes(name, m, False)
    else:
        from perfbench.layers import compute, self_time_table
        from perfbench.trace import Tracer, read_spans

        half = seconds / 2.0
        plain_setup, _ = timed_setup(name, seed, half, os.path.join(run_dir, "plain"), 1, smoke=smoke)
        plain = measure(plain_setup, half)
        trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        setup, _ = timed_setup(
            name, seed, half, os.path.join(run_dir, "traced"), 1, trace_dir, smoke
        )
        tracer = Tracer()
        m = measure(setup, half, tracer)
        records = [rec for r in m["rounds"] for rec in r["records"]]
        measured = {s[5] for s in tracer.spans}
        spans = [s for s in read_spans(trace_dir) + tracer.spans if s[5] in measured]
        counters = dict(m["engine"])
        retries = 0
        for rec in records:
            resp = rec["response"]
            if resp.get("tier") == "cold":
                retries += max(0, resp.get("attempts", 1) - 1)
                if rec["item"]["request"]["kind"] in _FORKED_KINDS:
                    _add(counters, _numbers(resp.get("stats") or {}), {})
        overhead = common.median([r["wall"] for r in m["rounds"]]) / common.median(
            [r["wall"] for r in plain["rounds"]]
        )
        metrics = compute(
            spans,
            len(records),
            sum(r["wall"] for r in m["rounds"]) * CLIENTS,
            counters,
            m["serve"],
            overhead_ratio=overhead,
            retries=retries,
        )
        route = routes(name, m, True)
        details["self_ms"] = dict(self_time_table(spans))
    records = [rec for r in m["rounds"] for rec in r["records"]]
    failed = sum(1 for rec in records if not rec["response"].get("ok"))
    wrong = check(setup, m["rounds"])
    details.update(
        {
            "ops": len(records),
            "rounds": len(m["rounds"]),
            "wrong_answers": wrong,
            "error_rate": failed / len(records),
            "errors": sorted(
                {json.dumps(rec["response"].get("error")) for rec in records if not rec["response"].get("ok")}
            )[:5],
            "routes": route,
            "serve_counters": m["serve"],
        }
    )
    return {
        "details": details,
        "attempted": len(records),
        "failed": failed,
        "correct": wrong == 0 and all(route.values()),
        "metrics": metrics,
    }
