"""Differential and metamorphic invariants for fuzz cases.

Each check takes a :class:`~repro.testkit.generate.FuzzCase` and
returns ``None`` (pass) or a :class:`CheckFailure`.  The registry
:data:`CHECKS` maps check names to ``(period, function)`` -- the fuzz
driver runs a check on every ``period``-th iteration, so cheap
differential checks run always and expensive end-to-end ones are
sampled.  Any exception escaping a check (engine crash, DNF explosion)
is itself reported as a failure: the engine must degrade gracefully on
every formula the grammar can produce.

The invariants:

* ``count_oracle`` / ``sum_oracle`` -- the engine's symbolic answer,
  evaluated at each sampled symbol assignment, equals brute-force
  enumeration (the Woods quasi-polynomial contract).
* ``truth_oracle`` -- :meth:`Formula.evaluate` (DNF + Omega
  satisfiability) agrees with direct AST evaluation on sampled points.
* ``rename_hash`` / ``shuffle_hash`` -- alpha-renaming the counted and
  quantifier-bound variables, or shuffling ``and``/``or`` operands,
  changes neither the evaluated answer nor the service content hash
  (:meth:`repro.service.request.JobRequest.content_hash`).
* ``simplify_value`` -- ``SymbolicSum.simplified()`` preserves the
  evaluated answer.
* ``compiled_eval`` -- the :mod:`repro.evalc` compiled evaluator
  (point and table entry points) is bit-for-bit equal to interpreted
  evaluation, including at zero and negative symbol values.
* ``answer_memo`` -- counting with the answer memo enabled (cold and
  warm) serializes and evaluates identically to counting with it
  disabled, int-vs-Fraction types included.
* ``genfunc_backend`` -- the generating-function backend
  (:mod:`repro.genfunc`), both through the router (fallback included)
  and engine-against-engine on the concretized formula, agrees with
  the recursion at every sampled assignment.
* ``automaton_backend`` -- the binary-automaton backend
  (:mod:`repro.automaton`): routed counts match the recursion, the
  DFA's path/box counts match the recursion and brute force, and
  O(bits) membership matches direct evaluation on sampled points
  (negatives included).
* ``formula_simplify`` -- ``presburger.simplify`` preserves the
  solution set, and its disjoint form covers each point exactly once.
* ``gist_preserves`` -- ``gist(C, Q) ∧ Q  ≡  C ∧ Q`` pointwise.
* ``disjoint_vs_ie`` -- the engine's disjoint-DNF count agrees with
  the independent FST91 inclusion-exclusion baseline.
* ``cache_warm_cold`` -- a batch-service job answered cold (computed)
  and warm (from the disk cache) yields identical stable fields.
"""

import itertools
import random
import tempfile
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import count, stats, sum_poly
from repro.presburger.ast import _Quantifier, And, Formula, Not, Or
from repro.presburger.dnf import to_dnf
from repro.qpoly.parse import parse_polynomial
from repro.testkit.generate import (
    BOX,
    FuzzCase,
    formula_to_text,
    rename_formula,
    shuffle_formula,
)
from repro.testkit.oracle import oracle_count, oracle_eval, oracle_points, oracle_sum


class CheckFailure(Exception):
    """A failed invariant: the check name plus a human-readable detail."""

    def __init__(self, check: str, message: str, case: Optional[FuzzCase] = None):
        super().__init__("%s: %s" % (check, message))
        self.check = check
        self.message = message
        self.case = case

    def __repr__(self) -> str:
        return "CheckFailure(%s: %s)" % (self.check, self.message)


def _case_seed(case: FuzzCase) -> int:
    return case.seed if case.seed is not None else 0


def _bound_variables(f: Formula) -> List[str]:
    out: List[str] = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, _Quantifier):
            out.extend(node.variables)
            stack.append(node.body)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, Not):
            stack.append(node.child)
    return out


def _content_hash(
    case: FuzzCase,
    formula: Formula,
    over: Sequence[str],
    poly_text: Optional[str] = None,
) -> str:
    from repro.service.request import JobRequest

    if poly_text is None:
        poly_text = case.poly_text
    kind = "sum" if poly_text else "count"
    return JobRequest(
        kind,
        formula_to_text(formula),
        over=list(over),
        poly=poly_text if poly_text else None,
    ).content_hash()


# -- the individual checks -----------------------------------------------


def check_count_oracle(case: FuzzCase) -> Optional[CheckFailure]:
    result = count(case.formula, list(case.over))
    for env in case.envs:
        want = oracle_count(case.formula, case.over, env)
        got = result.evaluate(env)
        if got != want:
            return CheckFailure(
                "count_oracle",
                "engine %s != oracle %s at %s" % (got, want, dict(env)),
                case,
            )
    return None


def check_sum_oracle(case: FuzzCase) -> Optional[CheckFailure]:
    if not case.poly_text:
        return None
    poly = parse_polynomial(case.poly_text)
    result = sum_poly(case.formula, list(case.over), poly)
    for env in case.envs:
        want = oracle_sum(case.formula, case.over, poly, env)
        got = result.evaluate(env)
        if got != want:
            return CheckFailure(
                "sum_oracle",
                "engine %s != oracle %s at %s (poly %s)"
                % (got, want, dict(env), case.poly_text),
                case,
            )
    return None


def check_truth_oracle(case: FuzzCase) -> Optional[CheckFailure]:
    rng = random.Random(_case_seed(case) ^ 0x7255)
    env = dict(case.envs[0]) if case.envs else {}
    for _ in range(10):
        point = dict(env)
        for v in case.over:
            point[v] = rng.randint(-BOX + 1, BOX - 1)
        via_omega = case.formula.evaluate(point)
        via_oracle = oracle_eval(case.formula, point)
        if via_omega != via_oracle:
            return CheckFailure(
                "truth_oracle",
                "Formula.evaluate=%s but direct evaluation=%s at %s"
                % (via_omega, via_oracle, point),
                case,
            )
    return None


def check_rename_hash(case: FuzzCase) -> Optional[CheckFailure]:
    mapping = {v: "rv%d" % k for k, v in enumerate(case.over)}
    mapping.update(
        {v: "rb%d" % k for k, v in enumerate(_bound_variables(case.formula))}
    )
    renamed = rename_formula(case.formula, mapping)
    new_over = [mapping[v] for v in case.over]
    renamed_poly = None
    if case.poly_text:
        renamed_poly = str(parse_polynomial(case.poly_text).rename(mapping))
    h0 = _content_hash(case, case.formula, case.over)
    h1 = _content_hash(case, renamed, new_over, poly_text=renamed_poly)
    if h0 != h1:
        return CheckFailure(
            "rename_hash",
            "content hash not invariant under alpha-renaming %s" % mapping,
            case,
        )
    result = count(renamed, new_over)
    for env in case.envs:
        want = oracle_count(case.formula, case.over, env)
        got = result.evaluate(env)
        if got != want:
            return CheckFailure(
                "rename_hash",
                "renamed count %s != oracle %s at %s" % (got, want, dict(env)),
                case,
            )
    return None


def check_shuffle_hash(case: FuzzCase) -> Optional[CheckFailure]:
    rng = random.Random(_case_seed(case) ^ 0x5EED)
    shuffled = shuffle_formula(case.formula, rng)
    h0 = _content_hash(case, case.formula, case.over)
    h1 = _content_hash(case, shuffled, case.over)
    if h0 != h1:
        return CheckFailure(
            "shuffle_hash",
            "content hash not invariant under operand shuffling",
            case,
        )
    result = count(shuffled, list(case.over))
    for env in case.envs:
        want = oracle_count(case.formula, case.over, env)
        got = result.evaluate(env)
        if got != want:
            return CheckFailure(
                "shuffle_hash",
                "shuffled count %s != oracle %s at %s" % (got, want, dict(env)),
                case,
            )
    return None


def check_simplify_value(case: FuzzCase) -> Optional[CheckFailure]:
    result = count(case.formula, list(case.over))
    simplified = result.simplified()
    for env in case.envs:
        got, want = simplified.evaluate(env), result.evaluate(env)
        if got != want:
            return CheckFailure(
                "simplify_value",
                "simplified() changed the answer at %s: %s != %s"
                % (dict(env), got, want),
                case,
            )
    return None


def _clause_points(
    clauses, over: Sequence[str], env: Mapping[str, int]
) -> Dict[Tuple[int, ...], int]:
    """point -> number of clauses covering it (within the box)."""
    hits: Dict[Tuple[int, ...], int] = {}
    for clause in clauses:
        for vals in itertools.product(
            range(-BOX, BOX + 1), repeat=len(over)
        ):
            point = dict(env)
            point.update(zip(over, vals))
            # Restrict to the variables this clause actually mentions.
            free = set(clause.free_variables())
            if clause.is_satisfied({k: v for k, v in point.items() if k in free}):
                hits[vals] = hits.get(vals, 0) + 1
    return hits


def check_formula_simplify(case: FuzzCase) -> Optional[CheckFailure]:
    from repro.presburger.simplify import simplify

    for disjoint in (False, True):
        clauses = simplify(case.formula, disjoint=disjoint)
        for env in case.envs:
            want = oracle_points(case.formula, case.over, env)
            hits = _clause_points(clauses, case.over, env)
            if set(hits) != want:
                missing = sorted(want - set(hits))[:4]
                extra = sorted(set(hits) - want)[:4]
                return CheckFailure(
                    "formula_simplify",
                    "simplify(disjoint=%s) changed the solution set at %s"
                    " (missing %s, extra %s)" % (disjoint, dict(env), missing, extra),
                    case,
                )
            if disjoint:
                overlaps = {p: k for p, k in hits.items() if k > 1}
                if overlaps:
                    return CheckFailure(
                        "formula_simplify",
                        "disjoint clauses overlap at %s: %s"
                        % (dict(env), sorted(overlaps)[:4]),
                        case,
                    )
    return None


def check_gist_preserves(case: FuzzCase) -> Optional[CheckFailure]:
    from repro.omega.problem import Conjunct
    from repro.omega.redundancy import gist

    rng = random.Random(_case_seed(case) ^ 0x6157)
    clauses = [c for c in to_dnf(case.formula) if len(c.constraints) >= 2]
    if not clauses:
        return None
    clause = clauses[rng.randrange(len(clauses))]
    keep = [c for c in clause.constraints if rng.random() < 0.5]
    context = Conjunct(keep, clause.wildcards)
    result = gist(clause, context)
    merged_g = result.merge(context)
    merged_c = clause.merge(context)
    for env in case.envs:
        for vals in itertools.product(
            range(-BOX, BOX + 1), repeat=len(case.over)
        ):
            point = dict(env)
            point.update(zip(case.over, vals))

            def truth(conj):
                free = set(conj.free_variables())
                return conj.is_satisfied(
                    {k: v for k, v in point.items() if k in free}
                )

            if truth(merged_g) != truth(merged_c):
                return CheckFailure(
                    "gist_preserves",
                    "gist(C, Q) ∧ Q differs from C ∧ Q at %s"
                    " (C = %s, Q = %s)" % (point, clause, context),
                    case,
                )
    return None


def check_disjoint_vs_ie(case: FuzzCase) -> Optional[CheckFailure]:
    from repro.baselines import inclusion_exclusion_count

    clauses = to_dnf(case.formula)
    if not 2 <= len(clauses) <= 4:
        return None  # inclusion-exclusion is 2^k; keep the check cheap
    engine = count(clauses, list(case.over))
    ie, _ = inclusion_exclusion_count(clauses, list(case.over))
    for env in case.envs:
        got, want = engine.evaluate(env), ie.evaluate(env)
        if got != want:
            return CheckFailure(
                "disjoint_vs_ie",
                "disjoint-DNF %s != inclusion-exclusion %s at %s"
                % (got, want, dict(env)),
                case,
            )
    return None


def check_cache_warm_cold(case: FuzzCase) -> Optional[CheckFailure]:
    import os

    from repro.service.batch import VOLATILE_RESPONSE_KEYS, run_batch
    from repro.service.diskcache import DiskCache
    from repro.service.request import JobRequest

    request = JobRequest(
        "count",
        formula_to_text(case.formula),
        over=list(case.over),
        at=list(case.envs),
        timeout=120.0,
    )

    def stable(response: dict) -> dict:
        return {
            k: v
            for k, v in response.items()
            if k not in VOLATILE_RESPONSE_KEYS and k != "stats"
        }

    with tempfile.TemporaryDirectory() as tmp:
        with DiskCache(os.path.join(tmp, "cache.sqlite")) as cache:
            cold, _ = run_batch([request], workers=1, cache=cache)
            warm, _ = run_batch([request], workers=1, cache=cache)
    if not cold[0]["ok"]:
        return CheckFailure(
            "cache_warm_cold",
            "cold batch run failed: %s" % (cold[0].get("error"),),
            case,
        )
    if not warm[0]["cached"]:
        return CheckFailure(
            "cache_warm_cold", "warm re-run missed the disk cache", case
        )
    if stable(cold[0]) != stable(warm[0]):
        return CheckFailure(
            "cache_warm_cold",
            "warm response diverged from cold: %s != %s"
            % (stable(warm[0]), stable(cold[0])),
            case,
        )
    return None


def check_answer_memo(case: FuzzCase) -> Optional[CheckFailure]:
    """Memo-on and memo-off runs produce the same answer.

    Compares the serialized ``SymbolicSum`` byte-for-byte and the
    evaluated values (int-vs-Fraction type included) between a run
    with the answer memo enabled -- cold, then again warm so real hits
    are exercised -- and a run with it disabled.  Both runs start from
    the same fresh-name counter; the deterministic wildcard relabeling
    in ``repro.core.general`` is what makes byte equality a fair ask.
    """
    import json

    from repro.core.memo import clear_answer_memo, set_answer_memo
    from repro.omega.constraints import reset_fresh_counter

    poly = parse_polynomial(case.poly_text) if case.poly_text else 1

    def run():
        reset_fresh_counter()
        return sum_poly(case.formula, list(case.over), poly)

    previous = set_answer_memo(True)
    try:
        clear_answer_memo()
        cold = run()
        warm = run()  # answered (at least at the roots) from the memo
        set_answer_memo(0)  # also clears every entry
        off = run()
    finally:
        set_answer_memo(previous)
    baseline = json.dumps(off.to_json(), sort_keys=True)
    for label, result in (("cold", cold), ("warm", warm)):
        got = json.dumps(result.to_json(), sort_keys=True)
        if got != baseline:
            return CheckFailure(
                "answer_memo",
                "memo-on (%s) serialization diverged from memo-off:"
                " %s != %s" % (label, got[:200], baseline[:200]),
                case,
            )
    for env in case.envs:
        want = off.evaluate(env)
        for label, result in (("cold", cold), ("warm", warm)):
            got = result.evaluate(env)
            if got != want or type(got) is not type(want):
                return CheckFailure(
                    "answer_memo",
                    "memo-on (%s) %r != memo-off %r at %s"
                    % (label, got, want, dict(env)),
                    case,
                )
    return None


def check_genfunc_backend(case: FuzzCase) -> Optional[CheckFailure]:
    """The generating-function backend agrees with the recursion.

    Two layers:

    * **Router**: ``count(..., backend="genfunc")`` -- which answers
      from the cone pipeline inside its fragment and falls back to the
      recursion outside it -- must evaluate to the recursion's answer
      at every sampled assignment.
    * **Engine-vs-engine**: per assignment, the symbol values are
      substituted into the formula and the now-concrete query is
      counted *directly* by :func:`repro.genfunc.genfunc_count_value`;
      an independent exact engine, so agreement here is a far stronger
      oracle than the brute-force box.  Assignments the cone pipeline
      rejects (``UnsupportedFormula``) are skipped, never failed --
      the router's fallback covers them above.
    """
    from repro.genfunc import UnsupportedFormula, genfunc_count_value
    from repro.omega.constraints import reset_fresh_counter

    def cold():
        stats.clear_caches()
        reset_fresh_counter()

    cold()
    baseline = count(case.formula, list(case.over))
    cold()
    routed = count(case.formula, list(case.over), backend="genfunc")
    envs = [dict(env) for env in case.envs] or [{}]
    for env in envs:
        want = baseline.evaluate(env)
        got = routed.evaluate(env)
        if got != want or type(got) is not type(want):
            return CheckFailure(
                "genfunc_backend",
                "routed genfunc %r != recursion %r at %s"
                % (got, want, env),
                case,
            )
        concrete = case.formula.substitute_values(env) if env else case.formula
        try:
            direct = genfunc_count_value(concrete, list(case.over))
        except UnsupportedFormula:
            continue
        if direct != want:
            return CheckFailure(
                "genfunc_backend",
                "genfunc cone count %r != recursion %r at %s"
                % (direct, want, env),
                case,
            )
    return None


def check_automaton_backend(case: FuzzCase) -> Optional[CheckFailure]:
    """The binary-automaton backend agrees with the recursion.

    Three layers:

    * **Router**: ``count(..., backend="automaton")`` -- answered by
      the DFA inside its fragment, recursion fallback outside -- must
      evaluate to the recursion's answer at every sampled assignment.
    * **Engine-vs-engine**: per assignment the symbols are substituted
      away and the concrete formula is compiled to a DFA directly
      (:func:`repro.automaton.automaton_for`); its minimal-word path
      count must equal the recursion's, its box count over the oracle
      box must equal brute-force enumeration, and (cross-engine) the
      generating-function count when that fragment accepts the formula.
      ``UnsupportedFormula`` skips, never fails -- the router's
      fallback covers those above.
    * **Membership**: the DFA's O(bits) word walk agrees with direct
      AST evaluation on sampled points in and around the box,
      negatives included (the two's-complement sign contract).
    """
    from repro.automaton import (
        UnsupportedFormula,
        automaton_for,
        count_box,
        count_exact,
        member,
    )
    from repro.core.convex import UnboundedSumError
    from repro.genfunc import UnsupportedFormula as GenfuncUnsupported
    from repro.genfunc import genfunc_count_value
    from repro.omega.constraints import reset_fresh_counter

    def cold():
        stats.clear_caches()
        reset_fresh_counter()

    cold()
    baseline = count(case.formula, list(case.over))
    cold()
    routed = count(case.formula, list(case.over), backend="automaton")
    rng = random.Random(_case_seed(case) ^ 0xD0FA)
    over = list(case.over)
    envs = [dict(env) for env in case.envs] or [{}]
    for env in envs:
        want = baseline.evaluate(env)
        got = routed.evaluate(env)
        if got != want or type(got) is not type(want):
            return CheckFailure(
                "automaton_backend",
                "routed automaton %r != recursion %r at %s"
                % (got, want, env),
                case,
            )
        concrete = case.formula.substitute_values(env) if env else case.formula
        try:
            aut = automaton_for(concrete, over, cache=False)
        except UnsupportedFormula:
            continue
        try:
            direct = count_exact(aut)
        except UnboundedSumError:
            direct = None  # infinite set; box/membership still checked
        if direct is not None and direct != want:
            return CheckFailure(
                "automaton_backend",
                "automaton path count %r != recursion %r at %s"
                % (direct, want, env),
                case,
            )
        try:
            via_genfunc = genfunc_count_value(concrete, over)
        except GenfuncUnsupported:
            via_genfunc = None
        if via_genfunc is not None and via_genfunc != want:
            return CheckFailure(
                "automaton_backend",
                "genfunc count %r != recursion %r at %s (automaton %r)"
                % (via_genfunc, want, env, direct),
                case,
            )
        points = oracle_points(case.formula, case.over, env)
        boxed = count_box(aut, [-BOX] * len(over), [BOX] * len(over))
        if boxed != len(points):
            return CheckFailure(
                "automaton_backend",
                "automaton box count %r != oracle %r at %s"
                % (boxed, len(points), env),
                case,
            )
        for _ in range(10):
            vals = [rng.randint(-BOX - 2, BOX + 2) for _ in over]
            want_in = oracle_eval(
                concrete, dict(zip(over, vals))
            )
            got_in = member(aut, vals)
            if got_in != want_in:
                return CheckFailure(
                    "automaton_backend",
                    "automaton membership %r != direct %r at %s"
                    % (got_in, want_in, dict(zip(over, vals))),
                    case,
                )
    return None


def check_compiled_eval(case: FuzzCase) -> Optional[CheckFailure]:
    """Compiled evaluation is bit-for-bit the interpreted evaluation.

    Compares :meth:`CompiledSum.at` (value *and* int-vs-Fraction type)
    and :meth:`CompiledSum.table` against ``SymbolicSum.evaluate`` --
    at the sampled envs plus all-zero, all-negative, and widened
    assignments, so negative and zero symbolic constants (where mod
    and floor-division conventions diverge between languages) are
    always exercised.
    """
    from repro.evalc import compile_sum

    if case.poly_text:
        result = sum_poly(
            case.formula, list(case.over), parse_polynomial(case.poly_text)
        )
    else:
        result = count(case.formula, list(case.over))
    compiled = compile_sum(result)
    symbols = sorted(result.symbols())
    envs = [dict(env) for env in case.envs]
    if symbols:
        envs.append({s: 0 for s in symbols})
        envs.append({s: -3 - i for i, s in enumerate(symbols)})
        rng = random.Random(_case_seed(case) ^ 0xE7A1)
        for _ in range(4):
            envs.append({s: rng.randint(-17, 23) for s in symbols})
    else:
        envs.append({})
    for env in envs:
        want = result.evaluate(env)
        got = compiled.at(env)
        if got != want or type(got) is not type(want):
            return CheckFailure(
                "compiled_eval",
                "compiled %r != interpreted %r at %s"
                % (got, want, dict(env)),
                case,
            )
    if symbols:
        var = symbols[0]
        fixed = {s: 2 for s in symbols if s != var}
        want_table = [
            (v, result.evaluate(dict(fixed, **{var: v})))
            for v in range(-9, 15)
        ]
        got_table = compiled.table(var, range(-9, 15), **fixed)
        if got_table != want_table:
            diff = [
                (a, b) for a, b in zip(got_table, want_table) if a != b
            ][:3]
            return CheckFailure(
                "compiled_eval",
                "compiled table diverges along %s (fixed %s): %s"
                % (var, fixed, diff),
                case,
            )
    return None


#: name -> (period, check).  A check runs on iterations where
#: ``iteration % period == 0``; replay and shrinking always run the
#: named check directly.
CHECKS: Dict[str, Tuple[int, Callable[[FuzzCase], Optional[CheckFailure]]]] = {
    "count_oracle": (1, check_count_oracle),
    "sum_oracle": (1, check_sum_oracle),
    "truth_oracle": (2, check_truth_oracle),
    "rename_hash": (3, check_rename_hash),
    "shuffle_hash": (3, check_shuffle_hash),
    "simplify_value": (3, check_simplify_value),
    "compiled_eval": (2, check_compiled_eval),
    "answer_memo": (2, check_answer_memo),
    "genfunc_backend": (2, check_genfunc_backend),
    "automaton_backend": (2, check_automaton_backend),
    "formula_simplify": (7, check_formula_simplify),
    "gist_preserves": (7, check_gist_preserves),
    "disjoint_vs_ie": (5, check_disjoint_vs_ie),
    "cache_warm_cold": (31, check_cache_warm_cold),
}


def run_check(name: str, case: FuzzCase) -> Optional[CheckFailure]:
    """Run one named check; exceptions become failures too."""
    _, fn = CHECKS[name]
    try:
        return fn(case)
    except CheckFailure:
        raise
    except Exception as exc:
        return CheckFailure(
            name, "exception: %s: %s" % (type(exc).__name__, exc), case
        )


def run_checks(
    case: FuzzCase,
    names: Optional[Sequence[str]] = None,
    iteration: Optional[int] = None,
) -> List[CheckFailure]:
    """Run the selected checks; returns every failure found.

    With ``iteration`` given, a check runs only when ``iteration`` is
    a multiple of its period (the fuzz driver's sampling schedule).
    """
    failures: List[CheckFailure] = []
    for name in names if names is not None else list(CHECKS):
        period, _ = CHECKS[name]
        if iteration is not None and iteration % period != 0:
            continue
        failure = run_check(name, case)
        if failure is not None:
            failures.append(failure)
    return failures


__all__ = [
    "CHECKS",
    "CheckFailure",
    "run_check",
    "run_checks",
]
