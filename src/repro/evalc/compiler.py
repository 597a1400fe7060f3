"""compile(sum) -> CompiledSum: fast reusable evaluators.

The point evaluator is *generated Python source*: one function per
``SymbolicSum`` that hoists every symbol lookup and shared mod atom
into a local, checks each term's guard with the closed-form predicate
program from :mod:`repro.evalc.guards`, and accumulates the term
values in common-denominator integer Horner form
(:mod:`repro.evalc.lower`).  The source is compiled once with
``exec`` and reused for every point -- the cost model is "one dict
lookup per symbol plus a handful of integer ops per term", versus the
interpreted path's per-point substitution and Omega satisfiability.

``CompiledSum.table`` adds a second tier: when the answer is piecewise
in one symbol it builds a :class:`_TablePlan` -- for each residue
class of the answer's period, a sorted list of thresholds with the
summed integer coefficient vector of the active terms between
consecutive thresholds.  Serving a point is then ``v % L`` /
``v // L``, one bisect, and one dense Horner chain: O(log #pieces +
degree), independent of the number of terms.

Compiled artifacts are cached in a bounded in-process LRU (the
``evalc_cache`` :class:`~repro.core.stats.BoundedLRU`) keyed by the
sum itself (or any hashable key the caller supplies -- the batch
service passes its request content hash).
"""

from bisect import bisect_right
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core import stats
from repro.intarith import lcm_list
from repro.qpoly import ModAtom

from repro.evalc.guards import (
    EMPTY,
    FallbackNeeded,
    guard_levels,
    guard_t_interval,
)
from repro.evalc.lower import (
    collect_atoms,
    horner_eval,
    horner_src,
    int_affine_src,
    poly_denominator,
    residue_period,
    scaled_terms,
    specialize_residue,
    substitute_fixed,
)

#: Process-wide switch (--no-compile escape hatch, A/B benchmarks).
_COMPILE_ENABLED = True

#: Bounded LRU of compiled artifacts.
_CACHE_LIMIT = stats.CACHE_LIMITS["evalc_cache"]
_CACHE = stats.BoundedLRU(_CACHE_LIMIT, "evalc_cache")

#: Residue classes beyond this make a table plan cost more to build
#: than it saves; serve such answers point-by-point instead.
_MAX_PERIOD = 720

_INDENT = "    "


def set_compile_enabled(enabled: bool) -> bool:
    """Toggle compiled evaluation globally; returns the previous state."""
    global _COMPILE_ENABLED
    previous = _COMPILE_ENABLED
    _COMPILE_ENABLED = bool(enabled)
    return previous


def compile_enabled() -> bool:
    return _COMPILE_ENABLED


def clear_cache() -> None:
    _CACHE.clear()


def _finish(acc: int, scale: int):
    """Undo the common-denominator scaling, matching the interpreted
    return convention: int when integral, Fraction otherwise."""
    if scale == 1:
        return acc
    q, r = divmod(acc, scale)
    return q if r == 0 else Fraction(acc, scale)


def generate_source(sum_) -> Tuple[str, int]:
    """Emit the point-evaluator source for a SymbolicSum.

    Returns ``(source, scale)``; the source defines ``_at(env)``
    returning the scaled integer total.  ``_fb(i, env)`` must be bound
    in the exec namespace to the exact interpreted guard test for
    term i (used only for multi-wildcard guard components).
    """
    symbols = sorted(sum_.symbols())
    names = {v: "v%d" % i for i, v in enumerate(symbols)}
    polys = [t.value for t in sum_.terms]
    scale = lcm_list(poly_denominator(p) for p in polys)
    slot_of: Dict[object, str] = dict(names)
    lines = ["def _at(env):"]
    for v in symbols:
        lines.append("%s%s = env[%r]" % (_INDENT, names[v], v))
    mod_idx = 0
    for atom in collect_atoms(polys):
        if isinstance(atom, ModAtom):
            slot = "a%d" % mod_idx
            mod_idx += 1
            slot_of[atom] = slot
            lines.append(
                "%s%s = (%s) %% %d"
                % (
                    _INDENT,
                    slot,
                    int_affine_src(atom.coeffs, atom.const, names),
                    atom.modulus,
                )
            )
    lines.append("%s_acc = 0" % _INDENT)
    for i, term in enumerate(sum_.terms):
        value_src = horner_src(scaled_terms(term.value, scale), slot_of)
        if value_src == "0":
            continue
        depth = 1
        for assigns, conds in guard_levels(
            term.guard, names, "_t%d_" % i, i
        ):
            for name, src in assigns:
                lines.append("%s%s = %s" % (_INDENT * depth, name, src))
            if conds:
                lines.append(
                    "%sif %s:" % (_INDENT * depth, " and ".join(conds))
                )
                depth += 1
        lines.append("%s_acc += %s" % (_INDENT * depth, value_src))
    lines.append("%sreturn _acc" % _INDENT)
    return "\n".join(lines) + "\n", scale


class _TablePlan:
    """Period-indexed threshold tables for one (var, fixed) slice."""

    __slots__ = ("period", "scale", "classes")

    def __init__(self, period, scale, classes):
        self.period = period
        self.scale = scale
        # classes[r] = (cuts, regions): region i covers thresholds
        # cuts[i-1] <= t < cuts[i] and holds a dense highest-first
        # integer coefficient vector.
        self.classes = classes

    def value_at(self, v: int):
        t, r = divmod(v, self.period)
        cuts, regions = self.classes[r]
        coeffs = regions[bisect_right(cuts, t)]
        return _finish(horner_eval(coeffs, t), self.scale)


def _sum_dense(vectors: List[List[int]]) -> List[int]:
    """Add dense highest-first coefficient lists (right-aligned)."""
    if not vectors:
        return [0]
    width = max(len(v) for v in vectors)
    out = [0] * width
    for vec in vectors:
        pad = width - len(vec)
        for j, c in enumerate(vec):
            out[pad + j] += c
    while len(out) > 1 and out[0] == 0:
        out.pop(0)
    return out


def _plan_period(sum_, polys_sub, var: str) -> int:
    """lcm of every modulus and wildcard coefficient the slice meets."""
    factors: List[int] = []
    for poly in polys_sub:
        factors.append(residue_period(poly, var))
    for term in sum_.terms:
        guard = term.guard
        for con in guard.constraints:
            for v, c in con.expr.coeffs:
                if v in guard.wildcards:
                    factors.append(abs(c))
    return lcm_list(factors)


def build_table_plan(sum_, var: str, fixed: Mapping[str, int]):
    """Build the threshold-table plan, or None when not applicable."""
    polys_sub = []
    for term in sum_.terms:
        for v in term.guard.free_variables():
            if v != var and v not in fixed:
                return None
        poly = substitute_fixed(term.value, dict(fixed))
        for v in poly.variables():
            if v != var:
                return None
        polys_sub.append(poly)
    period = _plan_period(sum_, polys_sub, var)
    if period > _MAX_PERIOD:
        return None
    scale = lcm_list(poly_denominator(p) for p in polys_sub)
    classes = []
    for r in range(period):
        pieces: List[Tuple[Optional[int], Optional[int], List[int]]] = []
        for term, poly in zip(sum_.terms, polys_sub):
            try:
                interval = guard_t_interval(
                    term.guard, var, period, r, fixed
                )
            except FallbackNeeded:
                return None
            if interval is EMPTY:
                continue
            coeffs = specialize_residue(poly, var, period, r, scale)
            if coeffs is None:
                return None
            if coeffs == [0]:
                continue
            pieces.append((interval[0], interval[1], coeffs))
        cut_set = set()
        for lo, hi, _ in pieces:
            if lo is not None:
                cut_set.add(lo)
            if hi is not None:
                cut_set.add(hi + 1)
        cuts = sorted(cut_set)
        regions = []
        for i in range(len(cuts) + 1):
            # Any t inside the region identifies the active pieces.
            rep = cuts[i - 1] if i else (cuts[0] - 1 if cuts else 0)
            active = [
                vec
                for lo, hi, vec in pieces
                if (lo is None or lo <= rep) and (hi is None or rep <= hi)
            ]
            regions.append(_sum_dense(active))
        classes.append((cuts, regions))
    if stats.ENABLED:
        stats.bump("evalc_table_plans")
    return _TablePlan(period, scale, classes)


class CompiledSum:
    """A SymbolicSum lowered to a reusable point/batch/table evaluator.

    Obtained from :func:`compile_sum`; evaluation results are
    bit-for-bit identical to :meth:`SymbolicSum.evaluate` (same values,
    same int-vs-Fraction types).
    """

    __slots__ = ("sum", "source", "scale", "_fn", "_plans")

    def __init__(self, sum_):
        self.sum = sum_
        self.source, self.scale = generate_source(sum_)
        guards = [t.guard for t in sum_.terms]

        def _fb(i: int, env: Mapping[str, int]) -> bool:
            if stats.ENABLED:
                stats.bump("evalc_guard_fallbacks")
            return guards[i].is_satisfied(env)

        namespace = {"_fb": _fb}
        exec(compile(self.source, "<evalc>", "exec"), namespace)
        self._fn = namespace["_at"]
        self._plans = stats.BoundedLRU(8)  # table plans by slice
        if stats.ENABLED:
            stats.bump("evalc_compiles")

    def at(self, env: Optional[Mapping[str, int]] = None, **kwargs: int):
        """Evaluate at one point (mapping and/or keywords)."""
        if kwargs:
            full = dict(env or {})
            full.update(kwargs)
            env = full
        return _finish(self._fn(env or {}), self.scale)

    def many(self, envs) -> List[object]:
        """Evaluate at a list of points."""
        fn = self._fn
        scale = self.scale
        return [_finish(fn(env), scale) for env in envs]

    def table(self, var: str, values, **fixed: int):
        """Tabulate along one symbol: [(value, count), ...].

        Uses the threshold-table plan when the slice admits one
        (O(log #pieces) per point); otherwise serves each point
        through the compiled evaluator.
        """
        plan = self._plan_for(var, fixed)
        if plan is not None:
            return [(v, plan.value_at(v)) for v in values]
        fn = self._fn
        scale = self.scale
        env = dict(fixed)
        out = []
        for v in values:
            env[var] = v
            out.append((v, _finish(fn(env), scale)))
        return out

    def _plan_for(self, var: str, fixed: Mapping[str, int]):
        key = (var, tuple(sorted(fixed.items())))
        plan = self._plans.get(key)
        if plan is None:
            # False caches "no plan": that answer is sticky too.
            plan = build_table_plan(self.sum, var, fixed) or False
            self._plans.put(key, plan)
        return plan or None


def compile_sum(sum_, cache_key: Optional[object] = None) -> CompiledSum:
    """Compile a SymbolicSum, reusing the bounded in-process cache.

    ``cache_key`` defaults to the sum itself (SymbolicSum is hashable);
    the batch service passes its request content hash so repeated jobs
    share one artifact without rehashing terms.
    """
    key = sum_ if cache_key is None else cache_key
    cached = _CACHE.get(key)
    if cached is not None:
        if stats.ENABLED:
            stats.bump("evalc_cache_hits")
        return cached
    if stats.ENABLED:
        stats.bump("evalc_cache_misses")
    compiled = CompiledSum(sum_)
    _CACHE.put(key, compiled)
    return compiled


__all__ = [
    "CompiledSum",
    "build_table_plan",
    "clear_cache",
    "compile_enabled",
    "compile_sum",
    "generate_source",
    "set_compile_enabled",
]
