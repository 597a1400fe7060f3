"""Conjuncts: conjunctions of constraints with existential wildcards.

A :class:`Conjunct` is the Omega test's unit of work: a set of GEQ/EQ
constraints over named integer variables, together with a set of
*wildcard* variables that are implicitly existentially quantified
(the "auxiliary variables" of the paper's projected format).

Stride constraints ``c | e`` are stored as ``c·w == e`` for a wildcard
``w`` that appears in no other constraint ("stride-only" wildcards);
:meth:`Conjunct.stride_view` recovers the readable form.
"""

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core import stats
from repro.intarith import gcd_list
from repro.omega import kernels
from repro.omega.affine import Affine
from repro.omega.constraints import EQ, GEQ, Constraint, fresh_var

#: Sentinel for "normalize() has not run yet on this instance".
_MEMO_UNSET = object()

_EMPTY_FROZENSET = frozenset()

#: Master switch for the per-instance normalize memo (the differential
#: tests turn it off to prove memoization never changes results).
_NORMALIZE_MEMO_ENABLED = True


def set_normalize_memo(enabled: bool) -> bool:
    """Enable/disable the normalize memo; returns the previous state."""
    global _NORMALIZE_MEMO_ENABLED
    previous = _NORMALIZE_MEMO_ENABLED
    _NORMALIZE_MEMO_ENABLED = bool(enabled)
    return previous


class Conjunct:
    """An immutable conjunction ``∃ wildcards . c1 ∧ c2 ∧ ...``."""

    __slots__ = ("constraints", "wildcards", "_hash", "_normalized", "_rows")

    def __init__(
        self,
        constraints: Iterable[Constraint] = (),
        wildcards: Iterable[str] = (),
    ):
        cons = tuple(dict.fromkeys(constraints))
        object.__setattr__(
            self,
            "constraints",
            cons,
        )
        wildcards = tuple(wildcards)
        if wildcards:
            used = set()
            for c in cons:
                used.update(c.variables())
            wildset = frozenset(w for w in wildcards if w in used)
        else:
            wildset = _EMPTY_FROZENSET
        object.__setattr__(self, "wildcards", wildset)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_normalized", _MEMO_UNSET)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("Conjunct is immutable")

    # -- basic views -----------------------------------------------------

    @classmethod
    def true(cls) -> "Conjunct":
        return cls()

    @classmethod
    def false(cls) -> "Conjunct":
        """The canonical unsatisfiable conjunct ``-1 >= 0``."""
        return cls([Constraint.geq(Affine.const_expr(-1))])

    # -- dense row block (repro.omega.kernels substrate) -----------------

    def _row_block(self) -> "kernels.Block":
        """The conjunct's dense row block, built once per instance.

        Conjuncts produced by the kernels (normalize fast path, FM
        combination) arrive with the block pre-attached, so the hot
        elimination recursion never rebuilds it from the dict-backed
        constraints.
        """
        block = self._rows
        if block is None:
            block = kernels.rows_from_constraints(self.constraints)
            object.__setattr__(self, "_rows", block)
        return block

    @classmethod
    def _from_rows(
        cls,
        index: Tuple[str, ...],
        pos: Dict[str, int],
        rows: Iterable[Tuple[int, ...]],
        wildcards: Iterable[str],
    ) -> "Conjunct":
        """Build a conjunct straight from a dense row block.

        Mirrors the constructor's constraint dedup at the row level
        (rows over a shared index map bijectively onto constraints),
        then attaches the block so downstream kernels reuse it.
        """
        rows = tuple(dict.fromkeys(rows))
        conj = cls(
            [kernels.constraint_from_row(index, row) for row in rows],
            wildcards,
        )
        object.__setattr__(conj, "_rows", (index, pos, rows))
        return conj

    @classmethod
    def _normalized_from_rows(
        cls,
        index: Tuple[str, ...],
        pos: Dict[str, int],
        rows: Iterable[Tuple[int, ...]],
    ) -> Optional["Conjunct"]:
        """Normalize a wildcard-free row block entirely at row level.

        With no wildcards the stride tail of :meth:`_finish_normalize`
        is the identity, so the whole normalize fixed point can run on
        rows and materialize constraints exactly once -- the shape of
        every Fourier-Motzkin child in the satisfiability recursion.
        Produces the same conjunct (same order, same memo state) as
        building the raw conjunct and calling :meth:`normalize`.
        """
        if stats.ENABLED:
            stats.bump("normalize_calls")
        rows = tuple(dict.fromkeys(rows))
        while True:
            if stats.ENABLED:
                stats.bump("normalize_iterations")
                stats.bump("kernel_rows_normalized", len(rows))
            reduced = kernels.normalize_rows(rows)
            if reduced is None:
                return None
            eq_rows, geq_rows = reduced
            out = tuple(dict.fromkeys(eq_rows)) + tuple(geq_rows)
            if out == rows:
                break
            rows = out
        conj = cls._from_rows(index, pos, rows, ())
        if _NORMALIZE_MEMO_ENABLED:
            object.__setattr__(conj, "_normalized", conj)
        return conj

    def variables(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for c in self.constraints:
            for v in c.variables():
                seen.setdefault(v, None)
        return tuple(seen)

    def free_variables(self) -> Tuple[str, ...]:
        return tuple(v for v in self.variables() if v not in self.wildcards)

    def geqs(self) -> List[Constraint]:
        return [c for c in self.constraints if c.is_geq()]

    def eqs(self) -> List[Constraint]:
        return [c for c in self.constraints if c.is_eq()]

    def is_trivial_true(self) -> bool:
        return not self.constraints

    def uses(self, var: str) -> bool:
        return any(c.uses(var) for c in self.constraints)

    def constraints_on(self, var: str) -> List[Constraint]:
        return [c for c in self.constraints if c.uses(var)]

    def is_stride_wildcard(self, w: str) -> bool:
        """True if w occurs in exactly one constraint and it is an EQ."""
        hits = self.constraints_on(w)
        return len(hits) == 1 and hits[0].is_eq()

    def stride_only(self) -> bool:
        """All wildcards are stride-only (answer-format conjunct)."""
        return all(self.is_stride_wildcard(w) for w in self.wildcards)

    # -- construction helpers ----------------------------------------------

    def with_constraints(self, extra: Iterable[Constraint]) -> "Conjunct":
        return Conjunct(self.constraints + tuple(extra), self.wildcards)

    def with_wildcards(self, extra: Iterable[str]) -> "Conjunct":
        return Conjunct(self.constraints, tuple(self.wildcards) + tuple(extra))

    def without_constraints(self, remove: Iterable[Constraint]) -> "Conjunct":
        removed = set(remove)
        return Conjunct(
            (c for c in self.constraints if c not in removed), self.wildcards
        )

    def add_stride(self, modulus: int, expr: Affine) -> "Conjunct":
        """Add the stride constraint ``modulus | expr``."""
        if modulus <= 0:
            raise ValueError("stride modulus must be positive")
        if modulus == 1:
            return self
        w = fresh_var("s")
        eq = Constraint.equal(Affine({w: modulus}), expr)
        return Conjunct(self.constraints + (eq,), tuple(self.wildcards) + (w,))

    def merge(self, other: "Conjunct") -> "Conjunct":
        """Conjoin two conjuncts, renaming wildcards to avoid capture."""
        if other.wildcards:
            # Renaming is only needed when a wildcard of ``other``
            # collides with a name of ``self`` (fresh_var names are
            # process-unique, so collisions only arise from shared
            # ancestry).  Skipping the rename keeps names stable,
            # which is what makes the satisfiability cache effective.
            mine = set(self.wildcards)
            for c in self.constraints:
                mine.update(c.variables())
            if not mine.isdisjoint(other.wildcards):
                other = other.rename_wildcards()
        return Conjunct(
            self.constraints + other.constraints,
            tuple(self.wildcards) + tuple(other.wildcards),
        )

    def rename_wildcards(self) -> "Conjunct":
        if not self.wildcards:
            return self
        mapping = {w: fresh_var("r") for w in sorted(self.wildcards)}
        return Conjunct(
            (c.rename(mapping) for c in self.constraints), mapping.values()
        )

    def substitute(self, var: str, replacement: Affine) -> "Conjunct":
        return Conjunct(
            (
                c.substitute(var, replacement) if c.uses(var) else c
                for c in self.constraints
            ),
            self.wildcards,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Conjunct":
        return Conjunct(
            (c.rename(mapping) for c in self.constraints),
            (mapping.get(w, w) for w in self.wildcards),
        )

    # -- normalization ------------------------------------------------------

    def normalize(self) -> Optional["Conjunct"]:
        """Canonicalize; return None when trivially unsatisfiable.

        * GEQs are tightened: ``Σ a·x + c >= 0`` with g = gcd(a) becomes
          ``Σ (a/g)·x + floor(c/g) >= 0`` (integer points preserved).
        * EQs are divided by the gcd of all coefficients; when the gcd of
          the variable coefficients does not divide the constant the
          conjunct is infeasible.
        * EQs whose only variables are stride wildcards are rewritten as
          a single canonical stride (coefficients reduced mod the
          stride); a stride of 1 disappears.
        * Parallel GEQs are merged (tightest kept); opposed parallel
          GEQs that pin an expression to a point become an EQ, and an
          empty interval kills the conjunct.

        The result is memoized on the instance (conjuncts are
        immutable, and every ``_sum`` recursion step, ``satisfiable``
        call and redundancy test re-normalizes the conjuncts it is
        handed).  The fixed point is reached by iteration, not
        recursion, so adversarial chains -- e.g. wildcard equalities
        that each become eliminable only after the previous one is
        dropped -- cannot exhaust the interpreter stack.
        """
        if stats.ENABLED:
            stats.bump("normalize_calls")
        if _NORMALIZE_MEMO_ENABLED and self._normalized is not _MEMO_UNSET:
            if stats.ENABLED:
                stats.bump("normalize_memo_hits")
            return self._normalized
        chain: List["Conjunct"] = []
        current = self
        while True:
            if stats.ENABLED:
                stats.bump("normalize_iterations")
            step = current._normalize_once()
            if step is None:
                result = None
                break
            if (
                step.constraints == current.constraints
                and step.wildcards == current.wildcards
            ):
                result = step
                break
            if _NORMALIZE_MEMO_ENABLED and step._normalized is not _MEMO_UNSET:
                result = step._normalized
                break
            chain.append(step)
            current = step
        if _NORMALIZE_MEMO_ENABLED:
            object.__setattr__(self, "_normalized", result)
            for link in chain:
                object.__setattr__(link, "_normalized", result)
            if result is not None:
                object.__setattr__(result, "_normalized", result)
        return result

    def _normalize_once(self) -> Optional["Conjunct"]:
        """One canonicalization pass (see :meth:`normalize`).

        The scale/tighten/merge sweep runs on the conjunct's row block
        (:func:`repro.omega.kernels.normalize_rows`); the stride
        canonicalization tail runs on the materialized constraints.
        """
        index, pos, rows = self._row_block()
        if stats.ENABLED:
            stats.bump("kernel_rows_normalized", len(rows))
        reduced = kernels.normalize_rows(rows)
        if reduced is None:
            return None
        eq_rows, geq_rows = reduced
        if not eq_rows and not self.wildcards:
            # Pure-inequality conjunct: the stride tail is a no-op, so
            # the result comes straight off the rows -- the hot case in
            # the Fourier-Motzkin recursion.
            out = tuple(geq_rows)
            if out == rows:
                return self  # fixed point, nothing to rebuild
            return Conjunct._from_rows(index, pos, out, ())
        eqs = [kernels.constraint_from_row(index, row) for row in eq_rows]
        out_geqs = [
            kernels.constraint_from_row(index, row) for row in geq_rows
        ]
        return self._finish_normalize(eqs, out_geqs)

    def _finish_normalize(
        self, eqs: List[Constraint], out_geqs: List[Constraint]
    ) -> Optional["Conjunct"]:
        """Normalization tail: canonicalize stride equalities.

        Runs on materialized constraints: stride handling is name- and
        wildcard-centric, and it is the only part of normalization that
        mints fresh variables.
        """
        stride_eqs: List[Constraint] = []
        stride_seen: Dict[Tuple, str] = {}
        wildcards = set(self.wildcards)
        plain_eqs: List[Constraint] = []
        occurrences: Dict[str, int] = {}
        for c in eqs + out_geqs:
            for v in c.variables():
                occurrences[v] = occurrences.get(v, 0) + 1
        for c in dict.fromkeys(eqs):
            lone = [
                (v, cf)
                for v, cf in c.expr.coeffs
                if v in wildcards and occurrences.get(v) == 1
            ]
            if not lone:
                plain_eqs.append(c)
                continue
            g = gcd_list(cf for _, cf in lone)
            rest = Affine(
                {v: cf for v, cf in c.expr.coeffs if (v, cf) not in lone},
                c.expr.const,
            )
            if g == 1:
                for v, _ in lone:
                    wildcards.discard(v)
                continue  # ∃w: g·w == rest is always solvable
            # The stride is determined by g and the residue class of
            # ``rest`` up to sign; pick the lexicographically smaller of
            # the two reduced representatives so normalization is a
            # fixed point (see tests: strides must not oscillate).
            r0 = Affine({v: cf % g for v, cf in rest.coeffs}, rest.const % g)
            r1 = Affine(
                {v: (-cf) % g for v, cf in rest.coeffs}, (-rest.const) % g
            )
            reduced = min(r0, r1, key=lambda a: (a.coeffs, a.const))
            if reduced.is_constant():
                for v, _ in lone:
                    wildcards.discard(v)
                if reduced.const % g:
                    return None
                continue
            # Reuse the existing wildcard when the constraint is already
            # canonical (otherwise normalize would never reach a fixed
            # point, minting a fresh name each pass).
            key = (g, reduced)
            if key in stride_seen:  # duplicate stride: drop this copy
                for v, _ in lone:
                    wildcards.discard(v)
                continue
            w_old = lone[0][0]
            canonical = Constraint.equal(Affine({w_old: g}), reduced)
            if len(lone) == 1 and c == canonical:
                stride_seen[key] = w_old
                stride_eqs.append(c)
                continue
            for v, _ in lone:
                wildcards.discard(v)
            w = fresh_var("s")
            wildcards.add(w)
            stride_seen[key] = w
            stride_eqs.append(Constraint.equal(Affine({w: g}), reduced))

        return Conjunct(plain_eqs + stride_eqs + out_geqs, wildcards)

    # -- bounds ------------------------------------------------------------

    def bounds_on(self, var: str):
        """Split the GEQ constraints into bounds on ``var``.

        Returns ``(lowers, uppers, rest)`` where ``lowers`` is a list of
        ``(b, β)`` meaning β <= b·var (b > 0), ``uppers`` a list of
        ``(a, α)`` meaning a·var <= α (a > 0), and ``rest`` the
        constraints not mentioning ``var``.  Equalities mentioning
        ``var`` are a caller error (eliminate them first).  A conjunct
        that already carries its row block classifies on the rows;
        any other scans its constraints directly.
        """
        if self._rows is not None:
            return self._bounds_on_dense(var)
        lowers: List[Tuple[int, Affine]] = []
        uppers: List[Tuple[int, Affine]] = []
        rest: List[Constraint] = []
        for c in self.constraints:
            k = c.coeff(var)
            if k == 0:
                rest.append(c)
                continue
            if c.is_eq():
                raise ValueError(
                    "bounds_on(%s): equality %s not eliminated" % (var, c)
                )
            other = Affine(
                {v: cf for v, cf in c.expr.coeffs if v != var}, c.expr.const
            )
            if k > 0:  # k·var + other >= 0  =>  -other <= k·var
                lowers.append((k, -other))
            else:  # other >= -k·var = |k|·var
                uppers.append((-k, other))
        return lowers, uppers, rest

    def _bounds_on_dense(self, var: str):
        """Row-block implementation of :meth:`bounds_on`.

        Classifies on the cached rows (one int load per row) and
        materializes the bound expressions only for the rows that
        actually bound ``var``.
        """
        index, pos, rows = self._row_block()
        col = pos.get(var)
        if col is None:
            return [], [], list(self.constraints)
        lowers: List[Tuple[int, Affine]] = []
        uppers: List[Tuple[int, Affine]] = []
        rest: List[Constraint] = []
        for i, row in enumerate(rows):
            k = row[col]
            if k == 0:
                rest.append(self.constraints[i])
                continue
            if row[0]:
                raise ValueError(
                    "bounds_on(%s): equality %s not eliminated"
                    % (var, self.constraints[i])
                )
            if k > 0:  # beta <= k·var with beta = -(row minus the column)
                beta = Affine._from_sorted(
                    tuple(
                        (index[j - 2], -row[j])
                        for j in range(2, len(row))
                        if row[j] and j != col
                    ),
                    -row[1],
                )
                lowers.append((k, beta))
            else:  # |k|·var <= alpha with alpha = row minus the column
                alpha = Affine._from_sorted(
                    tuple(
                        (index[j - 2], row[j])
                        for j in range(2, len(row))
                        if row[j] and j != col
                    ),
                    row[1],
                )
                uppers.append((-k, alpha))
        return lowers, uppers, rest

    def bounds_profiles(self) -> Dict[str, Tuple[int, int, bool, bool]]:
        """Bound profile of every variable in one pass.

        Maps each variable to ``(n_lowers, n_uppers, all_unit_lowers,
        all_unit_uppers)`` over the GEQ constraints -- the facts the
        satisfiability loop needs to pick its elimination variable --
        from a single sweep of the row block.
        """
        index, pos, rows = self._row_block()
        profiles = kernels.bounds_profiles(rows, len(index) + 2)
        return {v: profiles[pos[v]] for v in index}

    # -- evaluation -----------------------------------------------------------

    def satisfied_by(self, env: Mapping[str, int]) -> bool:
        """Truth under a *complete* assignment (wildcards included)."""
        return all(c.satisfied(env) for c in self.constraints)

    def is_satisfied(self, env: Mapping[str, int]) -> bool:
        """Truth under an assignment of the free variables.

        Wildcards are existentially quantified: we substitute the given
        values and run the exact integer satisfiability test on what
        remains.
        """
        from repro.omega.satisfiability import satisfiable

        conj = self
        for var, value in env.items():
            if conj.uses(var):
                conj = conj.substitute(var, Affine.const_expr(value))
        leftover = [v for v in conj.variables() if v not in self.wildcards]
        if leftover:
            raise ValueError("unassigned free variables: %s" % (leftover,))
        return satisfiable(conj)

    # -- display ------------------------------------------------------------

    def stride_view(self) -> Tuple[List[Constraint], List[Tuple[int, Affine]]]:
        """Separate ordinary constraints from printable strides.

        Returns (other_constraints, strides) where each stride is
        ``(c, e)`` meaning ``c | e``.
        """
        others: List[Constraint] = []
        strides: List[Tuple[int, Affine]] = []
        for c in self.constraints:
            if c.is_eq():
                lone = [
                    v
                    for v in c.variables()
                    if v in self.wildcards and self.is_stride_wildcard(v)
                ]
                if len(lone) == 1:
                    w = lone[0]
                    k = c.coeff(w)
                    rest = Affine(
                        {v: cf for v, cf in c.expr.coeffs if v != w},
                        c.expr.const,
                    )
                    strides.append((abs(k), -rest if k > 0 else rest))
                    continue
            others.append(c)
        return others, strides

    def __str__(self) -> str:
        others, strides = self.stride_view()
        parts = [str(c) for c in others]
        parts.extend("%d | (%s)" % (m, e) for m, e in strides)
        body = " and ".join(parts) if parts else "TRUE"
        hidden = [
            w
            for w in self.wildcards
            if not self.is_stride_wildcard(w) and self.uses(w)
        ]
        if hidden:
            return "exists %s: %s" % (", ".join(sorted(hidden)), body)
        return body

    def __repr__(self) -> str:
        return "Conjunct(%s)" % self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Conjunct)
            and self.constraints == other.constraints
            and self.wildcards == other.wildcards
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.constraints, self.wildcards))
            )
        return self._hash


FALSE_CONJUNCTS: Tuple[Conjunct, ...] = ()
