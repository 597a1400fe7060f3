"""Conjuncts: conjunctions of constraints with existential wildcards.

A :class:`Conjunct` is the Omega test's unit of work: a set of GEQ/EQ
constraints over named integer variables, together with a set of
*wildcard* variables that are implicitly existentially quantified
(the "auxiliary variables" of the paper's projected format).

A conjunct's state is its dense row block (:mod:`repro.omega.kernels`):
the sorted tuple of the names it uses, one int row per constraint and
the wildcard set.  Normalize, substitution, renaming, merging, bounds
and the satisfiability and Fourier-Motzkin steps all run on the rows.
:attr:`Conjunct.constraints` is a view: a tuple of
:class:`~repro.omega.constraints.Constraint` objects built from the
rows the first time something reads it (printing, canonical keys,
callers outside the Omega core), then kept.  A conjunct built from
constraints keeps the ones it was given as that view.

Stride constraints ``c | e`` are stored as ``c·w == e`` for a wildcard
``w`` that appears in no other constraint ("stride-only" wildcards);
:meth:`Conjunct.stride_view` recovers the readable form.
"""

from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core import stats
from repro.omega import kernels
from repro.omega.affine import Affine
from repro.omega.constraints import EQ, Constraint, fresh_var

#: Sentinel for "normalize() has not run yet on this instance".
_MEMO_UNSET = object()

_EMPTY_FROZENSET = frozenset()

#: Master switch for the per-instance normalize memo (the differential
#: tests turn it off to prove memoization never changes results).
_NORMALIZE_MEMO_ENABLED = True

_set = object.__setattr__

Row = Tuple[int, ...]


def set_normalize_memo(enabled: bool) -> bool:
    """Enable/disable the normalize memo; returns the previous state."""
    global _NORMALIZE_MEMO_ENABLED
    previous = _NORMALIZE_MEMO_ENABLED
    _NORMALIZE_MEMO_ENABLED = bool(enabled)
    return previous


class Conjunct:
    """An immutable conjunction ``∃ wildcards . c1 ∧ c2 ∧ ...``."""

    __slots__ = (
        "_index",
        "_rows",
        "wildcards",
        "_pos",
        "_cons",
        "_hash",
        "_normalized",
    )

    def __init__(
        self,
        constraints: Iterable[Constraint] = (),
        wildcards: Iterable[str] = (),
    ):
        cons = tuple(constraints)
        index, pos, rows = kernels.rows_from_constraints(cons)
        if len(dict.fromkeys(rows)) != len(rows):
            first: Dict[Row, Constraint] = {}
            for row, c in zip(rows, cons):
                first.setdefault(row, c)
            rows, cons = tuple(first), tuple(first.values())
        wildcards = tuple(wildcards)
        if wildcards:
            wildset = frozenset(w for w in wildcards if w in pos)
        else:
            wildset = _EMPTY_FROZENSET
        _set(self, "_index", index)
        _set(self, "_rows", rows)
        _set(self, "wildcards", wildset)
        _set(self, "_pos", pos)
        _set(self, "_cons", cons)
        _set(self, "_hash", None)
        _set(self, "_normalized", _MEMO_UNSET)

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

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """The constraints, one per row, built on first read."""
        cons = self._cons
        if cons is None:
            index = self._index
            cons = tuple(
                [kernels.constraint_from_row(index, row) for row in self._rows]
            )
            _set(self, "_cons", cons)
        return cons

    # -- row block ---------------------------------------------------------

    @classmethod
    def _make(
        cls,
        index: Tuple[str, ...],
        rows: Tuple[Row, ...],
        wildcards: FrozenSet[str],
        pos: Optional[Dict[str, int]] = None,
        cons: Optional[Tuple[Constraint, ...]] = None,
    ) -> "Conjunct":
        """A conjunct over a block that already keeps the invariants.

        ``rows`` are distinct and sign-canonical over ``index``, every
        index column is live, and ``wildcards`` is a subset of the
        index.  ``pos`` and ``cons`` are views of the same block, if the
        caller has them.
        """
        conj = object.__new__(cls)
        _set(conj, "_index", index)
        _set(conj, "_rows", rows)
        _set(conj, "wildcards", wildcards)
        _set(conj, "_pos", pos)
        _set(conj, "_cons", cons)
        _set(conj, "_hash", None)
        _set(conj, "_normalized", _MEMO_UNSET)
        return conj

    @classmethod
    def _from_rows(
        cls,
        index: Tuple[str, ...],
        rows: Iterable[Row],
        wildcards: Iterable[str] = (),
    ) -> "Conjunct":
        """Build a conjunct from sign-canonical rows over ``index``.

        The row-level counterpart of the constructor: duplicate rows
        are dropped (first occurrence kept), columns no row uses leave
        the index, and wildcards the rows do not use are dropped.
        """
        rows = tuple(dict.fromkeys(rows))
        index, rows = kernels.compact(index, rows)
        if wildcards:
            wildset = frozenset(w for w in wildcards if w in index)
        else:
            wildset = _EMPTY_FROZENSET
        return cls._make(index, rows, wildset)

    @classmethod
    def _normalized_from_rows(
        cls, index: Tuple[str, ...], rows: Iterable[Row]
    ) -> Optional["Conjunct"]:
        """Normalize a wildcard-free row block entirely at row level.

        With no wildcards the stride tail of :meth:`_finish_normalize`
        is the identity, so the whole normalize fixed point runs on
        the rows -- the shape of every Fourier-Motzkin child in the
        satisfiability recursion.  Produces the same conjunct (same
        order, same memo state) as building the raw conjunct and
        calling :meth:`normalize`.
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
        conj = cls._from_rows(index, rows)
        if _NORMALIZE_MEMO_ENABLED:
            _set(conj, "_normalized", conj)
        return conj

    def _positions(self) -> Dict[str, int]:
        """Name -> row slot of every index name, built once."""
        pos = self._pos
        if pos is None:
            pos = {v: j for j, v in enumerate(self._index, 2)}
            _set(self, "_pos", pos)
        return pos

    def _row_of(self, constraint: Constraint) -> Optional[Row]:
        """``constraint`` as a row over this block's index.

        ``None`` when it uses a name outside the index (so it cannot be
        one of this conjunct's rows).
        """
        kind = kernels.EQ_ROW if constraint.kind == EQ else kernels.GEQ_ROW
        try:
            return kernels.row_from_affine(
                self._positions(), len(self._index) + 2, constraint.expr, kind
            )
        except KeyError:
            return None

    def _with_rows(
        self,
        index: Tuple[str, ...],
        rows: Iterable[Row],
        wildcards: Iterable[str] = (),
    ) -> "Conjunct":
        """This conjunct's rows followed by ``rows`` over ``index``.

        ``rows`` use every name of ``index`` that this conjunct does
        not, so no column of the result is dead; ``wildcards`` must be
        used by ``rows``.
        """
        wider = kernels.union_index(self._index, index)
        combined = tuple(
            dict.fromkeys(
                list(kernels.reindex(self._index, self._rows, wider))
                + list(kernels.reindex(index, rows, wider))
            )
        )
        wildset = self.wildcards.union(wildcards)
        return Conjunct._make(wider, combined, wildset)

    def variables(self) -> Tuple[str, ...]:
        """Used names in order of first occurrence (row by row, each
        row in name order)."""
        index = self._index
        seen: Dict[str, None] = {}
        for row in self._rows:
            for j, v in enumerate(index, 2):
                if row[j]:
                    seen[v] = None
            if len(seen) == len(index):
                break
        return tuple(seen)

    def free_variables(self) -> Tuple[str, ...]:
        return tuple(v for v in self.variables() if v not in self.wildcards)

    def geqs(self) -> List[Constraint]:
        return [
            c for c, row in zip(self.constraints, self._rows) if not row[0]
        ]

    def eqs(self) -> List[Constraint]:
        return [c for c, row in zip(self.constraints, self._rows) if row[0]]

    def is_trivial_true(self) -> bool:
        return not self._rows

    def uses(self, var: str) -> bool:
        return var in self._index

    def constraints_on(self, var: str) -> List[Constraint]:
        j = self._positions().get(var)
        if j is None:
            return []
        return [c for c, row in zip(self.constraints, self._rows) if row[j]]

    def is_stride_wildcard(self, w: str) -> bool:
        """True if w occurs in exactly one constraint and it is an EQ."""
        j = self._positions().get(w)
        if j is None:
            return False
        hit = None
        for row in self._rows:
            if row[j]:
                if hit is not None:
                    return False
                hit = row
        return bool(hit[0])

    def stride_only(self) -> bool:
        """All wildcards are stride-only (answer-format conjunct)."""
        return all(self.is_stride_wildcard(w) for w in self.wildcards)

    # -- construction helpers ----------------------------------------------

    def with_constraints(self, extra: Iterable[Constraint]) -> "Conjunct":
        index, _, rows = kernels.rows_from_constraints(tuple(extra))
        return self._with_rows(index, rows)

    def with_wildcards(self, extra: Iterable[str]) -> "Conjunct":
        index = self._index
        wildset = self.wildcards.union(w for w in extra if w in index)
        return Conjunct._make(
            index, self._rows, wildset, self._pos, self._cons
        )

    def without_constraints(self, remove: Iterable[Constraint]) -> "Conjunct":
        removed = {self._row_of(c) for c in remove}
        return Conjunct._from_rows(
            self._index,
            [row for row in self._rows if row not in removed],
            self.wildcards,
        )

    def add_stride(self, modulus: int, expr: Affine) -> "Conjunct":
        """Add the stride constraint ``modulus | expr``."""
        if modulus <= 0:
            raise ValueError("stride modulus must be positive")
        if modulus == 1:
            return self
        w = fresh_var("s")
        eq = Constraint.equal(Affine({w: modulus}), expr)
        index, _, rows = kernels.rows_from_constraints((eq,))
        return self._with_rows(index, rows, (w,))

    def merge(self, other: "Conjunct") -> "Conjunct":
        """Conjoin two conjuncts, renaming wildcards to avoid capture."""
        if other.wildcards and not other.wildcards.isdisjoint(self._index):
            # Renaming is only needed when a wildcard of ``other``
            # collides with a name of ``self`` (fresh_var names are
            # process-unique, so collisions only arise from shared
            # ancestry).  Skipping the rename keeps names stable,
            # which is what makes the satisfiability cache effective.
            other = other.rename_wildcards()
        return self._with_rows(other._index, other._rows, other.wildcards)

    def rename_wildcards(self) -> "Conjunct":
        if not self.wildcards:
            return self
        return self.rename({w: fresh_var("r") for w in sorted(self.wildcards)})

    def substitute(
        self, var: str, replacement: Affine, denominator: int = 1
    ) -> "Conjunct":
        """Replace ``var`` by ``replacement / denominator`` in every row.

        A fraction is valid when ``denominator · var == replacement``
        is known to hold (``denominator`` > 0): a row that uses ``var``
        is scaled by the denominator, so everything stays integral.
        """
        index, rows = self._index, self._rows
        col = self._positions().get(var)
        if col is None:
            return Conjunct._make(
                index, rows, self.wildcards, self._pos, self._cons
            )
        wider = kernels.union_index(index, replacement.variables())
        if wider is not index:
            rows = kernels.reindex(index, rows, wider)
            col = wider.index(var) + 2
        slot = {v: j for j, v in enumerate(wider, 2)}
        repl = kernels.row_from_affine(
            slot, len(wider) + 2, replacement, kernels.GEQ_ROW
        )
        out = []
        for row in rows:
            a = row[col]
            if not a:
                out.append(row)
                continue
            new = [denominator * x + a * y for x, y in zip(row, repl)]
            new[0] = row[0]
            new[col] -= denominator * a
            out.append(kernels.resign(tuple(new)))
        return Conjunct._from_rows(wider, out, self.wildcards)

    def _solve_unit(self, eq: Row, col: int) -> "Conjunct":
        """Drop the row ``eq`` and eliminate the name in slot ``col``.

        The name's coefficient in ``eq`` is ±1, so ``eq`` solves for
        it: every other row ``r`` becomes ``r - r[col]·eq[col]·eq``.
        Wildcards used only by ``eq`` stop being wildcards before the
        substitution, as if ``eq`` were removed first.
        """
        k = eq[col]
        rest = [row for row in self._rows if row != eq]
        wildcards = self.wildcards
        if wildcards:
            pos = self._positions()
            wildcards = [
                w for w in wildcards if any(row[pos[w]] for row in rest)
            ]
        out = []
        for row in rest:
            m = row[col] * k
            if not m:
                out.append(row)
                continue
            new = [x - m * y for x, y in zip(row, eq)]
            new[0] = row[0]
            out.append(kernels.resign(tuple(new)))
        return Conjunct._from_rows(self._index, out, wildcards)

    def rename(self, mapping: Mapping[str, str]) -> "Conjunct":
        """Rename variables; names mapped together add their columns.

        EQ rows are re-signed for the new column order, as the
        constraints would be.
        """
        names = [mapping.get(v, v) for v in self._index]
        target = tuple(sorted(set(names)))
        slot = {v: j for j, v in enumerate(target, 2)}
        out = []
        for row in self._rows:
            new = [row[0], row[1]] + [0] * len(target)
            for j, v in enumerate(names, 2):
                new[slot[v]] += row[j]
            out.append(kernels.resign(tuple(new)))
        return Conjunct._from_rows(
            target, out, [mapping.get(w, w) for w in self.wildcards]
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
            if step == current:
                result = current
                break
            if _NORMALIZE_MEMO_ENABLED and step._normalized is not _MEMO_UNSET:
                result = step._normalized
                break
            chain.append(step)
            current = step
        if _NORMALIZE_MEMO_ENABLED:
            _set(self, "_normalized", result)
            for link in chain:
                _set(link, "_normalized", result)
            if result is not None:
                _set(result, "_normalized", result)
        return result

    def _normalize_once(self) -> Optional["Conjunct"]:
        """One canonicalization pass (see :meth:`normalize`).

        The scale/tighten/merge sweep is
        :func:`repro.omega.kernels.normalize_rows`; the stride tail
        (:meth:`_finish_normalize`) runs on the same rows.
        """
        index, rows = self._index, self._rows
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
            return Conjunct._from_rows(index, out)
        return self._finish_normalize(eq_rows, geq_rows)

    def _finish_normalize(
        self, eq_rows: List[Row], geq_rows: List[Row]
    ) -> Optional["Conjunct"]:
        """Normalization tail: canonicalize stride equalities.

        An EQ row is a stride when some of its wildcards occur in no
        other row ("lone" wildcards).  With g the gcd of their
        coefficients, the row says ``g | rest``: it is dropped when g
        is 1 or ``rest`` reduces to a constant g divides (infeasible
        when it does not), dropped as a duplicate of an earlier stride
        with the same g and residue class, kept when it already is the
        canonical ``g·w == reduced`` over its one lone wildcard, and
        otherwise replaced by that canonical form over a fresh
        wildcard.  The only part of normalization that mints names.
        """
        index = self._index
        if not self.wildcards:
            return Conjunct._from_rows(index, eq_rows + geq_rows)
        wildcards = set(self.wildcards)
        wild_slots = [
            j for j, v in enumerate(index, 2) if v in wildcards
        ]
        occurrences = {
            j: sum(1 for row in eq_rows if row[j])
            + sum(1 for row in geq_rows if row[j])
            for j in wild_slots
        }
        plain: List[Row] = []
        # Kept stride rows, and (name, g, coeffs, const) for the strides
        # minted over a fresh wildcard, in one list to keep their order.
        strides: list = []
        stride_seen = set()
        for row in dict.fromkeys(eq_rows):
            lone = [j for j in wild_slots if row[j] and occurrences[j] == 1]
            if not lone:
                plain.append(row)
                continue
            lone_names = [index[j - 2] for j in lone]
            g = 0
            for j in lone:
                g = gcd(g, row[j])
            if g == 1:
                wildcards.difference_update(lone_names)
                continue  # ∃w: g·w == rest is always solvable
            rest = list(row)
            for j in lone:
                rest[j] = 0
            # The stride is determined by g and the residue class of
            # ``rest`` up to sign; pick the lexicographically smaller of
            # the two reduced representatives so normalization is a
            # fixed point (see tests: strides must not oscillate).
            r0 = (tuple([cf % g for cf in rest[2:]]), rest[1] % g)
            r1 = (tuple([(-cf) % g for cf in rest[2:]]), (-rest[1]) % g)
            coeffs, const = min(r0, r1)
            if not any(coeffs):
                wildcards.difference_update(lone_names)
                if const % g:
                    return None
                continue
            # Reuse the existing wildcard when the constraint is already
            # canonical (otherwise normalize would never reach a fixed
            # point, minting a fresh name each pass).
            key = (g, coeffs, const)
            if key in stride_seen:  # duplicate stride: drop this copy
                wildcards.difference_update(lone_names)
                continue
            stride_seen.add(key)
            canonical = [kernels.EQ_ROW, -const] + [-cf for cf in coeffs]
            canonical[lone[0]] = g
            if len(lone) == 1 and row == kernels.resign(tuple(canonical)):
                strides.append(row)
                continue
            wildcards.difference_update(lone_names)
            w = fresh_var("s")
            wildcards.add(w)
            strides.append((w, g, coeffs, const))
        fresh = [s[0] for s in strides if isinstance(s[0], str)]
        if not fresh:
            return Conjunct._from_rows(
                index, plain + strides + geq_rows, wildcards
            )
        wider = tuple(sorted(set(index).union(fresh)))
        slot = {v: j for j, v in enumerate(wider, 2)}
        out = list(kernels.reindex(index, plain, wider))
        for stride in strides:
            if not isinstance(stride[0], str):  # a kept row
                out.extend(kernels.reindex(index, (stride,), wider))
                continue
            w, g, coeffs, const = stride
            row = [kernels.EQ_ROW, -const] + [0] * len(wider)
            for v, cf in zip(index, coeffs):
                if cf:
                    row[slot[v]] = -cf
            row[slot[w]] = g
            out.append(kernels.resign(tuple(row)))
        out.extend(kernels.reindex(index, geq_rows, wider))
        return Conjunct._from_rows(wider, out, wildcards)

    # -- bounds ------------------------------------------------------------

    def bounds_on(self, var: str):
        """Split the GEQ constraints into bounds on ``var``.

        Returns ``(lowers, uppers, rest)`` where ``lowers`` is a list of
        ``(b, β)`` meaning β <= b·var (b > 0), ``uppers`` a list of
        ``(a, α)`` meaning a·var <= α (a > 0), and ``rest`` the
        constraints not mentioning ``var``.  Equalities mentioning
        ``var`` are a caller error (eliminate them first).  The split
        is :func:`repro.omega.kernels.bounds_split` on the rows; bound
        expressions and ``rest`` are built from the rows it returns.
        """
        col = self._positions().get(var)
        if col is None:
            return [], [], list(self.constraints)
        index = self._index
        try:
            lowers, uppers, rest = kernels.bounds_split(self._rows, col)
        except ValueError:
            raise ValueError(
                "bounds_on(%s): an equality on it is not eliminated" % var
            ) from None
        return (
            [kernels.bound_from_row(index, row, col) for row in lowers],
            [kernels.bound_from_row(index, row, col) for row in uppers],
            [kernels.constraint_from_row(index, row) for row in rest],
        )

    def bounds_profiles(self) -> Dict[str, Tuple[int, int, bool, bool]]:
        """Bound profile of every variable in one pass.

        Maps each variable to ``(n_lowers, n_uppers, all_unit_lowers,
        all_unit_uppers)`` over the GEQ constraints -- the facts the
        satisfiability loop needs to pick its elimination variable --
        from a single sweep of the row block.
        """
        index = self._index
        profiles = kernels.bounds_profiles(self._rows, len(index) + 2)
        return {v: profiles[j] for j, v in enumerate(index, 2)}

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
        return self is other or (
            isinstance(other, Conjunct)
            and self._rows == other._rows
            and self._index == other._index
            and self.wildcards == other.wildcards
        )

    def __hash__(self) -> int:
        if self._hash is None:
            _set(
                self, "_hash", hash((self._index, self._rows, self.wildcards))
            )
        return self._hash


FALSE_CONJUNCTS: Tuple[Conjunct, ...] = ()
