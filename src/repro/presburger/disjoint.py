"""Disjoint disjunctive normal form (Section 5).

Counting sums the clauses of a DNF independently, so overlapping
clauses would be counted more than once (Section 4.5.1).  This module
provides:

* ``negate_constraint_in`` / ``disjoint_negation`` -- the *disjoint
  negation* of Section 5.3: ¬(c1 ∧ c2 ∧ ...) as the disjoint union
  ¬c1 + (c1 ∧ ¬c2) + (c1 ∧ c2 ∧ ¬c3) + ...
* ``project_to_stride_only`` -- eliminate every wildcard that is not a
  pure stride, splitting into disjoint pieces when the elimination
  splinters (Section 5.2).
* ``disjointify`` -- convert an arbitrary list of clauses into disjoint
  clauses using subset elimination, connected components,
  articulation-point extraction and gist simplification (Section 5.3's
  Steps 1-4).
"""

from typing import Callable, List, Optional, Set

from repro.omega.affine import Affine
from repro.omega.constraints import Constraint, fresh_var
from repro.omega.kernels import GEQ_ROW
from repro.omega.problem import Conjunct


class DisjointBudgetError(RuntimeError):
    """Disjointification exceeded its work budget."""


class WorkMeter:
    """A shared work budget for one disjointification job.

    Disjointification recurses through projection and nested
    disjointify calls; a single meter threads through all of them so
    the budget bounds the *total* work (nested calls must not reset
    the counter)."""

    __slots__ = ("units", "limit")

    def __init__(self, limit: int):
        self.units = 0
        self.limit = limit

    def charge(self, amount: int = 1) -> None:
        self.units += amount
        if self.units > self.limit:
            raise DisjointBudgetError(
                "disjointification budget exhausted (%d units)" % self.limit
            )


def negate_constraint_in(conj: Conjunct, constraint: Constraint) -> List[Conjunct]:
    """Disjoint clauses covering the negation of one constraint.

    ``conj`` supplies context: it tells us whether an equality is a
    stride (its wildcard lives only there).  GEQ: one clause.  Plain
    equality: two clauses (e >= 1, e <= -1).  Stride ``g | e``: the
    g - 1 clauses ``g | (e - r)`` for r = 1..g-1.
    """
    if constraint.is_geq():
        # ¬(e >= 0) is -e - 1 >= 0, built straight as a row.
        expr = constraint.expr
        negated = tuple([-cf for _, cf in expr.coeffs])
        row = (GEQ_ROW, -expr.const - 1) + negated
        return [Conjunct._from_rows(expr.variables(), (row,))]
    wilds = [
        v
        for v in constraint.variables()
        if v in conj.wildcards and conj.is_stride_wildcard(v)
    ]
    if not wilds:
        if any(v in conj.wildcards for v in constraint.variables()):
            raise ValueError(
                "cannot negate equality with non-stride wildcard: %s"
                % constraint
            )
        return [
            Conjunct([Constraint.geq(constraint.expr - 1)]),
            Conjunct([Constraint.geq(-constraint.expr - 1)]),
        ]
    if len(wilds) > 1:
        raise ValueError("non-canonical stride %s" % constraint)
    w = wilds[0]
    g = abs(constraint.coeff(w))
    sign = 1 if constraint.coeff(w) > 0 else -1
    rest = Affine(
        {v: c for v, c in constraint.expr.coeffs if v != w},
        constraint.expr.const,
    )
    # constraint: g·w·sign + rest == 0, i.e. g | rest; negation fans out
    # over the nonzero residues of (-sign·rest) mod g.
    e = -rest * sign
    out = []
    for r in range(1, g):
        out.append(Conjunct.true().add_stride(g, e - r))
    return out


def disjoint_negation(conj: Conjunct) -> List[Conjunct]:
    """¬conj as a list of pairwise-disjoint conjuncts.

    Requires every wildcard of ``conj`` to be stride-only (project
    first otherwise).  Implements ¬(c1∧c2∧...) =
    ¬c1 + c1∧¬c2 + c1∧c2∧¬c3 + ...
    """
    if not conj.stride_only():
        raise ValueError("disjoint_negation requires a stride-only conjunct")
    pieces: List[Conjunct] = []
    prior: List[Constraint] = []
    prior_wild: List[str] = []
    for c in conj.constraints:
        for neg in negate_constraint_in(conj, c):
            piece = Conjunct(
                list(prior) + list(neg.constraints),
                list(prior_wild) + list(neg.wildcards),
            ).normalize()
            if piece is not None:
                pieces.append(piece)
        prior.append(c)
        prior_wild.extend(
            v for v in c.variables() if v in conj.wildcards
        )
    return pieces


def project_to_stride_only(
    conj: Conjunct, budget: int = 25000, meter: Optional[WorkMeter] = None
) -> List[Conjunct]:
    """Eliminate non-stride wildcards, returning disjoint pieces.

    The result pieces have only stride-only wildcards; their disjoint
    union equals the original conjunct (as a predicate on the free
    variables).
    """
    from repro.omega.eliminate import eliminate_exact
    from repro.omega.equalities import eliminate_wildcards_from_equality
    from repro.omega.satisfiability import satisfiable

    if meter is None:
        meter = WorkMeter(budget)
    work = [conj]
    done: List[Conjunct] = []
    while work:
        current = work.pop()
        # charge by size: the satisfiability and elimination work on a
        # piece grows with its constraint count
        meter.charge(1 + len(current.constraints))
        n = current.normalize()
        if n is None:
            continue
        bad = [w for w in n.wildcards if not n.is_stride_wildcard(w)]
        if not bad:
            done.append(n)
            continue
        w = bad[0]
        in_eq = any(c.is_eq() and c.uses(w) for c in n.constraints)
        if in_eq:
            eq = next(c for c in n.constraints if c.is_eq() and c.uses(w))
            work.append(eliminate_wildcards_from_equality(n, eq).conjunct)
        else:
            pieces = eliminate_exact(n, w)
            if len(pieces) > 1:
                # Splinters may overlap; disjointify before continuing.
                pieces = disjointify(pieces, meter=meter)
            work.extend(pieces)
    feasible = []
    for c in done:
        meter.charge(1 + len(c.constraints))
        if satisfiable(c):
            feasible.append(c)
    if len(feasible) > 1:
        return disjointify(feasible, meter=meter)
    return feasible


def _implies(a: Conjunct, b: Conjunct) -> bool:
    from repro.omega.satisfiability import implies

    return implies(a, b)


def _overlap(a: Conjunct, b: Conjunct) -> bool:
    from repro.omega.satisfiability import satisfiable

    return satisfiable(a.merge(b))


def _overlap_graph(
    clauses: List[Conjunct],
    charge: Optional[Callable[[Conjunct, Conjunct], None]] = None,
) -> List[Set[int]]:
    """Adjacency sets of the overlap graph: ``j in adj[i]`` when
    clauses ``i`` and ``j`` share a point.  ``charge`` is called on
    each pair before its overlap test."""
    adj: List[Set[int]] = [set() for _ in clauses]
    for i in range(len(clauses)):
        for j in range(i + 1, len(clauses)):
            if charge is not None:
                charge(clauses[i], clauses[j])
            if _overlap(clauses[i], clauses[j]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def _components(adj: List[Set[int]]) -> List[List[int]]:
    """Connected components, ordered by least vertex, members ascending.

    The order is part of the output contract: it fixes the order of
    the disjoint clauses, and so the printed answer."""
    seen = [False] * len(adj)
    components: List[List[int]] = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(sorted(members))
    return components


def _articulation_points(adj: List[Set[int]]) -> List[int]:
    """Vertices whose removal splits their component, ascending.

    Hopcroft-Tarjan low points over an explicit depth-first stack, so
    a long path cannot hit the interpreter's recursion limit."""
    n = len(adj)
    disc = [-1] * n  # discovery time; -1 = not yet visited
    low = [0] * n
    points: Set[int] = set()
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        root_children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, neighbours = stack[-1]
            for w in neighbours:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        points.add(parent)
        if root_children > 1:
            points.add(root)
    return sorted(points)


def disjointify(
    clauses: List[Conjunct],
    budget: int = 50000,
    meter: Optional[WorkMeter] = None,
) -> List[Conjunct]:
    """Convert clauses to pairwise-disjoint clauses (Section 5.3).

    Step 1: drop clauses subsumed by another clause.
    Step 2: split into connected components of the overlap graph.
    Step 3: within a component, repeatedly extract one clause
            (articulation point preferred, then fewest constraints).
    Step 4: conjoin the remaining clauses with the *disjoint negation*
            of the gist of the extracted clause.

    A single :class:`WorkMeter` bounds the total work including nested
    projection; implication/overlap tests are charged proportionally
    to their wildcard count (a proxy for the eliminations the
    satisfiability test performs).  The default budget is sized so
    that small formulas with negated strides (whose disjoint negation
    fans out g - 1 residue clauses each) comfortably fit: a 7-atom
    formula mixing a quantifier with mod-4 strides already needs
    ~30k units, while genuine blowups run to millions.
    """
    from repro.omega.redundancy import gist
    from repro.omega.satisfiability import satisfiable

    if meter is None:
        meter = WorkMeter(budget)

    prepared: List[Conjunct] = []
    for c in clauses:
        n = c.normalize()
        if n is None:
            continue
        meter.charge(1 + len(n.constraints))
        if not satisfiable(n):
            continue
        if n.stride_only():
            prepared.append(n)
        else:
            prepared.extend(project_to_stride_only(n, meter=meter))

    if len(prepared) <= 1:
        return prepared

    def charge_pair(a: Conjunct, b: Conjunct) -> None:
        meter.charge(
            1
            + len(a.wildcards)
            + len(b.wildcards)
            + (len(a.constraints) + len(b.constraints)) // 4
        )

    # Step 1: subset elimination.
    kept: List[Conjunct] = []
    for c in prepared:
        for other in kept:
            charge_pair(c, other)
        if any(_implies(c, other) for other in kept):
            continue
        kept = [k for k in kept if not _implies(k, c)]
        kept.append(c)

    # Step 2: connected components of the overlap graph.
    result: List[Conjunct] = []
    for component in _components(_overlap_graph(kept, charge_pair)):
        remaining = [kept[i] for i in component]
        while remaining:
            meter.charge()
            pick = _pick_extraction(remaining)
            extracted = remaining.pop(pick)
            result.append(extracted)
            if not remaining:
                break
            new_remaining: List[Conjunct] = []
            for other in remaining:
                charge_pair(extracted, other)
                interesting = gist(extracted, other)
                if interesting.is_trivial_true():
                    continue  # other ⊆ extracted: fully covered
                for neg in disjoint_negation(interesting):
                    piece = other.merge(neg).normalize()
                    if piece is None:
                        continue
                    meter.charge()
                    if satisfiable(piece):
                        new_remaining.append(piece)
            remaining = new_remaining
    return result


def _pick_extraction(remaining: List[Conjunct]) -> int:
    """Step 3 heuristics: articulation point, then fewest constraints.

    Ties go to the least index."""
    if len(remaining) > 2:
        articulation = _articulation_points(_overlap_graph(remaining))
        if articulation:
            return min(
                articulation, key=lambda i: len(remaining[i].constraints)
            )
    return min(
        range(len(remaining)), key=lambda i: len(remaining[i].constraints)
    )


def to_disjoint_dnf(formula, budget: int = 50000) -> List[Conjunct]:
    """Formula → disjoint DNF clauses (the paper's preferred output)."""
    from repro.presburger.dnf import to_dnf

    return disjointify(to_dnf(formula), budget=budget)
