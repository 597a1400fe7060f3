"""Alpha-invariant canonicalization shared by hashing and memoization.

Two clients need to decide "is this problem the same as one I have
seen, up to renaming?":

* the batch service's request hashing
  (:mod:`repro.service.request`), which canonicalizes a parsed
  *formula* counted over a set of variables, and
* the answer memo (:mod:`repro.core.memo`), which canonicalizes a
  single *conjunct* plus summation variables, summand polynomial and
  mode at every node of the counting recursion.

Both are built on the same two-pass scheme.  Pass one assigns
canonical names to variables by **iterative signature refinement**
(:func:`_refine`): each variable's signature is the multiset of its
atom occurrences (atom shape with renameable names masked, its own
coefficient, and the coefficient/rank of co-occurring renameable
variables), refined until the rank partition stabilizes -- every
ingredient is alpha-invariant, so the final ranking is too.  Pass two
serializes the structure with the assigned names, sorting unordered
parts, which makes operand/constraint order irrelevant.

Variables left tied at the refinement fixpoint are structurally
interchangeable for every signature the refinement can see; for such
ties the assignment is broken by original name, which can, for
genuinely asymmetric inputs engineered to defeat refinement, cost a
duplicate cache entry -- never a wrong hit, since every key stays a
*complete* serialization of its input.

Canonical names live in control-character namespaces no user
identifier can occupy:

* ``"\\x02" + index`` -- bound variables (counted variables,
  quantifier-bound variables, conjunct wildcards),
* ``"\\x03" + index`` -- free symbolic constants, used only by the
  conjunct-level key, which must rename free symbols too so a cached
  answer can be *renamed back* into the caller's vocabulary on a hit.

(The satisfiability cache's key uses ``"\\x00"`` and the pass-one mask
is ``"\\x01"``; the namespaces are deliberately disjoint.)

The memo gates the conjunct key on :func:`conjunct_fingerprint`, a
name-free summary built from the same pass-one constraint descriptors
without any refinement; equal keys always give equal fingerprints.
"""

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.omega.affine import Affine
from repro.omega.problem import Conjunct
from repro.presburger.ast import (
    And,
    Atom,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    Or,
    StrideAtom,
    TrueF,
)
from repro.qpoly import Polynomial

#: Placeholder for a renameable variable in the shape (pass-one) key.
_MASK = "\x01"

#: Prefix for canonical bound-variable names in the exact (pass-two)
#: serialization.  A control character keeps canonical names outside
#: the identifier namespace: free constants keep their user-visible
#: names in the formula-level key, so naming one ``b0`` must not make
#: it serialize identically to a canonically-renamed bound variable.
_BOUND_PREFIX = "\x02"

#: Prefix for canonical free-symbol names in the conjunct-level key.
FREE_PREFIX = "\x03"


# -- pass one: iterative signature refinement ----------------------------


def _refine(
    variables,
    marks: Mapping[str, Sequence[str]],
    atoms: Sequence[Tuple[str, Sequence[Tuple[str, int]], bool]],
) -> Dict[str, int]:
    """Rank variables by iterative refinement of occurrence signatures.

    ``atoms`` holds one ``(descriptor, [(var, coeff), ...], is_eq)``
    triple per atom, where the descriptor is alpha-invariant and the
    pairs list the renameable variables the atom mentions.  ``marks``
    gives extra string occurrences (quantifier context, variable role)
    per variable.  Returns a rank for every variable; equal ranks mean
    the refinement could not distinguish the variables.
    """
    rank: Dict[str, int] = {v: 0 for v in variables}
    for _ in range(len(rank) + 1):
        sigs: Dict[str, str] = {}
        for v in rank:
            # Own previous rank first: refinement only ever splits
            # classes, so the loop terminates in <= |variables| rounds.
            parts: List = [("r", rank[v])]
            parts.extend(("q", m) for m in marks.get(v, ()))
            for desc, pairs, is_eq in atoms:
                occurrences = [c for u, c in pairs if u == v]
                if not occurrences:
                    continue
                others = sorted((k, rank[w]) for w, k in pairs if w != v)
                if is_eq:
                    # Record the sign-canonical orientation; an EQ atom
                    # is the same constraint negated.
                    flipped = sorted((-k, r) for k, r in others)
                    for c in occurrences:
                        parts.append(
                            ("a", desc)
                            + min((c, others), (-c, flipped))
                        )
                else:
                    for c in occurrences:
                        parts.append(("a", desc, c, others))
            sigs[v] = repr(sorted(parts))
        ordered = sorted(set(sigs.values()))
        position = {s: i for i, s in enumerate(ordered)}
        refined = {v: position[sigs[v]] for v in rank}
        if refined == rank:
            break
        rank = refined
    return rank


# -- formula-level canonicalization (the request-hash client) ------------


def _affine_shape(expr: Affine, bound) -> str:
    masked = sorted(
        (_MASK if v in bound else v, c) for v, c in expr.coeffs
    )
    return "%s+%d" % (masked, expr.const)


def _collect_occurrences(
    node: Formula,
    bound: frozenset,
    context: str,
    atoms: List[Tuple[str, List[Tuple[str, int]], bool]],
    marks: Dict[str, List[str]],
) -> None:
    """Pass-one scan: atom occurrences of bound variables.

    ``atoms`` receives ``(descriptor, [(var, coeff), ...], is_eq)``
    per atom, where the descriptor (atom shape with bound names masked
    plus the boolean-context path) is alpha-invariant.  ``marks``
    gives every quantifier-bound variable a baseline occurrence so a
    variable the body never mentions still gets a signature.
    """
    if node is TrueF or node is FalseF:
        return
    if isinstance(node, Atom):
        c = node.constraint
        if c.is_eq():
            # e = 0 and -e = 0 are the same atom, and Constraint.eq
            # orients the sign by variable *names* -- mask that out or
            # renaming would perturb the signatures.
            shape = min(
                _affine_shape(c.expr, bound),
                _affine_shape(-c.expr, bound),
            )
        else:
            shape = _affine_shape(c.expr, bound)
        desc = "%s:a(%s,%s)" % (context, c.kind, shape)
        atoms.append(
            (
                desc,
                [(v, k) for v, k in c.expr.coeffs if v in bound],
                c.is_eq(),
            )
        )
        return
    if isinstance(node, StrideAtom):
        desc = "%s:s(%d,%s)" % (
            context,
            node.modulus,
            _affine_shape(node.expr, bound),
        )
        atoms.append(
            (desc, [(v, k) for v, k in node.expr.coeffs if v in bound], False)
        )
        return
    if isinstance(node, Not):
        _collect_occurrences(node.child, bound, context + "n", atoms, marks)
        return
    if isinstance(node, (And, Or)):
        tag = "&" if isinstance(node, And) else "|"
        for child in node.children:
            _collect_occurrences(child, bound, context + tag, atoms, marks)
        return
    if isinstance(node, (Exists, Forall)):
        tag = "E" if isinstance(node, Exists) else "A"
        ctx = "%s%s%d" % (context, tag, len(node.variables))
        for v in node.variables:
            marks.setdefault(v, []).append(ctx)
        inner = bound | frozenset(node.variables)
        _collect_occurrences(node.body, inner, ctx, atoms, marks)
        return
    raise TypeError("unknown formula node %r" % (node,))


def _canonical_names(
    formula: Formula,
    over: Sequence[str],
    poly: Optional[Polynomial] = None,
) -> Dict[str, str]:
    """Alpha-invariant canonical names for every bound variable.

    Iterative refinement (see :func:`_refine`); original names only
    break ties between variables the refinement cannot tell apart
    (i.e. interchangeable for every signature it can see).

    For a ``sum`` request the summand also distinguishes variables: a
    formula symmetric in two counted variables with an asymmetric
    summand (``j*j*i`` over a box) must not fall through to the
    original-name tie-break, or renaming would flip which variable the
    canonical summand squares.  The poly's role marks are applied as a
    *secondary* key only -- they split ties but never reorder
    variables the formula refinement already separated, so hashes of
    non-degenerate requests are unchanged.
    """
    atoms: List[Tuple[str, List[Tuple[str, int]], bool]] = []
    marks: Dict[str, List[str]] = {}
    _collect_occurrences(formula, frozenset(over), "", atoms, marks)
    variables = set(over) | set(marks)
    for _, pairs, _eq in atoms:
        variables.update(v for v, _ in pairs)
    if not variables:
        return {}
    rank = _refine(variables, marks, atoms)
    tied = len(set(rank.values())) < len(rank)
    if poly is not None and tied:
        pmarks: Dict[str, List[str]] = {}
        _poly_marks(poly, pmarks)
        poly_key = {v: repr(sorted(pmarks.get(v, ()))) for v in variables}
        ordered = sorted(variables, key=lambda v: (rank[v], poly_key[v], v))
    else:
        ordered = sorted(variables, key=lambda v: (rank[v], v))
    return {
        v: "%s%d" % (_BOUND_PREFIX, index) for index, v in enumerate(ordered)
    }


def _affine_exact(expr: Affine, bound, names: Dict[str, str]) -> str:
    """Serialize with canonical names applied to in-scope bound vars."""
    out = [
        (names[v] if v in bound else v, c) for v, c in expr.coeffs
    ]
    return "%s+%d" % (sorted(out), expr.const)


def _canonical(node: Formula, bound: frozenset, names: Dict[str, str]) -> str:
    """Pass two: emit the canonical form with precomputed names.

    ``and`` / ``or`` children are ordered by their finished canonical
    serialization, so operand order cannot leak into the key.
    """
    if node is TrueF:
        return "T"
    if node is FalseF:
        return "F"
    if isinstance(node, Atom):
        c = node.constraint
        body = _affine_exact(c.expr, bound, names)
        if c.is_eq():
            # Constraint.eq orients the sign by variable names; pick
            # the lexicographically smaller of the two equivalent
            # orientations so renaming cannot flip the serialization.
            body = min(body, _affine_exact(-c.expr, bound, names))
        return "a(%s,%s)" % (c.kind, body)
    if isinstance(node, StrideAtom):
        return "s(%d,%s)" % (
            node.modulus,
            _affine_exact(node.expr, bound, names),
        )
    if isinstance(node, Not):
        return "n(%s)" % _canonical(node.child, bound, names)
    if isinstance(node, (And, Or)):
        tag = "&" if isinstance(node, And) else "|"
        return "%s(%s)" % (
            tag,
            ",".join(
                sorted(_canonical(c, bound, names) for c in node.children)
            ),
        )
    if isinstance(node, (Exists, Forall)):
        tag = "E" if isinstance(node, Exists) else "A"
        inner = bound | frozenset(node.variables)
        body = _canonical(node.body, inner, names)
        quantified = sorted(names[v] for v in node.variables)
        return "%s[%s](%s)" % (tag, ",".join(quantified), body)
    raise TypeError("unknown formula node %r" % (node,))


def canonical_formula_key(
    formula: Formula,
    over: Sequence[str],
    poly: Optional[Polynomial] = None,
) -> Tuple[str, Dict[str, str]]:
    """Canonical string for a formula counted over ``over``.

    Returns ``(key, names)`` where ``names`` maps every bound variable
    (counted or quantifier-bound, whether or not it occurs) to its
    canonical name (needed to canonicalize a summand polynomial
    consistently).  For ``sum`` requests pass the summand: its role
    marks break naming ties between variables the formula cannot
    distinguish (see :func:`_canonical_names`).
    """
    names = _canonical_names(formula, over, poly)
    key = _canonical(formula, frozenset(over), names)
    return key, names


def track_order_key(
    key: str, names: Mapping[str, str], over: Sequence[str]
) -> str:
    """A formula key plus the canonical names of ``over`` in query order.

    The resident-automaton key (:func:`repro.automaton.automaton_key`):
    track order changes an automaton's letter layout, so it is part of
    the identity; variable spellings are not.  ``key`` and ``names``
    come from :func:`canonical_formula_key` without a summand.
    """
    return "%s||%s" % (key, ",".join(names.get(v, v) for v in over))


# -- conjunct-level canonicalization (the answer-memo client) ------------


def _shape_all(expr: Affine) -> str:
    """Atom shape with *every* variable masked (all get renamed here)."""
    masked = sorted((_MASK, c) for _, c in expr.coeffs)
    return "%s+%d" % (masked, expr.const)


def _constraint_shape(c) -> str:
    """Pass-one descriptor of one conjunct constraint.

    Every name is masked; an EQ takes the smaller of its two
    orientations, since ``e = 0`` and ``-e = 0`` are one constraint.
    """
    if c.is_eq():
        shape = min(_shape_all(c.expr), _shape_all(-c.expr))
    else:
        shape = _shape_all(c.expr)
    return "a(%s,%s)" % (c.kind, shape)


def _poly_marks(poly: Polynomial, marks: Dict[str, List[str]]) -> None:
    """Role marks recording how each variable occurs in the summand.

    Per monomial occurrence: the coefficient, whether the variable is
    a plain power or sits inside a mod atom, and its own exponent or
    mod coefficient.  Coarser than full refinement over the polynomial
    but enough to split most summand asymmetries before name ties.
    """
    for mono, coef in poly.terms.items():
        for atom, exp in mono:
            if isinstance(atom, str):
                marks.setdefault(atom, []).append(
                    "p(%s,^%d)" % (coef, exp)
                )
            else:
                for v, k in atom.coeffs:
                    marks.setdefault(v, []).append(
                        "pm(%s,%d,%d,%d)" % (coef, atom.modulus, k, exp)
                    )


def _affine_canon(expr: Affine, names: Mapping[str, str]) -> str:
    out = sorted((names[v], c) for v, c in expr.coeffs)
    return "%s+%d" % (out, expr.const)


def canonical_conjunct_key(
    conj: Conjunct,
    cvars: Sequence[str],
    poly: Polynomial,
    mode: str = "",
) -> Tuple[str, Dict[str, str], Dict[str, str]]:
    """Alpha-invariant key for one node of the counting recursion.

    A node is ``(Σ cvars : conj : poly)`` computed under ``mode`` (a
    caller-supplied string folding in the strategy and every option
    that can change the answer).  Unlike the formula-level key, *free*
    symbols are renamed too (into the :data:`FREE_PREFIX` namespace):
    two nodes that differ only in their free-symbol names produce the
    same key, and the returned maps let the memo translate a cached
    answer back into the caller's vocabulary.

    Returns ``(key, to_canonical, from_canonical)`` where
    ``to_canonical`` maps every variable in sight (bound and free) to
    its canonical name and ``from_canonical`` is the exact inverse.

    Soundness: the key is a complete serialization of the node under
    the assignment, so equal keys imply the assignment composes to a
    genuine isomorphism of nodes -- renaming one node's answer through
    it yields a correct answer for the other.
    """
    bound = set(cvars) | set(conj.wildcards)
    atoms: List[Tuple[str, List[Tuple[str, int]], bool]] = [
        (_constraint_shape(c), list(c.expr.coeffs), c.is_eq())
        for c in conj.constraints
    ]
    marks: Dict[str, List[str]] = {}
    for v in cvars:
        marks.setdefault(v, []).append("c")
    for w in conj.wildcards:
        marks.setdefault(w, []).append("w")
    _poly_marks(poly, marks)
    variables = set(bound) | set(marks)
    for _, pairs, _eq in atoms:
        variables.update(v for v, _ in pairs)
    variables.update(poly.variables())
    rank = _refine(variables, marks, atoms)
    names: Dict[str, str] = {}
    ordered = sorted(variables, key=lambda v: (rank[v], v))
    bound_index = free_index = 0
    for v in ordered:
        if v in bound:
            names[v] = "%s%d" % (_BOUND_PREFIX, bound_index)
            bound_index += 1
        else:
            names[v] = "%s%d" % (FREE_PREFIX, free_index)
            free_index += 1

    cons_parts = []
    for c in conj.constraints:
        body = _affine_canon(c.expr, names)
        if c.is_eq():
            # Constraint.eq orients the sign by variable names; take
            # the smaller orientation so renaming cannot flip it.
            body = min(body, _affine_canon(-c.expr, names))
        cons_parts.append("%s(%s)" % (c.kind, body))
    cons_parts.sort()

    poly_map = {v: names[v] for v in poly.variables()}
    from repro.core.result import polynomial_to_json
    import json

    poly_part = json.dumps(
        polynomial_to_json(poly.rename(poly_map) if poly_map else poly),
        sort_keys=True,
        separators=(",", ":"),
    )
    key = "m[%s]v[%s]w[%s]c[%s]p[%s]" % (
        mode,
        ",".join(sorted(names[v] for v in cvars)),
        ",".join(sorted(names[w] for w in conj.wildcards)),
        ";".join(cons_parts),
        poly_part,
    )
    back = {canon: orig for orig, canon in names.items()}
    return key, names, back


def conjunct_fingerprint(
    conj: Conjunct,
    cvars: Sequence[str],
    poly: Polynomial,
    mode: str = "",
) -> tuple:
    """A cheap name-free summary of :func:`canonical_conjunct_key`.

    The mode, the numbers of summation variables and wildcards, the
    sorted pass-one constraint descriptors and the sorted summand
    coefficients.  Each part can be read off the key, so equal keys
    give equal fingerprints; the converse fails (the fingerprint
    forgets which variables co-occur).  It costs one mask per
    constraint and no refinement, which makes it the answer memo's
    gate: a node whose fingerprint has never been seen cannot have a
    stored key.
    """
    return (
        mode,
        len(cvars),
        len(conj.wildcards),
        tuple(sorted(_constraint_shape(c) for c in conj.constraints)),
        # Integer pairs, not Fractions: hashing and comparing a memo
        # key must run no Python code, or another thread can mutate the
        # memo's OrderedDict in the middle of an operation on it.
        tuple(
            sorted((c.numerator, c.denominator) for c in poly.terms.values())
        ),
    )


__all__ = [
    "FREE_PREFIX",
    "canonical_conjunct_key",
    "canonical_formula_key",
    "conjunct_fingerprint",
    "track_order_key",
]
