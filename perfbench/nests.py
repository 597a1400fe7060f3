"""Seeded loop nests for the ``nest-analysis`` workload, and their oracle.

A nest is plain data (a :class:`NestSpec`): loops with affine bounds
over the symbolic sizes ``N`` and ``M``, and 2-4 uniformly generated
references to one two-dimensional array ``a`` (the first is the write).
:func:`build_nest` turns a spec into a :class:`repro.apps.LoopNest`;
:func:`enumerate_answers` computes the same five quantities the
``repro.apps`` queries answer symbolically by running the loops
directly, which is the independent oracle.

A round of the workload holds one nest per shape in :data:`SHAPES`,
with the stencils of :data:`STENCILS` in turn, so the mix of
triangular, trapezoidal, ``by 2`` and ``2*i`` bounds and of reference
patterns is the same for every seed; the seed picks the outer lower
bounds and the flop counts.
"""

import random
from collections import Counter
from typing import Dict, List, Sequence, Tuple

#: An affine form: ((var, coeff), ...) sorted by var, plus a constant.
Affine = Tuple[Tuple[Tuple[str, int], ...], int]

#: Symbol values every answer is evaluated (and checked) at.
TABLE = tuple((n, m) for n in range(0, 9) for m in range(0, 5))

#: Cache-line size, in elements, for ``cache_lines_touched``.
LINE_SIZE = 4

#: Loop shapes of one pass: the kind of each loop below the outermost.
#: ``rect``: 1..M, ``tri``: v..N, ``trap``: 1..v+M, ``by2``: 1..N by 2,
#: ``twice``: 1..2*v, where v is the enclosing loop variable.
SHAPES = (
    ("rect",),
    ("tri",),
    ("trap",),
    ("by2",),
    ("twice",),
    ("tri", "rect"),
    ("rect", "tri"),
    ("trap", "tri"),
    ("by2", "rect"),
    ("twice", "by2"),
)

#: Reference offsets: the 2-4 point stencils of uniformly generated
#: references (each set is the lattice points of its convex hull).
STENCILS = (
    ((0, 0), (1, 0)),
    ((0, 0), (-1, 0), (1, 0)),
    ((0, 0), (1, 0), (0, 1), (1, 1)),
)

_VARS = ("i", "j", "k")


def aff(const: int = 0, **coeffs: int) -> Affine:
    return tuple(sorted((v, c) for v, c in coeffs.items() if c)), const


def aff_text(form: Affine) -> str:
    coeffs, const = form
    parts = []
    for v, c in coeffs:
        term = v if c == 1 else "%d*%s" % (c, v)
        parts.append(term if not parts else "+ " + term)
    if const or not parts:
        if parts:
            parts.append("%s %d" % ("+" if const > 0 else "-", abs(const)))
        else:
            parts.append(str(const))
    return " ".join(parts)


def aff_eval(form: Affine, env: Dict[str, int]) -> int:
    coeffs, const = form
    return const + sum(c * env[v] for v, c in coeffs)


class NestSpec:
    """Loops ``(var, lower, upper, step)`` plus array references."""

    __slots__ = ("name", "loops", "refs", "flops")

    def __init__(self, name, loops, refs, flops):
        self.name = name
        self.loops: List[Tuple[str, Affine, Affine, int]] = list(loops)
        #: Subscript pairs; refs[0] is written, the rest are read.
        self.refs: List[Tuple[Affine, Affine]] = list(refs)
        self.flops = flops

    def key(self) -> tuple:
        return (self.name, tuple(self.loops), tuple(self.refs), self.flops)


def _inner_loop(kind: str, var: str, outer: str, lo: int) -> tuple:
    if kind == "rect":
        return var, aff(lo), aff(0, M=1), 1
    if kind == "tri":
        return var, aff(0, **{outer: 1}), aff(0, N=1), 1
    if kind == "trap":
        return var, aff(lo), aff(0, M=1, **{outer: 1}), 1
    if kind == "by2":
        return var, aff(lo), aff(0, N=1), 2
    if kind == "twice":
        return var, aff(lo), aff(0, **{outer: 2}), 1
    raise ValueError("unknown loop kind %r" % kind)


#: Subscript pairs of the references, by nest depth.
BASES = {2: (("i", "j"), ("j", "i")), 3: (("i", "k"), ("j", "k"), ("k", "j"))}


def generate_round(seed: int) -> List[NestSpec]:
    """One nest per shape: the same structures for every seed.

    Shapes, stencils (shape ``n`` takes ``STENCILS[n % 3]``), subscript
    pairs, inner lower bounds and the written reference (offset 0) are a
    fixed design, because they set most of a nest's cost.  The seed
    draws each nest's outer lower bound (0-2) and flop count.  A run's
    cost then depends little on its seed, and a round is short enough
    that a run repeats it many times.
    """
    rng = random.Random(seed)
    out = []
    for number, shape in enumerate(SHAPES):
        depth = len(shape) + 1
        turn = number % len(STENCILS)
        loops = [("i", aff(rng.randint(0, 2)), aff(0, N=1), 1)]
        for level, kind in enumerate(shape, start=1):
            loops.append(
                _inner_loop(kind, _VARS[level], _VARS[level - 1], (turn + level) % 2)
            )
        bases = BASES[depth]
        x, y = bases[(number + turn) % len(bases)]
        refs = [(aff(dx, **{x: 1}), aff(dy, **{y: 1})) for dx, dy in STENCILS[turn]]
        out.append(
            NestSpec(
                "%d.%d-%s" % (number, turn, "-".join(shape)),
                loops,
                refs,
                rng.randint(1, 4),
            )
        )
    return out


def build_nest(spec: NestSpec):
    """The :class:`repro.apps.LoopNest` for a spec (one statement)."""
    from repro.apps import ArrayRef, Loop, LoopNest, Statement

    refs = [ArrayRef("a", [aff_text(x), aff_text(y)]) for x, y in spec.refs]
    loops = [
        Loop(v, aff_text(lo), aff_text(hi), step)
        for v, lo, hi, step in spec.loops
    ]
    return LoopNest(loops, [Statement(flops=spec.flops, refs=refs)]), refs


#: The five quantities, in the order the workload asks for them.
QUERIES = ("iterations", "flops", "memory", "cache_lines", "dependences")


def _iterations(spec: NestSpec, env: Dict[str, int]) -> List[Dict[str, int]]:
    out = []

    def walk(level: int, point: Dict[str, int]) -> None:
        if level == len(spec.loops):
            out.append(dict(point))
            return
        var, lo, hi, step = spec.loops[level]
        for value in range(aff_eval(lo, point), aff_eval(hi, point) + 1, step):
            point[var] = value
            walk(level + 1, point)
        point.pop(var, None)

    walk(0, dict(env))
    return out


def enumerate_answers(spec: NestSpec, n: int, m: int) -> Dict[str, int]:
    """The five quantities at N=n, M=m, by running the loops."""
    points = _iterations(spec, {"N": n, "M": m})

    def cell(ref, point):
        return aff_eval(ref[0], point), aff_eval(ref[1], point)

    touched = {cell(ref, p) for p in points for ref in spec.refs}
    lines = {((x - 1) // LINE_SIZE, y) for x, y in touched}
    written: Counter = Counter()
    dependences = 0
    write, read = spec.refs[0], spec.refs[1]
    for p in points:  # loop order is lexicographic iteration order
        dependences += written[cell(read, p)]
        written[cell(write, p)] += 1
    return {
        "iterations": len(points),
        "flops": spec.flops * len(points),
        "memory": len(touched),
        "cache_lines": len(lines),
        "dependences": dependences,
    }


def oracle_table(spec: NestSpec, table: Sequence[Tuple[int, int]] = TABLE):
    """{query: [value at each table point]} by enumeration."""
    rows = [enumerate_answers(spec, n, m) for n, m in table]
    return {q: [row[q] for row in rows] for q in QUERIES}
