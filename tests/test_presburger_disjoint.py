"""Disjoint DNF machinery tests (Section 5)."""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import assert_clauses_cover, enumerate_conjunct, enumerate_formula
from repro.omega.affine import Affine
from repro.omega.constraints import Constraint
from repro.omega.problem import Conjunct
from repro.presburger import disjoint
from repro.presburger.disjoint import (
    _articulation_points,
    _components,
    _overlap_graph,
    _pick_extraction,
    disjoint_negation,
    disjointify,
    negate_constraint_in,
    project_to_stride_only,
    to_disjoint_dnf,
)
from repro.presburger.dnf import to_dnf
from repro.presburger.parser import parse


def geq(coeffs, const=0):
    return Constraint.geq(Affine(coeffs, const))


class TestNegateConstraint:
    def test_geq(self):
        c = geq({"x": 1}, -3)  # x >= 3
        (piece,) = negate_constraint_in(Conjunct([c]), c)
        assert enumerate_conjunct(piece, ("x",), 6) == {
            (x,) for x in range(-6, 3)
        }

    def test_equality_two_pieces(self):
        c = Constraint.eq(Affine({"x": 1}, -2))
        pieces = negate_constraint_in(Conjunct([c]), c)
        assert len(pieces) == 2
        got = set()
        for p in pieces:
            got |= enumerate_conjunct(p, ("x",), 6)
        assert got == {(x,) for x in range(-6, 7) if x != 2}

    def test_stride_residue_fanout(self):
        conj = Conjunct.true().add_stride(3, Affine.var("x"))
        c = conj.eqs()[0]
        pieces = negate_constraint_in(conj, c)
        assert len(pieces) == 2
        got = set()
        for p in pieces:
            got |= enumerate_conjunct(p, ("x",), 9)
        assert got == {(x,) for x in range(-9, 10) if x % 3 != 0}

    def test_rejects_non_stride_wildcard(self):
        conj = Conjunct(
            [Constraint.eq(Affine({"w": 2, "x": -1})), geq({"w": 1})],
            ["w"],
        )
        with pytest.raises(ValueError):
            negate_constraint_in(conj, conj.eqs()[0])


class TestDisjointNegation:
    def test_pieces_disjoint_and_cover(self):
        conj = Conjunct([geq({"x": 1}, -1), geq({"x": -1}, 4)])  # 1<=x<=4
        pieces = disjoint_negation(conj)
        want = {(x,) for x in range(-8, 9) if not 1 <= x <= 4}
        assert_clauses_cover(pieces, want, ("x",), box=8, disjoint=True)

    def test_with_stride(self):
        conj = Conjunct([geq({"x": 1})]).add_stride(2, Affine.var("x"))
        pieces = disjoint_negation(conj)
        want = {(x,) for x in range(-8, 9) if not (x >= 0 and x % 2 == 0)}
        assert_clauses_cover(pieces, want, ("x",), box=8, disjoint=True)

    def test_requires_stride_only(self):
        conj = Conjunct(
            [geq({"w": 1, "x": 1}), geq({"w": -1, "x": 1})], ["w"]
        )
        with pytest.raises(ValueError):
            disjoint_negation(conj)


class TestProjectToStrideOnly:
    def test_floor_definition(self):
        # ∃w: 3w <= x <= 3w + 2 covers every x: projects to TRUE
        conj = Conjunct(
            [geq({"x": 1, "w": -3}), geq({"x": -1, "w": 3}, 2)], ["w"]
        )
        pieces = project_to_stride_only(conj)
        got = set()
        for p in pieces:
            assert p.stride_only()
            got |= enumerate_conjunct(p, ("x",), 8)
        assert got == {(x,) for x in range(-8, 9)}

    def test_produces_strides(self):
        # ∃w: x = 3w ∧ w >= 1  ->  x >= 3 ∧ 3 | x
        conj = Conjunct(
            [Constraint.eq(Affine({"x": 1, "w": -3})), geq({"w": 1}, -1)],
            ["w"],
        )
        pieces = project_to_stride_only(conj)
        got = set()
        for p in pieces:
            got |= enumerate_conjunct(p, ("x",), 12)
        assert got == {(x,) for x in range(3, 13, 3)}

    def test_splintering_case_disjoint(self):
        # the §5.2 example as ∃b: pieces must be disjoint in a
        conj = Conjunct(
            [
                geq({"b": 3, "a": -1}),
                geq({"b": -3, "a": 1}, 7),
                geq({"a": 1, "b": -2}, -1),
                geq({"a": -1, "b": 2}, 5),
            ],
            ["b"],
        )
        pieces = project_to_stride_only(conj)
        want = {(3,), (29,)} | {(a,) for a in range(5, 28)}
        assert_clauses_cover(pieces, want, ("a",), box=31, disjoint=True)


class TestDisjointify:
    def test_overlapping_intervals(self):
        clauses = [
            Conjunct([geq({"x": 1}, -1), geq({"x": -1}, 10)]),
            Conjunct([geq({"x": 1}, -5), geq({"x": -1}, 15)]),
        ]
        out = disjointify(clauses)
        want = {(x,) for x in range(1, 16)}
        assert_clauses_cover(out, want, ("x",), box=20, disjoint=True)

    def test_subset_eliminated(self):
        big = Conjunct([geq({"x": 1}), geq({"x": -1}, 10)])
        small = Conjunct([geq({"x": 1}, -2), geq({"x": -1}, 5)])
        out = disjointify([big, small])
        assert len(out) == 1

    def test_disjoint_input_untouched_semantically(self):
        a = Conjunct([geq({"x": 1}), geq({"x": -1}, 3)])
        b = Conjunct([geq({"x": 1}, -10), geq({"x": -1}, 12)])
        out = disjointify([a, b])
        want = {(x,) for x in range(0, 4)} | {(10,), (11,), (12,)}
        assert_clauses_cover(out, want, ("x",), box=15, disjoint=True)

    def test_three_way_overlap(self):
        clauses = [
            Conjunct([geq({"x": 1}, -i), geq({"x": -1}, i + 6)])
            for i in range(3)
        ]
        out = disjointify(clauses)
        want = {(x,) for x in range(0, 9)}
        assert_clauses_cover(out, want, ("x",), box=12, disjoint=True)

    def test_two_dimensional(self):
        f = parse(
            "(1 <= x <= 4 and 1 <= y <= 4) or (3 <= x <= 6 and 3 <= y <= 6)"
        )
        out = to_disjoint_dnf(f)
        want = enumerate_formula(f, ("x", "y"), 8)
        assert_clauses_cover(out, want, ("x", "y"), box=8, disjoint=True)

    def test_strided_clauses(self):
        f = parse("(2 | x and 0 <= x <= 10) or (3 | x and 0 <= x <= 10)")
        out = to_disjoint_dnf(f)
        want = enumerate_formula(f, ("x",), 12)
        assert_clauses_cover(out, want, ("x",), box=12, disjoint=True)


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def reachability_classes(n, edges, removed=None):
    """Oracle: propagate the least label along edges to a fixpoint;
    classes ordered by least vertex, members ascending."""
    label = {v: v for v in range(n) if v != removed}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if a in label and b in label and label[a] != label[b]:
                label[a] = label[b] = min(label[a], label[b])
                changed = True
    classes = {}
    for v in sorted(label):
        classes.setdefault(label[v], []).append(v)
    return [classes[k] for k in sorted(classes)]


def all_graphs(max_vertices):
    for n in range(max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield n, [p for k, p in enumerate(pairs) if mask >> k & 1]


class TestGraphHelpers:
    def test_every_small_graph_matches_brute_force(self):
        checked = 0
        for n, edges in all_graphs(5):
            adj = adjacency(n, edges)
            base = reachability_classes(n, edges)
            assert _components(adj) == base, edges
            cuts = [
                v
                for v in range(n)
                if len(reachability_classes(n, edges, removed=v)) > len(base)
            ]
            assert _articulation_points(adj) == cuts, edges
            checked += 1
        assert checked == 1 + 1 + 2 + 8 + 64 + 1024

    def test_component_order_contract(self):
        # {2, 6, 10} iterates 2, 10, 6 as a set; the contract is ascending
        # members, components by least vertex.
        adj = adjacency(11, [(10, 2), (10, 6), (9, 0), (7, 1), (1, 3)])
        assert _components(adj) == [
            [0, 9], [1, 3, 7], [2, 6, 10], [4], [5], [8]
        ]

    def test_articulation_tie_goes_to_least_index(self, monkeypatch):
        # Two 6-cliques joined by the bridge 3-10: the cut vertices are
        # 3 and 10 (a set iterates 10 first), and every clause has one
        # constraint, so the least index must win.
        left, right = [0, 1, 3, 4, 5, 6], [2, 7, 8, 9, 10, 11]
        edges = {(3, 10)}
        for group in (left, right):
            edges |= set(itertools.combinations(group, 2))
        clauses = [Conjunct([geq({"x": 1}, -i)]) for i in range(12)]
        index = {id(c): i for i, c in enumerate(clauses)}
        monkeypatch.setattr(
            disjoint,
            "_overlap",
            lambda a, b: tuple(sorted((index[id(a)], index[id(b)]))) in edges,
        )
        assert _articulation_points(_overlap_graph(clauses)) == [3, 10]
        assert _pick_extraction(clauses) == 3

    def test_overlap_graph_charges_each_pair_once(self):
        clauses = [
            Conjunct([geq({"x": 1}, -lo), geq({"x": -1}, lo + 2)])
            for lo in (0, 2, 4, 9)
        ]
        charged = []
        adj = _overlap_graph(
            clauses,
            lambda a, b: charged.append((clauses.index(a), clauses.index(b))),
        )
        assert adj == [{1}, {0, 2}, {1}, set()]
        assert charged == list(itertools.combinations(range(4), 2))

    def test_long_path_needs_no_recursion(self):
        n = 5000
        adj = adjacency(n, [(v, v + 1) for v in range(n - 1)])
        assert _components(adj) == [list(range(n))]
        assert _articulation_points(adj) == list(range(1, n - 1))


def test_disjointify_does_not_import_networkx():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from repro import count\n"
        "print(count('(1 <= i <= 4) or (3 <= i <= 6)', over=['i']).evaluate({}))\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["6", "False"]
