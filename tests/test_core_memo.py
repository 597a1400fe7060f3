"""The answer memo: hits, renames, freshness, bounds, persistence.

The memo is a process-global cache threaded through every node of the
counting recursion, so these tests drive it through the public
``count`` / ``sum_poly`` API and observe it through the stats
counters -- the same way a user would diagnose it.
"""

import json
import os
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.core import count, memo, stats, sum_poly
from repro.core.canon import (
    _constraint_shape,
    _row_shape,
    canonical_conjunct_key,
    conjunct_fingerprint,
)
from repro.core.memo import (
    answer_memo_enabled,
    answer_memo_info,
    clear_answer_memo,
    set_answer_memo,
)
from repro.core.result import Term
from repro.omega.affine import Affine
from repro.omega.constraints import Constraint, reset_fresh_counter
from repro.omega.problem import Conjunct
from repro.presburger.parser import parse
from repro.presburger.dnf import to_dnf
from repro.qpoly import Polynomial

SPLINTERY = "1 <= i <= n and 1 <= j <= m and 3*j <= 2*i + n and 2 | (i + j)"

#: An existential whose count projects ``q`` through the piece memo.
PIECEWISE = "exists q: 1 <= i <= %d*n and 2*i <= 3*q and 5*q <= 4*n + %d"


def _json(result):
    return json.dumps(result.to_json(), sort_keys=True)


def _snap(name):
    return stats.stats_snapshot()[name]


class TestWarmHits:
    def test_second_count_is_answered_from_the_memo(self):
        with stats.collecting_stats() as counters:
            count(SPLINTERY, ["i", "j"])
            cold_sat = counters["sat_calls"]
            assert counters["answer_memo_hits"] == 0
            assert counters["answer_memo_misses"] > 0
            stats.reset_stats()
            count(SPLINTERY, ["i", "j"])
            assert counters["answer_memo_hits"] >= 1
            assert counters["answer_memo_misses"] == 0
            assert counters["sat_calls"] == 0 < cold_sat

    def test_warm_answer_is_byte_identical_and_correct(self):
        reset_fresh_counter()
        cold = sum_poly(SPLINTERY, ["i", "j"], "i*j")
        reset_fresh_counter()
        warm = sum_poly(SPLINTERY, ["i", "j"], "i*j")
        assert json.dumps(cold.to_json(), sort_keys=True) == json.dumps(
            warm.to_json(), sort_keys=True
        )
        env = {"n": 17, "m": 11}
        assert cold.evaluate(env) == warm.evaluate(env) == 4721

    def test_memo_off_matches_memo_on(self):
        reset_fresh_counter()
        on = count(SPLINTERY, ["i", "j"])
        previous = set_answer_memo(0)
        try:
            assert not answer_memo_enabled()
            reset_fresh_counter()
            off = count(SPLINTERY, ["i", "j"])
        finally:
            set_answer_memo(previous)
        assert json.dumps(on.to_json(), sort_keys=True) == json.dumps(
            off.to_json(), sort_keys=True
        )

    def test_count_image_via_smith_reuses_across_calls(self):
        from repro.core.projected import (
            ProjectedClause,
            count_image,
            count_image_via_smith,
        )
        from repro.intarith import IntMatrix
        from repro.omega.affine import Affine
        from repro.omega.constraints import Constraint

        clause = ProjectedClause(
            ["a", "b"],
            [
                Constraint.geq(Affine.var("a") - 1),
                Constraint.geq(Affine.var("n") - Affine.var("a")),
                Constraint.geq(Affine.var("b")),
                Constraint.geq(Affine.var("n") - Affine.var("b")),
            ],
            IntMatrix([[2, 0], [0, 3]]),
            [Affine.const_expr(0), Affine.const_expr(1)],
        )
        with stats.collecting_stats() as counters:
            first = count_image_via_smith(clause)
            stats.reset_stats()
            second = count_image_via_smith(clause)
            # Fresh β̂ names notwithstanding, the repeat run is answered
            # entirely from the memo (the canonical key renames bound
            # variables away) without touching the solver.
            assert counters["answer_memo_hits"] >= 1
            assert counters["sat_calls"] == 0
        env = {"n": 12}
        assert first.evaluate(env) == second.evaluate(env)
        assert count_image(clause).evaluate(env) == first.evaluate(env)


class TestRenameOnHit:
    def test_hit_across_free_symbol_names(self):
        with stats.collecting_stats() as counters:
            a = count("1 <= i <= n and 1 <= j <= i", ["i", "j"])
            stats.reset_stats()
            b = count("1 <= p <= N and 1 <= q <= p", ["p", "q"])
            assert counters["answer_memo_hits"] >= 1
            assert counters["answer_memo_renames"] >= 1
        assert a.symbols() == ["n"]
        assert b.symbols() == ["N"]
        for v in range(0, 9):
            assert a.evaluate({"n": v}) == b.evaluate({"N": v})

    def test_distinct_free_symbols_do_not_collide(self):
        # n vs a literal constant in the same slot: different keys.
        a = count("1 <= i <= n", ["i"])
        b = count("1 <= i <= 7", ["i"])
        assert a.evaluate({"n": 7}) == b.evaluate({}) == 7


class TestFreshness:
    def test_mutating_a_returned_answer_does_not_poison_the_memo(self):
        first = count(SPLINTERY, ["i", "j"])
        want = first.evaluate({"n": 17, "m": 11})
        # Polynomial.terms is an exposed mutable dict; vandalize every
        # value of the answer we were handed.
        for term in first.terms:
            for key in list(term.value.terms):
                term.value.terms[key] = term.value.terms[key] * 1000 + 1
        assert first.evaluate({"n": 17, "m": 11}) != want
        second = count(SPLINTERY, ["i", "j"])  # served from the memo
        assert second.evaluate({"n": 17, "m": 11}) == want

    def test_hits_return_independent_objects(self):
        a = count(SPLINTERY, ["i", "j"])
        b = count(SPLINTERY, ["i", "j"])
        for ta, tb in zip(a.terms, b.terms):
            assert ta.value is not tb.value
            assert ta.value.terms is not tb.value.terms


class TestBounds:
    def test_capacity_evicts_lru(self):
        previous = set_answer_memo(3)
        try:
            with stats.collecting_stats() as counters:
                for k in range(1, 7):
                    count("1 <= i <= %d*n" % k, ["i"])
                    # Elimination pieces share the one capacity.
                    count(PIECEWISE % (k, k), ["i"])
                assert counters["answer_memo_evictions"] > 0
            info = answer_memo_info()
            assert info["limit"] == 3
            assert info["size"] <= 3
        finally:
            set_answer_memo(previous)

    def test_zero_capacity_disables_and_clears(self):
        count(SPLINTERY, ["i", "j"])
        assert answer_memo_info()["size"] > 0
        previous = set_answer_memo(0)
        try:
            assert answer_memo_info()["size"] == 0
            with stats.collecting_stats() as counters:
                count(SPLINTERY, ["i", "j"])
                assert counters["answer_memo_hits"] == 0
                assert counters["answer_memo_misses"] == 0
            assert answer_memo_info()["size"] == 0
        finally:
            set_answer_memo(previous)

    def test_clear_answer_memo_forces_recomputation(self):
        count(SPLINTERY, ["i", "j"])
        clear_answer_memo()
        with stats.collecting_stats() as counters:
            count(SPLINTERY, ["i", "j"])
            assert counters["answer_memo_hits"] == 0
            assert counters["sat_calls"] > 0


class TestThreads:
    def test_threads_sharing_a_small_memo_get_exact_answers(self):
        """The daemon's cold thread pool can reach the memo.

        Eight threads count through a memo smaller than their working
        set, with rapid thread switching, so items are evicted between
        the steps of other threads' lookups.  Nothing may raise (or
        crash the interpreter: a memo key whose hash runs Python code
        lets another thread mutate the OrderedDict mid-operation),
        every answer must equal the memo-off answer, and the capacity
        must hold.
        """
        jobs = [("1 <= i <= %d*n" % k, ["i"]) for k in (1, 2, 3)]
        jobs.append((PIECEWISE % (1, 1), ["i"]))
        previous = set_answer_memo(0)
        try:
            want = [_json(count(f, over)) for f, over in jobs]
        finally:
            set_answer_memo(previous)
        errors = []
        wrong = []

        def worker(offset):
            try:
                for step in range(60):
                    index = (offset + step) % len(jobs)
                    if _json(count(*jobs[index])) != want[index]:
                        wrong.append(index)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        interval = sys.getswitchinterval()
        set_answer_memo(4)
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert answer_memo_info()["size"] <= 4
        finally:
            sys.setswitchinterval(interval)
            set_answer_memo(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert wrong == []


class TestPieceMemo:
    def test_eliminate_exact_decomposition_is_memoized(self):
        from repro.omega.eliminate import eliminate_exact

        clause = to_dnf(
            parse("exists k: 1 <= i <= n and 2*i <= 3*k and 5*k <= 4*n")
        )[0]
        (wild,) = clause.wildcards
        with stats.collecting_stats() as counters:
            first = eliminate_exact(clause, wild)
            stats.reset_stats()
            second = eliminate_exact(clause, wild)
            assert counters["answer_memo_hits"] >= 1
            assert counters["fm_eliminations"] == 0
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert str(a) == str(b)


class TestPersistence:
    def test_roots_survive_a_memory_clear_via_the_disk_layer(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_ANSWER_DB", os.path.join(str(tmp_path), "answers.sqlite")
        )
        reset_fresh_counter()
        cold = count(SPLINTERY, ["i", "j"])
        clear_answer_memo()  # memory gone; sqlite root layer remains
        reset_fresh_counter()
        with stats.collecting_stats() as counters:
            warm = count(SPLINTERY, ["i", "j"])
            assert counters["answer_memo_hits"] >= 1
            assert counters["sat_calls"] == 0
        assert json.dumps(cold.to_json(), sort_keys=True) == json.dumps(
            warm.to_json(), sort_keys=True
        )

    def test_unusable_db_path_degrades_to_no_persistence(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_ANSWER_DB",
            os.path.join(str(tmp_path), "missing", "nested", "db.sqlite3"),
        )
        # A directory that cannot be created must not break counting.
        monkeypatch.setattr(os, "makedirs", _raise_oserror)
        assert count("1 <= i <= n", ["i"]).evaluate({"n": 5}) == 5


    def test_disk_probe_insert_counts_its_eviction(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_ANSWER_DB", os.path.join(str(tmp_path), "answers.sqlite")
        )
        count("1 <= i <= n", ["i"])  # persisted root
        clear_answer_memo()
        previous = set_answer_memo(1)
        try:
            count("1 <= i <= 2*n", ["i"])  # fills the one slot
            with stats.collecting_stats() as counters:
                count("1 <= i <= n", ["i"])
                assert counters["answer_memo_hits"] == 1
                assert counters["answer_memo_evictions"] >= 1
            assert answer_memo_info()["size"] <= 1
        finally:
            set_answer_memo(previous)


def _raise_oserror(*args, **kwargs):
    raise OSError("read-only filesystem (simulated)")


class TestFingerprintGate:
    @staticmethod
    def _key_calls(monkeypatch):
        """Record every canonical key the memo builds."""
        calls = []
        real = memo.canonical_conjunct_key

        def counting(conj, cvars, poly, mode=""):
            calls.append(tuple(cvars))
            return real(conj, cvars, poly, mode)

        monkeypatch.setattr(memo, "canonical_conjunct_key", counting)
        return calls

    def test_first_sighting_builds_no_key(self, monkeypatch):
        calls = self._key_calls(monkeypatch)
        with stats.collecting_stats() as counters:
            assert count("1 <= i <= n", ["i"]).evaluate({"n": 4}) == 4
            assert counters["answer_memo_misses"] >= 1
        assert calls == []
        assert answer_memo_info()["size"] >= 1  # the pending raw node

    def test_recurring_shape_promotes_the_pending_node_and_hits(
        self, monkeypatch
    ):
        renamed = (
            "1 <= p <= N and 1 <= q <= M and 3*q <= 2*p + N and 2 | (p + q)"
        )
        calls = self._key_calls(monkeypatch)
        count(SPLINTERY, ["i", "j"])
        cold_keys = len(calls)
        reset_fresh_counter()
        with stats.collecting_stats() as counters:
            warm = count(renamed, ["p", "q"])
            assert counters["answer_memo_hits"] >= 1
            assert counters["answer_memo_renames"] >= 1
            assert counters["sat_calls"] == 0
        # The pending SPLINTERY root is keyed first, then the renamed one.
        assert calls[cold_keys:] == [("i", "j"), ("p", "q")]
        clear_answer_memo()
        reset_fresh_counter()
        assert _json(warm) == _json(count(renamed, ["p", "q"]))

    def test_pending_node_keys_the_summand_it_was_computed_for(self):
        # The key of a first sighting is built later, when its shape
        # recurs; a caller mutating its summand (Polynomial.terms is
        # exposed) in between must not change what the answer is
        # filed under.
        conj = to_dnf(parse("1 <= i <= n"))[0]
        z = Polynomial.variable("i")
        found, ticket = memo.lookup(conj, ("i",), z, "test")
        assert found is None
        answer = [Term(conj, Polynomial.constant(5))]
        memo.remember(ticket, answer, (False, False))
        for mono in list(z.terms):
            z.terms[mono] += 1
        found, _ = memo.lookup(conj, ("i",), Polynomial.variable("i"), "test")
        assert found is not None
        (term,), flags = found
        assert term.value == Polynomial.constant(5)
        assert flags == (False, False)


_VARS = ("a", "b", "c", "d", "e")


@st.composite
def _nodes(draw):
    """A random recursion node ``(conjunct, cvars, summand)``."""
    cons = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(
            st.dictionaries(
                st.sampled_from(_VARS), st.integers(-3, 3), max_size=3
            )
        )
        expr = Affine(coeffs, draw(st.integers(-4, 4)))
        eq = draw(st.booleans())
        cons.append(Constraint.eq(expr) if eq else Constraint.geq(expr))
    used = sorted({v for c in cons for v in c.variables()})
    wilds = draw(_subsets(used))
    cvars = draw(_subsets([v for v in used if v not in wilds]))
    poly = Polynomial.one
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(
            st.dictionaries(
                st.sampled_from(_VARS), st.integers(-2, 2), max_size=2
            )
        )
        factor = Affine(coeffs, draw(st.integers(-2, 2)))
        poly = poly * factor.to_polynomial()
    return Conjunct(cons, wilds), tuple(cvars), poly


def _subsets(names):
    if not names:
        return st.just([])
    return st.lists(st.sampled_from(names), unique=True, max_size=2)


def _variant(conj, cvars, poly, names, order):
    """The node renamed through ``names`` with constraints reordered."""
    mapping = dict(zip(_VARS, names))
    cons = [conj.constraints[i].rename(mapping) for i in order]
    wilds = [mapping[w] for w in conj.wildcards]
    return (
        Conjunct(cons, wilds),
        tuple(mapping[v] for v in reversed(cvars)),
        poly.rename(mapping),
    )


class TestFingerprintProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        node=_nodes(),
        other=_nodes(),
        names=st.permutations(("p", "q", "r", "s", "t")),
        data=st.data(),
    )
    def test_fingerprint_is_a_function_of_the_key(
        self, node, other, names, data
    ):
        conj, cvars, poly = node
        order = data.draw(st.permutations(range(len(conj.constraints))))
        variant = _variant(conj, cvars, poly, names, order)
        mode = "sum:exact:1:64"
        fp = conjunct_fingerprint(conj, cvars, poly, mode)
        # Invariant under renaming (which can flip an EQ's stored sign)
        # and under constraint order.
        assert conjunct_fingerprint(*variant, mode) == fp
        # Equal canonical keys give equal fingerprints.
        key = canonical_conjunct_key(conj, cvars, poly, mode)[0]
        for candidate in (variant, other):
            if canonical_conjunct_key(*candidate, mode)[0] == key:
                assert conjunct_fingerprint(*candidate, mode) == fp


_constraints = st.builds(
    lambda eq, coeffs, const: (Constraint.eq if eq else Constraint.geq)(
        Affine(dict(zip(_VARS, coeffs)), const)
    ),
    st.booleans(),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(-4, 4),
)


class TestRowShape:
    @settings(max_examples=300, deadline=None)
    @given(
        first=_constraints,
        second=_constraints,
        names=st.permutations(_VARS),
    )
    def test_row_shapes_partition_like_string_shapes(
        self, first, second, names
    ):
        """The fingerprint's row shape is an exact re-encoding of the
        masked string shape the canonical key uses.  A renamed copy
        (which can flip an EQ's stored sign) shares both shapes."""
        renamed = first.rename(dict(zip(_VARS, names)))
        for other in (second, renamed):
            a, b = Conjunct([first]), Conjunct([other])
            same_rows = _row_shape(a._rows[0]) == _row_shape(b._rows[0])
            same_text = _constraint_shape(
                a.constraints[0]
            ) == _constraint_shape(b.constraints[0])
            assert same_rows == same_text
        assert same_rows


_NAMES = ("n", "m", "N", "len", "stride")


class TestRenamePermutationProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        perm=st.permutations(_NAMES),
        points=st.lists(
            st.tuples(st.integers(-4, 18), st.integers(-4, 18)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_cached_answer_renamed_back_evaluates_like_cold(
        self, perm, points
    ):
        """The free-symbol rename path is semantics-preserving.

        Count a template cold under one pair of symbol names, then
        count alpha-variants under permuted names: every variant is
        answered from the memo through the recorded free-symbol
        permutation, and must evaluate (value and int-vs-Fraction
        type) exactly like a cold recomputation at random points.
        """
        a, b = perm[0], perm[1]
        template = (
            "1 <= i <= %s and 1 <= j <= %s and 3*j <= 2*i + %s and 2 | (i + j)"
        )
        # Seed the memo under one fixed vocabulary...
        clear_answer_memo()
        reset_fresh_counter()
        count(template % ("seedA", "seedB", "seedA"), ["i", "j"])
        # ...then count the permuted-name variant: answered from the
        # memo through the free-symbol rename.
        with stats.collecting_stats() as counters:
            warm = count(template % (a, b, a), ["i", "j"])
            assert counters["answer_memo_hits"] >= 1
            assert counters["answer_memo_renames"] >= 1

        previous = set_answer_memo(0)
        try:
            reset_fresh_counter()
            cold = count(template % (a, b, a), ["i", "j"])
        finally:
            set_answer_memo(previous)

        for na, nb in points:
            got = warm.evaluate({a: na, b: nb})
            want = cold.evaluate({a: na, b: nb})
            assert got == want
            assert type(got) is type(want)
