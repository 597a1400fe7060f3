"""The binary-automaton engine: encoding, atoms, products, queries.

Every semantic claim is checked against brute-force enumeration over a
box, so these tests double as a readable specification of the LSBF
two's-complement contract: a word of length k decodes track t as
``sum(b_j * 2**j for j < k-1) - b_{k-1} * 2**(k-1)``, the last letter
is the sign letter, and acceptance is decided on the final transition.
"""

import itertools

import pytest

from repro.automaton import (
    MAX_TRACKS,
    STATE_BUDGET,
    UnsupportedFormula,
    automaton_for,
    automaton_key,
    build_automaton,
    clear_automaton_cache,
    count_below,
    count_box,
    count_exact,
    count_width,
    decode_word,
    encode_point,
    member,
    min_width,
)
from repro.core import stats
from repro.core.convex import UnboundedSumError
from repro.presburger.parser import parse


def brute(text, over, box=12):
    f = parse(text)
    out = set()
    for vals in itertools.product(range(-box, box + 1), repeat=len(over)):
        if f.evaluate(dict(zip(over, vals))):
            out.add(vals)
    return out


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_automaton_cache()
    yield
    clear_automaton_cache()


class TestEncoding:
    def test_min_width_two_complement(self):
        assert min_width(0) == 1
        assert min_width(1) == 2
        assert min_width(-1) == 1
        assert min_width(7) == 4
        assert min_width(8) == 5
        assert min_width(-8) == 4
        assert min_width(-9) == 5

    def test_roundtrip(self):
        for point in [(0,), (5, -3), (-8, 7, 1), (123, -456)]:
            width = max(min_width(v) for v in point)
            letters = encode_point(point, width)
            assert len(letters) == width
            assert tuple(decode_word(letters, len(point))) == tuple(point)

    def test_sign_extension_decodes_equal(self):
        # Padding with copies of the sign bit never changes the value.
        for value in (-9, -1, 0, 3, 17):
            base = min_width(value)
            for width in range(base, base + 4):
                letters = encode_point((value,), width)
                assert decode_word(letters, 1) == [value]


class TestSingleClause:
    CASES = [
        ("i >= 3", ["i"]),
        ("2*i - 7 >= 0", ["i"]),
        ("i = 5", ["i"]),
        ("i = -5", ["i"]),
        ("3*i + 2*j <= 11", ["i", "j"]),
        ("i - j = 2", ["i", "j"]),
        ("2 | i", ["i"]),
        ("3 | (i + 2*j)", ["i", "j"]),
        ("0 <= i <= 10 and 2 | (i + 1)", ["i"]),
        ("-4 <= i <= 4 and -3 <= j <= 6 and i + j >= -2", ["i", "j"]),
    ]

    @pytest.mark.parametrize("text,over", CASES)
    def test_membership_matches_brute_force(self, text, over):
        aut = build_automaton(parse(text), over)
        want = brute(text, over)
        for vals in itertools.product(range(-12, 13), repeat=len(over)):
            assert member(aut, vals) == (vals in want), (text, vals)

    @pytest.mark.parametrize("text,over", CASES)
    def test_box_count_matches_brute_force(self, text, over):
        aut = build_automaton(parse(text), over)
        want = brute(text, over)
        got = count_box(aut, -12, 12)
        assert got == len(want), text


class TestUnionsAndWildcards:
    def test_disjunction_counts_overlaps_once(self):
        text = "(0 <= i <= 9) or (5 <= i <= 14)"
        aut = build_automaton(parse(text), ["i"])
        assert count_exact(aut) == 15

    def test_nested_boolean_structure(self):
        text = "(0 <= i <= 6 and 0 <= j <= 6) and (i <= j or i + j >= 9)"
        over = ["i", "j"]
        aut = build_automaton(parse(text), over)
        assert count_exact(aut) == len(brute(text, over))

    def test_stride_via_wildcard_projection(self):
        # "2 | i" becomes exists alpha: i = 2*alpha -- a wildcard track
        # that projection must erase without losing sign extensions.
        aut = build_automaton(parse("-10 <= i <= 10 and 2 | i"), ["i"])
        assert count_exact(aut) == 11
        assert member(aut, [-10]) and not member(aut, [-9])

    def test_quantified_formula(self):
        text = "exists k: i = 3*k and 0 <= i <= 30"
        aut = build_automaton(parse(text), ["i"])
        assert count_exact(aut) == 11


class TestCounting:
    def test_count_exact_finite(self):
        aut = build_automaton(
            parse("0 <= i <= 8 and 0 <= j <= 8 and i + j <= 8"), ["i", "j"]
        )
        assert count_exact(aut) == 45

    def test_count_exact_raises_on_infinite(self):
        aut = build_automaton(parse("i >= 0"), ["i"])
        with pytest.raises(UnboundedSumError):
            count_exact(aut)

    def test_count_below_pow2(self):
        # Words of exactly length k+1 whose sign bit is 0 encode the
        # box [0, 2^k); count_width on a nonnegative-constrained set
        # must agree with enumeration.
        text = "2 | (i + j) and i <= 2*j and i >= 0 and j >= 0"
        aut = build_automaton(parse(text), ["i", "j"])
        for k in (2, 3, 4):
            want = sum(
                1
                for i in range(2 ** k)
                for j in range(2 ** k)
                if (i + j) % 2 == 0 and i <= 2 * j
            )
            assert count_below(aut, 2 ** k) == want

    def test_count_box_open_sides(self):
        aut = build_automaton(parse("0 <= i <= 20 and 3 | i"), ["i"])
        assert count_box(aut, None, None) == 7
        assert count_box(aut, 6, None) == 5
        assert count_box(aut, None, 5) == 2

    def test_count_below_with_lo(self):
        aut = build_automaton(parse("2 | (i + j)"), ["i", "j"])
        want = sum(
            1
            for i in range(4, 16)
            for j in range(4, 16)
            if (i + j) % 2 == 0
        )
        assert count_below(aut, 16, 4) == want

    def test_count_width_exact_length_words(self):
        # Length-8 words encode exactly the values in [-128, 128), one
        # word per value; the set [0, 100] therefore has 101 of them.
        aut = build_automaton(parse("0 <= i <= 100"), ["i"])
        assert count_width(aut, 8) == 101
        assert count_width(aut, 8) == count_width(aut, 8)  # memoized


class TestFragmentAndCache:
    def test_free_symbol_is_unsupported(self):
        with pytest.raises(UnsupportedFormula):
            automaton_for(parse("0 <= i <= n"), ["i"], cache=False)

    def test_too_many_tracks_is_unsupported(self):
        names = ["v%d" % k for k in range(MAX_TRACKS + 1)]
        text = " and ".join("0 <= %s <= 3" % v for v in names)
        with pytest.raises(UnsupportedFormula):
            automaton_for(parse(text), names, cache=False)

    def test_state_budget_is_positive(self):
        assert STATE_BUDGET > 0

    def test_key_is_alpha_invariant_and_order_sensitive(self):
        k1 = automaton_key(parse("0 <= i and i < j and j <= 9"), ["i", "j"])
        k2 = automaton_key(parse("0 <= p and p < q and q <= 9"), ["p", "q"])
        k3 = automaton_key(parse("0 <= i and i < j and j <= 9"), ["j", "i"])
        assert k1 == k2
        assert k1 != k3  # track order changes the letter layout

    def test_resident_cache_hits(self):
        f = parse("0 <= i <= 9 and 0 <= j <= 9 and i + j <= 9")
        with stats.collecting_stats() as counters:
            a1 = automaton_for(f, ["i", "j"])
            a2 = automaton_for(parse("0 <= a <= 9 and 0 <= b <= 9 and a + b <= 9"), ["a", "b"])
        assert a1 is a2
        assert counters["automaton_cache_hits"] >= 1
        assert stats.engine_snapshot()["automaton_cache_size"] >= 1
