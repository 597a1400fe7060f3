"""Golden pins for the canonicalizer extraction (repro.core.canon).

The request-hash canonicalizer moved from ``repro.service.request``
into the shared ``repro.core.canon`` module so the answer memo could
reuse the signature-refinement machinery.  The serialized canonical
form is a persistent cache key, so the move must be byte-preserving:
these hashes were computed with the pre-extraction code and pin both
the canonical form and the schema version.  If one of them changes,
either bump ``REQUEST_SCHEMA_VERSION`` (invalidating every on-disk
cache, deliberately) or fix the regression -- never re-pin silently.
"""

import pytest

from repro.service.request import JobRequest, REQUEST_SCHEMA_VERSION

GOLDEN = [
    ("count", "1 <= i <= n and 1 <= j <= i", ["i", "j"], None,
     "bcbba5d5aa9dfa6930d8b029b61b1210d84c7c4778ebd7c2ce559fa1b5f601c6"),
    ("count", "exists k: 1 <= i <= n and i = 2*k", ["i"], None,
     "f93875a805557e6a2a9f70f13a30f2ba4b888105bd4e64b1f6a7d28ef647ddaa"),
    ("sum", "1 <= i <= n and 1 <= j <= m and 3*j <= 2*i + n", ["i", "j"], "i*j",
     "9b486ad5e911e6f44335ec86cc9b028ff48005863b84ccbf1c02d4c04b457618"),
    ("simplify", "x >= 9 or x <= 1", [], None,
     "23c2527d5baca0a43f8cd8e72262dc0442d8b19f908998476bd19360b9d585ef"),
    ("count", "0 <= x <= n and 0 <= y <= m and 7*x + 3*y <= 5*n and 2 | x",
     ["x", "y"], None,
     "5e98700412ecf7bb74ab9577e20b103cb9716eb5603bfbb01920d017a0f8983d"),
]


@pytest.mark.parametrize("kind,formula,over,poly,expected", GOLDEN)
def test_content_hash_is_pinned(kind, formula, over, poly, expected):
    req = JobRequest(kind, formula, over=over, poly=poly)
    assert req.content_hash() == expected


# Kinds whose keys the serve daemon's warm tiers use beyond the content
# hash.  Computed before requests kept their parse and canonical key in
# one memo, which must leave every key byte-identical.
EVALUATE = JobRequest(
    "evaluate", "1 <= i and i < j and j <= n and 3*i <= 2*m",
    over=["i", "j"], poly="i*j + 2", at=[{"n": 10, "m": 4}, {"n": 3, "m": 7}],
)
MEMBER_FORMULA = "exists k: 0 <= i <= 9 and 0 <= j <= 9 and i + j = 2*k"


def test_evaluate_hashes_are_pinned():
    assert EVALUATE.content_hash() == (
        "a5e7c4429ee89fe2f144c3a6bb7bebf6f227c572ef841809c047b121d60621ce"
    )
    # The point-free key of the evalc artifact map.
    assert EVALUATE.formula_hash() == (
        "c301b80d7dc944358d8b4287bd59e40bd06b7d707c2b479ae630b2776d323090"
    )


def test_member_hash_with_bound_point_names_is_pinned():
    req = JobRequest(
        "member", MEMBER_FORMULA, over=["i", "j"],
        at=[{"i": 2, "j": 4}, {"j": 2, "i": 1}],
    )
    assert req.content_hash() == (
        "d5d382387d02febf3ea5d565f583719954b0296b92f6b74821d121f1d0997a3c"
    )


def test_count_below_hash_is_pinned():
    req = JobRequest(
        "count_below", "0 <= x and x <= y and y <= 2*x + 3",
        over=["x", "y"], bound=7, lo=-2,
    )
    assert req.content_hash() == (
        "de026ceade5788bc6c0a56c64b6f70ae50493070b03b3cc1b5f3eabc912b5419"
    )


def test_automaton_key_is_pinned():
    # Keys the persistent ``automata`` table, so it may no more move
    # than a content hash.
    import hashlib

    from repro.automaton import automaton_key
    from repro.presburger.parser import parse

    key = automaton_key(parse(MEMBER_FORMULA), ["i", "j"])
    assert hashlib.sha256(key.encode("utf-8")).hexdigest() == (
        "ca8a5a3ebe85e93690a36616b5b75d546438473cc9ed532fa26ded3563037268"
    )


def test_schema_version_unchanged_by_extraction():
    # The canonical form did not change when the canonicalizer moved to
    # repro.core.canon, so the schema version must not have moved either.
    assert REQUEST_SCHEMA_VERSION == 3


def test_request_module_reexports_canonicalizer():
    # Public API stability: clients that imported the canonicalizer
    # from the service module keep working.
    from repro.core import canon
    from repro.service import request

    assert request.canonical_formula_key is canon.canonical_formula_key
    assert "canonical_formula_key" in request.__all__


def test_formula_key_invariant_under_bound_renaming():
    from repro.presburger.parser import parse
    from repro.service.request import canonical_formula_key

    key_a, _ = canonical_formula_key(
        parse("1 <= i <= n and 1 <= j <= i"), ("i", "j")
    )
    key_b, _ = canonical_formula_key(
        parse("1 <= p <= n and 1 <= q <= p"), ("p", "q")
    )
    key_c, _ = canonical_formula_key(
        parse("1 <= i <= m and 1 <= j <= i"), ("i", "j")
    )
    assert key_a == key_b  # bound names canonicalized away
    assert key_a != key_c  # free symbols keep their names
