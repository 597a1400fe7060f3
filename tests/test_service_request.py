"""Canonical request model: validation, wire format, content hashing."""

import pytest

from repro.service.request import (
    ENGINE_VERSION,
    JobRequest,
    RequestError,
    canonical_formula_key,
)
from repro.presburger.parser import ParseError, parse


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(RequestError, match="unknown job kind"):
            JobRequest("frobnicate", "1 <= i <= n", over=["i"])

    def test_count_needs_over(self):
        with pytest.raises(RequestError, match="'over'"):
            JobRequest("count", "1 <= i <= n")

    def test_sum_needs_poly(self):
        with pytest.raises(RequestError, match="'poly'"):
            JobRequest("sum", "1 <= i <= n", over=["i"])

    def test_poly_only_for_sum(self):
        with pytest.raises(RequestError, match="only valid for sum"):
            JobRequest("count", "1 <= i <= n", over=["i"], poly="i")

    def test_empty_formula(self):
        with pytest.raises(RequestError, match="formula"):
            JobRequest("count", "   ", over=["i"])

    def test_bad_strategy(self):
        with pytest.raises(RequestError, match="strategy"):
            JobRequest("count", "1 <= i <= n", over=["i"], strategy="magic")

    def test_bad_at_value(self):
        with pytest.raises(RequestError, match="integer"):
            JobRequest("count", "1 <= i <= n", over=["i"], at=[{"n": "ten"}])

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            JobRequest.from_json(
                {"kind": "count", "formula": "1 <= i <= n", "over": ["i"], "zap": 1}
            )

    def test_simplify_needs_no_over(self):
        req = JobRequest("simplify", "x >= 1 and x >= 0")
        assert req.kind == "simplify"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("timeout", "abc"),
            ("timeout", -1),
            ("timeout", 0),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("timeout", True),
            ("budget", "x"),
            ("budget", 0),
            ("budget", 2.5),
            ("budget", True),
            ("over", 5),
            ("over", [1]),
            ("over", [["i"]]),
            ("at", 5),
            ("at", {"n": 1}),
            ("poly", 5),
        ],
    )
    def test_malformed_field_is_a_request_error(self, field, value):
        # Every bad field value is a RequestError, which the batch and
        # serve front ends answer as bad_request.  A raw ValueError or
        # TypeError would escape them instead.
        obj = {"kind": "evaluate", "formula": "1 <= i <= n", "over": ["i"],
               "at": [{"n": 3}], field: value}
        with pytest.raises(RequestError, match=field):
            JobRequest.from_json(obj)


class TestWireFormat:
    def test_round_trip(self):
        req = JobRequest(
            "sum",
            "1 <= i <= n",
            over=["i"],
            poly="i*i",
            id="job-1",
            strategy="upper",
            simplify=True,
            at=[{"n": 10}],
            timeout=2.5,
            budget=100,
        )
        back = JobRequest.from_json(req.to_json())
        assert back.to_json() == req.to_json()
        assert back.content_hash() == req.content_hash()

    def test_over_accepts_comma_string(self):
        req = JobRequest.from_json(
            {"kind": "count", "formula": "1 <= i and i < j and j <= n", "over": "i, j"}
        )
        assert req.over == ("i", "j")

    def test_default_id(self):
        req = JobRequest.from_json(
            {"kind": "count", "formula": "1 <= i <= n", "over": ["i"]},
            default_id=17,
        )
        assert req.id == 17


def _h(formula, over, **kw):
    return JobRequest("count", formula, over=over, **kw).content_hash()


class TestContentHash:
    def test_lexical_variation_invariant(self):
        assert _h("1<=i and i<=n", ["i"]) == _h("1 <= i  and  i <= n", ["i"])

    def test_over_order_invariant(self):
        a = _h("1 <= i and i < j and j <= n", ["i", "j"])
        b = _h("1 <= i and i < j and j <= n", ["j", "i"])
        assert a == b

    def test_alpha_rename_of_counted_vars_invariant(self):
        a = _h("1 <= i and i < j and j <= n", ["i", "j"])
        b = _h("1 <= p and p < q and q <= n", ["q", "p"])
        assert a == b

    def test_and_operand_order_invariant(self):
        assert _h("1 <= i and i <= n", ["i"]) == _h("i <= n and 1 <= i", ["i"])

    def test_or_operand_order_invariant(self):
        a = JobRequest("simplify", "x >= 9 or x <= 1").content_hash()
        b = JobRequest("simplify", "x <= 1 or x >= 9").content_hash()
        assert a == b

    def test_quantifier_alpha_invariant(self):
        a = _h("exists t: (1 <= i <= t and t <= n)", ["i"])
        b = _h("exists u: (1 <= i <= u and u <= n)", ["i"])
        assert a == b

    def test_symbolic_constant_name_matters(self):
        assert _h("1 <= i <= n", ["i"]) != _h("1 <= i <= m", ["i"])

    def test_over_set_matters(self):
        base = "1 <= i and i < j and j <= n"
        assert _h(base, ["i", "j"]) != _h(base, ["i"])

    def test_summand_alpha_follows_formula(self):
        a = JobRequest("sum", "1 <= i <= n", over=["i"], poly="i*i")
        b = JobRequest("sum", "1 <= k <= n", over=["k"], poly="k*k")
        c = JobRequest("sum", "1 <= k <= n", over=["k"], poly="k")
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_options_change_hash(self):
        base = "1 <= i <= n"
        assert _h(base, ["i"]) != _h(base, ["i"], strategy="upper")
        assert _h(base, ["i"]) != _h(base, ["i"], remove_redundant=False)
        assert _h(base, ["i"]) != _h(base, ["i"], simplify=True)

    def test_at_points_change_hash(self):
        base = "1 <= i <= n"
        assert _h(base, ["i"]) != _h(base, ["i"], at=[{"n": 5}])
        # ... and so does their order: the cached 'points' list
        # mirrors the computing request's 'at' positionally, so a
        # reordered request must miss rather than receive points in
        # the wrong order.
        assert _h(base, ["i"], at=[{"n": 5}, {"n": 6}]) != _h(
            base, ["i"], at=[{"n": 6}, {"n": 5}]
        )

    def test_timeout_budget_do_not_change_hash(self):
        # Execution limits affect *whether* the answer arrives, never
        # what it is, so they must not fragment the cache.
        base = "1 <= i <= n"
        assert _h(base, ["i"]) == _h(base, ["i"], timeout=5.0, budget=100)

    def test_engine_version_in_payload(self):
        req = JobRequest("count", "1 <= i <= n", over=["i"])
        assert ENGINE_VERSION in req.canonical_payload()

    def test_malformed_formula_raises_parse_error(self):
        req = JobRequest("count", "1 <= i <= ===", over=["i"])
        with pytest.raises(ParseError):
            req.content_hash()

    def test_free_constant_named_like_canonical_bound(self):
        # Canonical bound names live in a control-character namespace,
        # so a free constant literally named b0 can never serialize
        # identically to a canonically-renamed bound variable.  (These
        # two jobs have different answers: the first counts a free
        # constant's box, the second the counted variable's.)
        assert _h("b0 >= 1 and b0 <= 3", ["x"]) != _h(
            "x >= 1 and x <= 3", ["x"]
        )

    def test_bound_variable_named_b0_still_alpha_invariant(self):
        assert _h("b0 >= 1 and b0 <= 3", ["b0"]) == _h(
            "x >= 1 and x <= 3", ["x"]
        )

    def test_symmetric_formula_asymmetric_summand_alpha_invariant(self):
        # The box is symmetric in i and j, so formula refinement alone
        # cannot split them; the summand j*j*i must break the tie, or
        # renaming flips which variable the canonical summand squares
        # (regression: fuzz seed 67956).
        box = "(%s + 3 >= 0) and (-%s + m >= 0)"
        f = "%s and %s" % (box % ("j", "j"), box % ("i", "i"))
        g = "%s and %s" % (box % ("rv0", "rv0"), box % ("rv1", "rv1"))
        a = JobRequest(
            "sum", f, over=["j", "i"], poly="j*j*i"
        ).content_hash()
        b = JobRequest(
            "sum", g, over=["rv0", "rv1"], poly="rv0*rv0*rv1"
        ).content_hash()
        c = JobRequest(
            "sum", g, over=["rv0", "rv1"], poly="rv1*rv1*rv0"
        ).content_hash()
        d = JobRequest(
            "sum", g, over=["rv0", "rv1"], poly="rv0*rv1"
        ).content_hash()
        assert a == b  # alpha-renaming j->rv0, i->rv1
        # Swapping the summand roles composes with the formula's own
        # i<->j symmetry: the whole job is alpha-equivalent, so the
        # hashes must unify.
        assert a == c
        assert a != d  # genuinely different summand

    def test_distinct_structures_distinct_keys(self):
        # Masked shapes collide ((i<j) vs (j<i) both mask to ?<?), but
        # the exact serialization must still split them.
        a = _h("i < j and 0 <= i and 0 <= j and i <= n and j <= n", ["i"])
        b = _h("j < i and 0 <= i and 0 <= j and i <= n and j <= n", ["i"])
        assert a != b


class TestParseOnce:
    def test_decoding_parses_nothing(self, tokenized):
        JobRequest.from_json(
            {"kind": "count", "formula": "1 <= i <= n", "over": ["i"]}
        )
        assert tokenized == []

    def test_every_hash_shares_one_parse(self, tokenized):
        req = JobRequest(
            "evaluate", "1 <= i and i < j and j <= n", over=["i", "j"],
            poly="i + j", at=[{"n": 4}],
        )
        first = (req.content_hash(), req.formula_hash(), req.canonical_payload())
        again = (req.content_hash(), req.formula_hash(), req.canonical_payload())
        assert first == again
        assert len(tokenized) == 1
        assert req.parsed() is req.parsed()

    def test_automaton_key_matches_the_automaton_module(self, tokenized):
        from repro.automaton import automaton_key

        req = JobRequest(
            "member", "exists k: 0 <= i <= 9 and i = 2*k and 0 <= j <= i",
            over=["j", "i", "unused"], at=[{"i": 2, "j": 1, "unused": 0}],
        )
        key = req.automaton_key()
        req.content_hash()
        assert len(tokenized) == 1
        assert key == automaton_key(req.formula, req.over)
        # A summand can move the canonical names, so a request with one
        # has no automaton key (no such request queries an automaton).
        summed = JobRequest("sum", "0 <= i <= 9", over=["i"], poly="i")
        assert summed.automaton_key() is None

    def test_executing_a_count_builds_no_key(self, monkeypatch, tokenized):
        # A forked worker only executes: it parses, and canonicalizes
        # only for a key its job needs (an evaluate's evalc artifact).
        from repro.service import request
        from repro.service.executor import execute_request

        keys = []
        real = request.canonical_formula_key
        monkeypatch.setattr(
            request, "canonical_formula_key",
            lambda *args: keys.append(args) or real(*args),
        )
        execute_request(JobRequest("count", "1 <= i <= n", over=["i"]))
        assert len(tokenized) == 1 and keys == []

    def test_parse_error_is_raised_by_every_hash(self):
        req = JobRequest("count", "1 <= i <= ===", over=["i"])
        for method in (req.content_hash, req.formula_hash, req.automaton_key):
            with pytest.raises(ParseError):
                method()


class TestCanonicalFormulaKey:
    def test_returns_bound_name_mapping(self):
        key, names = canonical_formula_key(
            parse("1 <= i and i < j and j <= n"), ["i", "j"]
        )
        assert set(names) == {"i", "j"}
        # Canonical names are a control-character prefix plus an index
        # -- a namespace no user identifier can occupy.
        assert sorted(names.values()) == ["\x020", "\x021"]
        assert "n" in key  # free symbolic constants keep their names

    def test_deterministic(self):
        f = parse("(1 <= i <= n) or (2 | i) or not (i >= 4)")
        a = canonical_formula_key(f, ["i"])[0]
        b = canonical_formula_key(parse("(2 | i) or (1 <= i <= n) or not (i >= 4)"), ["i"])[0]
        assert a == b
