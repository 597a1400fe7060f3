"""Engine golden: answers and work of fuzz cases and the corpus, per version.

Every persisted key (the response cache, the ``answers`` table and the
``automata`` table) folds in ``repro.__version__``, so an answer stored
by one engine is served by any later engine with the same version
string.  This test ties the two together.  Every call starts from
empty caches and a restarted fresh-name counter, and three digests are
pinned:

* the printed count and disjoint-simplify answers of fuzz seeds 0-199;
* six engine counters per such call (:data:`COUNTERS`), which pin the
  work the Omega core does, not only its result;
* the printed ``sum_poly`` answers of those fuzz seeds whose case has
  a summand, and the printed count (and sum, where the entry has a
  summand) of every ``tests/corpus`` entry, which pin the summation
  arithmetic and the cases the fuzzer once failed on.

What a failure means:

* **Answer or sum digest changed.**  The engine now prints a different
  answer for some case, and persisted answers keyed by the current
  version would go stale.  Either it is a regression (fix it), or the
  change is intended: then bump ``repro.__version__``, which re-keys
  every persisted answer, and pin the new digests under the new
  version.
* **Counter digest changed, answers not.**  The engine does different
  work for the same answers (a changed recursion, cache or normalize
  step).  Re-pin the counter digest and record the old and new values,
  and which counters moved, in CHANGES.md.
"""

import hashlib
import os

import repro
from repro.core import count, stats, sum_poly
from repro.core.memo import clear_answer_memo
from repro.omega.constraints import reset_fresh_counter
from repro.omega.satisfiability import clear_sat_cache
from repro.presburger import simplify
from repro.qpoly.parse import parse_polynomial
from repro.testkit.corpus import load_corpus
from repro.testkit.generate import generate_case

SEEDS = range(200)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

COUNTERS = (
    "sat_calls",
    "normalize_calls",
    "normalize_iterations",
    "fm_eliminations",
    "kernel_rows_normalized",
    "fm_rows_reused",
)

#: ``repro.__version__`` -> (answer digest, counter digest, sum and
#: corpus digest).
GOLDEN = {
    "1.0.0": (
        "564e757f67487e9813edc317edb5e06ccf68140850552c32c84034f3e81d75b0",
        "f2b59abe01cc5727a95b1fb786d694fc06e3362227bc1a973ffda52f486f4627",
        "f49339803c1051a51050e3480e0241fbfe04b84fd736f2299520ebc58762bb06",
    ),
}


def _reset():
    clear_sat_cache()
    clear_answer_memo()
    reset_fresh_counter()


def _digests():
    answers = hashlib.sha256()
    counters = hashlib.sha256()
    for seed in SEEDS:
        case = generate_case(seed)
        for kind in ("count", "simplify"):
            _reset()
            with stats.collecting_stats() as live:
                if kind == "count":
                    answer = str(count(case.formula, case.over))
                else:
                    answer = str(simplify(case.formula, disjoint=True))
                work = [live[name] for name in COUNTERS]
            answers.update(("%d|%s|%s\n" % (seed, kind, answer)).encode())
            counters.update(("%d|%s|%s\n" % (seed, kind, work)).encode())
    return answers.hexdigest(), counters.hexdigest()


def _sums_digest():
    """Printed sums of the fuzz seeds with a summand, then the corpus."""
    digest = hashlib.sha256()

    def record(label, kind, case, poly_text=None):
        _reset()
        if poly_text is None:
            answer = str(count(case.formula, case.over))
        else:
            answer = str(
                sum_poly(case.formula, case.over, parse_polynomial(poly_text))
            )
        digest.update(("%s|%s|%s\n" % (label, kind, answer)).encode())

    for seed in SEEDS:
        case = generate_case(seed)
        if case.poly_text:
            record(seed, "sum", case, case.poly_text)
    for path, case, _check in load_corpus(CORPUS_DIR):
        label = os.path.basename(path)
        record(label, "count", case)
        if case.poly_text:
            record(label, "sum", case, case.poly_text)
    return digest.hexdigest()


def test_engine_golden_is_pinned_for_this_version():
    assert repro.__version__ in GOLDEN, (
        "no engine golden pinned for version %s" % repro.__version__
    )
    want_answers, want_counters, _ = GOLDEN[repro.__version__]
    got_answers, got_counters = _digests()
    assert got_answers == want_answers, (
        "engine answers changed: fix the regression, or bump "
        "repro.__version__ and pin the new digests under it"
    )
    assert got_counters == want_counters, (
        "engine work changed with the same answers: re-pin the counter "
        "digest and record both values in CHANGES.md"
    )


def test_sum_and_corpus_answers_are_pinned_for_this_version():
    assert repro.__version__ in GOLDEN, (
        "no engine golden pinned for version %s" % repro.__version__
    )
    assert _sums_digest() == GOLDEN[repro.__version__][2], (
        "sum or corpus answers changed: fix the regression, or bump "
        "repro.__version__ and pin the new digests under it"
    )
