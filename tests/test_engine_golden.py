"""Engine golden: answers and work of 200 fuzz cases, pinned per version.

Every persisted key (the response cache, the ``answers`` table and the
``automata`` table) folds in ``repro.__version__``, so an answer stored
by one engine is served by any later engine with the same version
string.  This test ties the two together.  For fuzz seeds 0-199 it
counts the case's formula and simplifies it to disjoint DNF, each from
empty caches and a restarted fresh-name counter, and hashes

* the printed answers (:data:`ANSWERS`), and
* six engine counters per call (:data:`COUNTERS`), which pin the work
  the Omega core does, not only its result.

What a failure means:

* **Answer digest changed.**  The engine now prints a different answer
  for some case, and persisted answers keyed by the current version
  would go stale.  Either it is a regression (fix it), or the change is
  intended: then bump ``repro.__version__``, which re-keys every
  persisted answer, and pin the new digests under the new version.
* **Counter digest changed, answers not.**  The engine does different
  work for the same answers (a changed recursion, cache or normalize
  step).  Re-pin the counter digest and record the old and new values,
  and which counters moved, in CHANGES.md.
"""

import hashlib

import repro
from repro.core import count, stats
from repro.core.memo import clear_answer_memo
from repro.omega.constraints import reset_fresh_counter
from repro.omega.satisfiability import clear_sat_cache
from repro.presburger import simplify
from repro.testkit.generate import generate_case

SEEDS = range(200)

COUNTERS = (
    "sat_calls",
    "normalize_calls",
    "normalize_iterations",
    "fm_eliminations",
    "kernel_rows_normalized",
    "fm_rows_reused",
)

#: ``repro.__version__`` -> (answer digest, counter digest).
GOLDEN = {
    "1.0.0": (
        "564e757f67487e9813edc317edb5e06ccf68140850552c32c84034f3e81d75b0",
        "f2b59abe01cc5727a95b1fb786d694fc06e3362227bc1a973ffda52f486f4627",
    ),
}


def _digests():
    answers = hashlib.sha256()
    counters = hashlib.sha256()
    for seed in SEEDS:
        case = generate_case(seed)
        for kind in ("count", "simplify"):
            clear_sat_cache()
            clear_answer_memo()
            reset_fresh_counter()
            with stats.collecting_stats() as live:
                if kind == "count":
                    answer = str(count(case.formula, case.over))
                else:
                    answer = str(simplify(case.formula, disjoint=True))
                work = [live[name] for name in COUNTERS]
            answers.update(("%d|%s|%s\n" % (seed, kind, answer)).encode())
            counters.update(("%d|%s|%s\n" % (seed, kind, work)).encode())
    return answers.hexdigest(), counters.hexdigest()


def test_engine_golden_is_pinned_for_this_version():
    assert repro.__version__ in GOLDEN, (
        "no engine golden pinned for version %s" % repro.__version__
    )
    want_answers, want_counters = GOLDEN[repro.__version__]
    got_answers, got_counters = _digests()
    assert got_answers == want_answers, (
        "engine answers changed: fix the regression, or bump "
        "repro.__version__ and pin the new digests under it"
    )
    assert got_counters == want_counters, (
        "engine work changed with the same answers: re-pin the counter "
        "digest and record both values in CHANGES.md"
    )
