"""Write ``cold_cases.json``: the fuzz cases ``serve-cold`` draws from.

    PYTHONPATH=src python3 perfbench/classify_cases.py

For every ``repro.testkit.generate.generate_case`` seed below
:data:`CASES` it records whether the case has free symbols, whether it
carries a summand, whether its disjunctive normal form has several
clauses, and the satisfiability calls its count costs the engine.  A
several-clause formula is disjointified, which costs a forked worker
far more than the rest.  Drawing each round's mix of those classes, of
bounded work, from this fixed table keeps every seed's round equally
heavy, and keeps the benchmark's inputs independent of the engine
version it measures.
"""

import json
import os

#: Fuzz-case seeds classified.
CASES = 4000

#: Flag bits of a classified case.
SEVERAL_CLAUSES = 1
HAS_SYMBOLS = 2
HAS_POLY = 4

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cold_cases.json")


def classify(cases: int = CASES) -> list:
    """[[case seed, flags, sat calls of its count], ...]."""
    from repro.core import count, stats
    from repro.core.memo import clear_answer_memo
    from repro.omega.satisfiability import clear_sat_cache
    from repro.presburger.dnf import to_dnf
    from repro.testkit.generate import generate_case

    out = []
    for seed in range(cases):
        case = generate_case(seed)
        clear_sat_cache()
        clear_answer_memo()
        try:
            several = len(to_dnf(case.formula)) > 1
            with stats.collecting_stats() as counters:
                count(case.formula, case.over)
                work = counters["sat_calls"]
        except Exception:  # a blow-up: leave the case out
            continue
        flags = (
            (SEVERAL_CLAUSES if several else 0)
            | (HAS_SYMBOLS if case.symbols else 0)
            | (HAS_POLY if case.poly_text else 0)
        )
        out.append([seed, flags, work])
    return out


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump({"cases": classify()}, fh, separators=(",", ":"))
        fh.write("\n")
