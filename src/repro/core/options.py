"""Options controlling the summation engine (Sections 4.2.1, 4.6).

The paper offers three ways to handle rational (floor/ceiling) bounds
and, orthogonally, exact vs approximate simplification.  ``Strategy``
selects the rational-bound treatment:

* ``EXACT`` (default): use the *symbolic* closed form with ``mod``
  atoms when the bound depends only on symbolic constants (exact, no
  case split); otherwise *splinter* the problem into residue cases
  (exact, more pieces).
* ``SPLINTER``: always splinter (never introduce mod atoms).
* ``UPPER`` / ``LOWER``: replace floors/ceilings by rational bounds
  giving an upper/lower bound on the sum (valid for non-negative
  summands, e.g. counting).
* ``MIDPOINT``: the paper's "best guess": the average of the rational
  upper and lower bound substitutions.

Performance knobs live next to the machinery they tune rather than
here (they are process-global, not per-call):

* ``repro.omega.satisfiability.set_sat_cache_limit`` -- capacity of
  the satisfiability LRU memo (default 200000 entries; 0 disables).
* ``repro.core.memo.set_answer_memo`` / ``REPRO_ANSWER_MEMO`` --
  capacity of the answer memo (default 50000 items; 0 disables).
* ``repro.omega.problem.set_normalize_memo`` -- the per-instance
  ``Conjunct.normalize`` memo (on by default).
* ``repro.core.stats`` -- opt-in counters for every hot primitive;
  see ``collecting_stats`` / ``stats_snapshot`` and the CLI's
  ``--stats`` flag, which reports every cache in one schema.
"""

import enum
from typing import NamedTuple


class Strategy(enum.Enum):
    EXACT = "exact"
    SPLINTER = "splinter"
    UPPER = "upper"
    LOWER = "lower"
    MIDPOINT = "midpoint"

    @property
    def is_exact(self) -> bool:
        return self in (Strategy.EXACT, Strategy.SPLINTER)


class SumOptions(NamedTuple):
    """Knobs for the engine.

    ``strategy``: rational-bound handling (above).
    ``remove_redundant``: run the complete redundancy test before
    choosing a summation variable (Section 4.4 step 1; the conclusion
    singles this out as important).
    ``max_residue_split``: safety cap on residue enumeration when
    clearing strides off a summation variable.
    """

    strategy: Strategy = Strategy.EXACT
    remove_redundant: bool = True
    max_residue_split: int = 64

    def with_strategy(self, strategy: Strategy) -> "SumOptions":
        return self._replace(strategy=strategy)


DEFAULT_OPTIONS = SumOptions()
