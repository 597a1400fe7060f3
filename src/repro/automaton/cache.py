"""Bounded resident cache of built automata.

Mirrors the serve daemon's resident evalc-artifact tier: automata are
expensive to build and cheap to query, so the build is keyed by a
*point-free* alpha-invariant description (canonical formula key plus
the canonical names of the counted variables in query order -- the
query point, box bounds and request kind are deliberately excluded)
and kept in a process-global LRU.  A stream of ``member`` /
``count_below`` requests against one formula then pays for one build
no matter how the variables are named or how many distinct points and
thresholds arrive.  The serve daemon's worker threads share it.
"""

from repro.core import stats

#: The built automata kept in memory, at most 256.
RESIDENT = stats.BoundedLRU(
    stats.CACHE_LIMITS["automaton_cache"], "automaton_cache"
)


def clear_automaton_cache() -> None:
    RESIDENT.clear()


def automaton_cache_info() -> dict:
    """Current size and capacity of the resident LRU."""
    return {"size": len(RESIDENT), "limit": RESIDENT.limit}
