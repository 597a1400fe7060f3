"""The persistent automaton store: restarts keep resident DFAs.

A "restart" is simulated by clearing the in-process resident LRU:
whatever survives must have come back from the ``automata`` diskcache
table, not from memory.
"""

import pytest

from repro.automaton import (
    automaton_for,
    automaton_key,
    automaton_store_info,
    clear_automaton_cache,
    has_resident_automaton,
    member,
    set_automaton_store,
)
from repro.automaton.store import (
    AUTOMATON_SCHEMA_VERSION,
    deserialize_automaton,
    disk_key,
    serialize_automaton,
    store_contains,
    store_get,
    store_put,
)
from repro.core import stats

FORMULA = "0 <= i <= 12 and 0 <= j <= 12 and i + j <= 12 and 2 | (i + j)"
OVER = ["i", "j"]


@pytest.fixture
def store(tmp_path):
    previous_explicit = set_automaton_store(str(tmp_path / "auto.sqlite"))
    clear_automaton_cache()
    yield
    set_automaton_store(previous_explicit)
    clear_automaton_cache()


def _count_points(aut):
    return sum(
        1
        for i in range(13)
        for j in range(13)
        if i + j <= 12 and (i + j) % 2 == 0
    )


class TestSerialization:
    def test_round_trip_preserves_semantics(self, store):
        aut = automaton_for(FORMULA, OVER)
        clone = deserialize_automaton(serialize_automaton(aut))
        assert clone is not None
        assert clone.nbits == aut.nbits
        assert clone.variables == tuple(aut.variables)
        for i in range(13):
            for j in range(13):
                assert member(clone, (i, j)) == member(aut, (i, j))

    def test_corrupt_documents_are_misses_not_errors(self, store):
        aut = automaton_for(FORMULA, OVER)
        good = serialize_automaton(aut)
        assert deserialize_automaton(good) is not None
        for breakage in (
            {"schema": AUTOMATON_SCHEMA_VERSION + 1},
            {"engine": "0.0.0-other"},
            {"initial": 10**9},
            {"initial": -1},
            {"delta": []},
            {"delta": [row[:-1] for row in good["delta"]]},
            {"delta": [[10**9] * len(good["delta"][0])]},
            {"accept": good["accept"][:-1]},
            {"nbits": "many"},
        ):
            assert deserialize_automaton(dict(good, **breakage)) is None
        assert deserialize_automaton({}) is None

    def test_disk_key_covers_schema_and_engine(self):
        assert disk_key("k") != disk_key("k2")
        assert len(disk_key("k")) == 64


class TestPersistence:
    def test_restart_keeps_the_resident_set(self, store):
        stats.reset_stats()
        stats.enable_stats()
        try:
            aut = automaton_for(FORMULA, OVER)
            builds = stats.stats_snapshot().get("automaton_builds", 0)
            assert builds == 1
            assert stats.stats_snapshot().get("automaton_disk_writes") == 1

            # "Restart": the resident LRU is gone, the disk row is not.
            clear_automaton_cache()
            assert has_resident_automaton(automaton_key(FORMULA, OVER))

            again = automaton_for(FORMULA, OVER)
            snap = stats.stats_snapshot()
            assert snap.get("automaton_builds", 0) == 1  # no rebuild
            assert snap.get("automaton_disk_hits") == 1
            assert member(again, (3, 5)) is True
            assert member(again, (3, 6)) is False
        finally:
            stats.disable_stats()

    def test_alpha_variant_hits_the_same_row(self, store):
        automaton_for(FORMULA, OVER)
        clear_automaton_cache()
        renamed = FORMULA.replace("i", "p").replace("j", "q")
        assert has_resident_automaton(automaton_key(renamed, ["p", "q"]))

    def test_disabled_store_is_a_noop(self, tmp_path):
        set_automaton_store(None)
        clear_automaton_cache()
        info = automaton_store_info()
        assert info["enabled"] in (False, True)  # env may point somewhere
        store_put("some-key", automaton_for("0 <= i <= 3", ["i"]))
        # With no REPRO_AUTOMATON_DB and no explicit path, nothing is
        # resident after an LRU clear.
        if not info["enabled"]:
            clear_automaton_cache()
            assert not has_resident_automaton(automaton_key("0 <= i <= 3", ["i"]))
            assert store_get("some-key") is None
            assert not store_contains("some-key")

    def test_store_info_reports_occupancy(self, store):
        automaton_for(FORMULA, OVER)
        info = automaton_store_info()
        assert info["enabled"] is True
        assert info["entries"] == 1
