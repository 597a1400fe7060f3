"""CLI tests (python -m repro)."""

import os
import subprocess
import sys

import pytest


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


class TestCount:
    def test_basic(self):
        out = run_cli("count", "1 <= i and i < j and j <= n", "--over", "i,j")
        assert out.returncode == 0
        assert "1/2*n**2 - 1/2*n" in out.stdout

    def test_at(self):
        out = run_cli(
            "count", "1 <= i <= n", "--over", "i", "--at", "n=12"
        )
        assert "12" in out.stdout

    def test_table(self):
        out = run_cli(
            "count", "1 <= i <= n", "--over", "i", "--table", "n=0:3"
        )
        lines = [l for l in out.stdout.splitlines() if l.strip().startswith("n=")]
        assert len(lines) == 4

    def test_simplify_flag(self):
        out = run_cli(
            "count",
            "1 <= i and 1 <= j <= n and 2*i <= 3*j",
            "--over", "i,j", "--simplify",
        )
        assert "mod 2" in out.stdout

    def test_strategy(self):
        out = run_cli(
            "count", "1 <= i and 7*i <= n", "--over", "i",
            "--strategy", "upper",
        )
        assert "upper bound" in out.stdout


class TestSum:
    def test_polynomial(self):
        out = run_cli(
            "sum", "1 <= i <= n", "--over", "i", "--poly", "i*i",
            "--at", "n=4",
        )
        assert out.returncode == 0
        assert "30" in out.stdout


class TestSimplify:
    def test_clauses_printed(self):
        out = run_cli("simplify", "x >= 1 and x >= 0")
        assert out.returncode == 0
        assert "x - 1 >= 0" in out.stdout

    def test_false(self):
        out = run_cli("simplify", "x >= 5 and x <= 3")
        assert "FALSE" in out.stdout

    def test_disjoint(self):
        out = run_cli(
            "simplify", "(1 <= x <= 10) or (5 <= x <= 15)", "--disjoint"
        )
        assert out.returncode == 0
        assert out.stdout.count(">=") >= 2


class TestErrors:
    def test_missing_over(self):
        out = run_cli("count", "1 <= i <= n")
        assert out.returncode != 0

    def test_bad_table_spec(self):
        out = run_cli(
            "count", "1 <= i <= n", "--over", "i", "--table", "nonsense"
        )
        assert out.returncode != 0


class TestStats:
    def test_stats_flag_prints_counters(self):
        out = run_cli(
            "count", "1 <= i <= n and 1 <= j <= i", "--over", "i,j",
            "--table", "n=0:6", "--stats",
        )
        assert out.returncode == 0
        assert "-- stats --" in out.stderr
        assert "sat_calls" in out.stderr
        hits = [
            line for line in out.stderr.splitlines()
            if line.startswith("sat_cache_hits")
        ]
        assert hits and int(hits[0].split()[1]) > 0

    def test_stats_off_by_default(self):
        out = run_cli("count", "1 <= i <= n", "--over", "i")
        assert "sat_calls" not in out.stderr

    def test_stats_on_simplify(self):
        out = run_cli(
            "simplify", "x >= 1 and x >= 0 and (x <= 5 or x <= 9)",
            "--stats",
        )
        assert out.returncode == 0
        assert "sat_calls" in out.stderr

    def test_engine_work_is_independent_of_the_hash_seed(self):
        # Wildcard sets are frozensets; iterating one in hash order
        # used to pick a different projection (and different fresh
        # names) per PYTHONHASHSEED, so the counters moved between runs.
        formula = (
            "exists u, v: 1 <= u <= N and 1 <= v <= M + u"
            " and u <= x <= u + 1 and v <= y <= v + 1"
        )
        runs = [
            run_cli(
                "count", formula, "--over", "x,y", "--stats",
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            for seed in ("0", "3")
        ]
        for out in runs:
            assert out.returncode == 0, out.stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr


class TestAtErrors:
    def test_non_integer_value_is_clean_error(self):
        out = run_cli("count", "1 <= i <= n", "--over", "i", "--at", "n=abc")
        assert out.returncode == 2
        assert "must be an integer" in out.stderr
        assert "Traceback" not in out.stderr

    def test_missing_equals_is_clean_error(self):
        out = run_cli("count", "1 <= i <= n", "--over", "i", "--at", "n10")
        assert out.returncode == 2
        assert "sym=value" in out.stderr
        assert "Traceback" not in out.stderr

    def test_at_repeatable_merges_symbols(self):
        out = run_cli(
            "count", "1 <= i <= n and i <= m", "--over", "i",
            "--at", "n=3", "--at", "m=7",
        )
        assert out.returncode == 0
        assert "at {'n': 3, 'm': 7}: 3" in out.stdout


class TestEval:
    def test_points(self):
        out = run_cli(
            "eval", "1 <= i and i <= n and 3 | (i + n)", "--over", "i",
            "--points", "n=9", "--points", "n=-4",
        )
        assert out.returncode == 0
        assert "at {'n': 9}: 3" in out.stdout
        assert "at {'n': -4}: 0" in out.stdout

    def test_points_with_poly(self):
        out = run_cli(
            "eval", "1 <= i <= n", "--over", "i", "--poly", "i*i",
            "--points", "n=4",
        )
        assert out.returncode == 0
        assert "at {'n': 4}: 30" in out.stdout

    def test_multi_symbol_point(self):
        out = run_cli(
            "eval", "1 <= i and i <= n and i <= m", "--over", "i",
            "--points", "n=3,m=7",
        )
        assert out.returncode == 0
        assert "3" in out.stdout

    def test_table_served_compiled(self):
        out = run_cli(
            "eval", "1 <= i <= n", "--over", "i", "--table", "n=0:3"
        )
        assert out.returncode == 0
        lines = [
            l for l in out.stdout.splitlines() if l.strip().startswith("n=")
        ]
        assert len(lines) == 4

    def test_no_compile_matches_compiled(self):
        args = (
            "eval", "1 <= i and 2*i <= n and 2 | (i + n)", "--over", "i",
            "--points", "n=11", "--points", "n=-6", "--table", "n=0:8",
        )
        compiled = run_cli(*args)
        interpreted = run_cli(*args, "--no-compile")
        assert compiled.returncode == 0
        assert compiled.stdout == interpreted.stdout

    def test_bad_point_is_clean_error(self):
        out = run_cli(
            "eval", "1 <= i <= n", "--over", "i", "--points", "n=abc"
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
