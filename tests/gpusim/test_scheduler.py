"""Tests for sequential draining and randomized interleaving of warp programs."""

import pytest

from repro.gpusim.errors import SchedulerError
from repro.gpusim.scheduler import WarpScheduler, run_sequential


def make_program(log, name, steps):
    def program():
        for i in range(steps):
            log.append((name, i))
            yield
    return program()


class TestRunSequential:
    def test_runs_programs_in_order(self):
        log = []
        steps = run_sequential([make_program(log, "a", 2), make_program(log, "b", 2)])
        assert log == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        assert steps == 4

    def test_empty_program_list(self):
        assert run_sequential([]) == 0

    def test_program_with_no_yields(self):
        def program():
            if False:
                yield
        assert run_sequential([program()]) == 0


class TestWarpScheduler:
    def test_all_programs_complete(self):
        log = []
        scheduler = WarpScheduler(seed=1)
        programs = [make_program(log, name, 5) for name in "abcd"]
        scheduler.run(programs)
        for name in "abcd":
            assert [i for n, i in log if n == name] == list(range(5))

    def test_same_seed_gives_same_interleaving(self):
        log1, log2 = [], []
        WarpScheduler(seed=42).run([make_program(log1, n, 4) for n in "ab"])
        WarpScheduler(seed=42).run([make_program(log2, n, 4) for n in "ab"])
        assert log1 == log2

    def test_different_seeds_usually_differ(self):
        logs = []
        for seed in range(6):
            log = []
            WarpScheduler(seed=seed).run([make_program(log, n, 6) for n in "abc"])
            logs.append(tuple(log))
        assert len(set(logs)) > 1

    def test_interleaving_actually_mixes_programs(self):
        log = []
        WarpScheduler(seed=3).run([make_program(log, n, 10) for n in "ab"])
        names = [n for n, _ in log]
        # A strictly sequential schedule would be 10 a's then 10 b's (or vice
        # versa); a random interleaving of 20 steps almost surely is not.
        assert names != ["a"] * 10 + ["b"] * 10
        assert names != ["b"] * 10 + ["a"] * 10

    def test_steps_executed_accumulates(self):
        scheduler = WarpScheduler(seed=0)
        scheduler.run([make_program([], "a", 3)])
        scheduler.run([make_program([], "b", 2)])
        assert scheduler.steps_executed == 5

    def test_max_steps_guards_against_livelock(self):
        def endless():
            while True:
                yield
        scheduler = WarpScheduler(seed=0, max_steps=100)
        with pytest.raises(SchedulerError):
            scheduler.run([endless()])
