"""Tests of the layer timer and of the benchmark's patch targets.

Run from the repository root::

    python3 perfbench/test_layers.py
"""

from __future__ import annotations

import tempfile
import unittest
from pathlib import Path

import run
from layers import LayerTimer, Target, TargetError, resolve


def setUpModule() -> None:
    run.import_program()


class Clock:
    """A clock the code under test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


clock = Clock()


class Layered:
    def outer(self) -> str:
        clock.now += 1.0
        self.inner()
        clock.now += 2.0
        self.inner()
        return "done"

    def inner(self) -> None:
        clock.now += 0.5
        self.leaf()

    def leaf(self) -> None:
        clock.now += 0.25

    def countdown(self, n: int) -> None:
        clock.now += 1.0
        if n:
            self.countdown(n - 1)

    def fail(self) -> None:
        clock.now += 1.0
        raise RuntimeError("boom")

    @property
    def value(self) -> int:
        return 1


OWNER = f"{__name__}:Layered"


def _targets(*names: str) -> list[Target]:
    return [Target(name, OWNER, name) for name in names]


class LayerTimerTest(unittest.TestCase):
    def setUp(self) -> None:
        clock.now = 0.0

    def test_self_time_is_inclusive_minus_wrapped_children(self) -> None:
        with LayerTimer(_targets("outer", "inner", "leaf"), clock) as timer:
            self.assertEqual(Layered().outer(), "done")
        stats = timer.stats
        self.assertEqual(
            [stats[n].calls for n in ("outer", "inner", "leaf")], [1, 2, 2]
        )
        self.assertEqual(stats["leaf"].incl_s, 0.5)
        self.assertEqual(stats["leaf"].self_s, 0.5)
        self.assertEqual(stats["inner"].incl_s, 1.5)
        self.assertEqual(stats["inner"].self_s, 1.5 - stats["leaf"].incl_s)
        self.assertEqual(stats["outer"].incl_s, 4.5)
        self.assertEqual(
            stats["outer"].self_s, 4.5 - stats["inner"].incl_s
        )
        self.assertEqual(timer.top_s, 4.5)
        self.assertEqual(timer.within["outer", "leaf"], 2)
        self.assertEqual(timer.within["inner", "leaf"], 2)
        self.assertEqual(timer.within["leaf", "inner"], 0)

    def test_unwrapped_middle_layer_counts_as_parent_self_time(self) -> None:
        with LayerTimer(_targets("outer", "leaf"), clock) as timer:
            Layered().outer()
        self.assertEqual(timer.stats["outer"].self_s, 4.5 - 0.5)

    def test_recursion_counts_inclusive_time_once(self) -> None:
        with LayerTimer(_targets("countdown"), clock) as timer:
            Layered().countdown(2)
        stats = timer.stats["countdown"]
        self.assertEqual((stats.calls, stats.incl_s, stats.self_s), (3, 3.0, 3.0))

    def test_span_and_exception_are_accounted(self) -> None:
        with LayerTimer(_targets("fail"), clock) as timer:
            with timer.span("render"):
                clock.now += 1.0
                with self.assertRaises(RuntimeError):
                    Layered().fail()
        self.assertEqual(timer.stats["fail"].calls, 1)
        self.assertEqual(timer.stats["render"].self_s, 1.0)
        self.assertEqual(timer.stats["render"].incl_s, 2.0)
        self.assertEqual(timer.top_s, 2.0)

    def test_sample_target_records_durations_outside_the_stack(self) -> None:
        targets = [Target("inner", OWNER, "inner", sample=True)]
        with LayerTimer(targets + _targets("outer"), clock) as timer:
            Layered().outer()
        self.assertEqual(timer.samples["inner"], [0.75, 0.75])
        self.assertEqual(timer.stats["outer"].self_s, 4.5)

    def test_outcome_counts_successes(self) -> None:
        targets = [Target("outer", OWNER, "outer", outcome=lambda r: r == "done")]
        with LayerTimer(targets, clock) as timer:
            Layered().outer()
        self.assertEqual(timer.stats["outer"].ok, 1)

    def test_restore_after_exception(self) -> None:
        original = vars(Layered)["fail"]
        with self.assertRaises(RuntimeError):
            with LayerTimer(_targets("fail"), clock):
                self.assertIsNot(vars(Layered)["fail"], original)
                Layered().fail()
        self.assertIs(vars(Layered)["fail"], original)

    def test_unresolvable_targets_fail_loudly_and_patch_nothing(self) -> None:
        bad = [
            Target("gone", OWNER, "renamed"),
            Target("inherited", OWNER, "__repr__"),
            Target("property", OWNER, "value"),
            Target("module", "repro.no_such_module", "f"),
            Target("class", f"{__name__}:NoSuchClass", "f"),
        ]
        original = vars(Layered)["outer"]
        for target in bad:
            with self.subTest(target=target.layer):
                with self.assertRaises(TargetError):
                    LayerTimer(_targets("outer") + [target], clock).install()
                self.assertIs(vars(Layered)["outer"], original)


class BenchmarkTargetsTest(unittest.TestCase):
    def test_every_target_resolves(self) -> None:
        for target in run.TARGETS:
            with self.subTest(target=target.layer):
                resolve(target)

    def test_every_original_is_restored(self) -> None:
        before = [resolve(t)[1] for t in run.TARGETS]
        with LayerTimer(run.TARGETS):
            patched = [resolve(t)[1] for t in run.TARGETS]
        self.assertTrue(all(a is not b for a, b in zip(before, patched)))
        self.assertEqual([resolve(t)[1] for t in run.TARGETS], before)

    def test_every_target_records_calls_on_a_small_campaign(self) -> None:
        from repro.runner.aggregate import Aggregator
        from repro.runner.presets import get_preset
        from repro.runner.stream import stream_campaign

        specs = [
            *get_preset("weighted").specs(
                {"u_total": [0.8], "n": [8], "period_hyperperiod": [720.0],
                 "rate": [0.05], "rep": [0]}
            ),
            *get_preset("faultspace").specs(
                {"u_total": [0.8], "rate": [0.05], "scenario": ["poisson"], "rep": [0]}
            ),
            *get_preset("online").specs(
                {"arrival_rate": [2.0], "u_total": [0.5], "scenario": ["poisson"],
                 "rep": [0]}
            ),
        ]
        with tempfile.TemporaryDirectory() as tmp, LayerTimer(run.TARGETS) as timer:
            for name in ("cold", "warm"):
                stream_campaign(
                    specs,
                    Aggregator([]),
                    cache_dir=Path(tmp, "cache"),
                    state_path=Path(tmp, name, "snapshot.json"),
                    on_error="store",
                )
        for target in run.TARGETS:
            with self.subTest(target=target.layer):
                self.assertGreater(timer.stats[target.layer].calls, 0)
        self.assertGreater(timer.stats["runner.cache.get"].ok, 0)


if __name__ == "__main__":
    unittest.main()
