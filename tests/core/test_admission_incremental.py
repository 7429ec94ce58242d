"""Incremental admission equals the all-bins recompute it replaced.

:class:`AdmissionController` keeps each bin's ``minQ`` at the fixed period
and recomputes only the bin an operation changes. :class:`ReferenceController`
below is the controller as it was before that memo: every candidate bin
re-runs ``minQ`` (through a :class:`QuantumCurve`) over every bin of its
mode, and every removal or kill re-runs it over the whole mode. Seeded
random sequences of admissions, removals and processor kills must give
equal decisions and equal state through both, with no tolerance.
"""

import numpy as np
import pytest

from repro.core import AdmissionController, AdmissionDecision, Overheads, design_platform
from repro.core import admission as admission_module
from repro.core.config import PlatformConfig, SlotSchedule
from repro.core.design import DesignError
from repro.core.minq import QuantumCurve
from repro.generators import generate_mixed_taskset
from repro.generators.periods import hyperperiod_limited_periods
from repro.model import Mode, PartitionedTaskSet, Task, TaskSet
from repro.partition import PartitionError, partition_by_modes
from repro.util import EPS


class ReferenceController:
    """The pre-memo admission algorithm: every decision recomputes every bin."""

    def __init__(self, config: PlatformConfig, partition: PartitionedTaskSet):
        self._alg = config.algorithm.upper()
        self._period = config.period
        self._overheads = config.schedule.overheads
        self._bins = {mode: list(partition.bins(mode)) for mode in Mode}
        self._usable = {mode: config.schedule.usable(mode) for mode in Mode}
        self.slack = config.slack
        self._dead: set[tuple[Mode, int]] = set()

    def usable_quantum(self, mode: Mode) -> float:
        return self._usable[mode]

    def config(self) -> PlatformConfig:
        quanta = {}
        for mode in Mode:
            usable = self._usable[mode]
            quanta[mode] = usable + (self._overheads.of(mode) if usable > EPS else 0.0)
        return PlatformConfig(
            schedule=SlotSchedule(self._period, quanta, self._overheads),
            algorithm=self._alg,
            slack=self.slack,
            goal="online",
            min_quanta={m: self._mode_minq(m) for m in Mode},
        )

    def _bin_minq(self, taskset: TaskSet) -> float:
        if len(taskset) == 0:
            return 0.0
        return float(QuantumCurve(taskset, self._alg).evaluate(self._period))

    def _mode_minq(self, mode: Mode, bins: list[TaskSet] | None = None) -> float:
        bins = self._bins[mode] if bins is None else bins
        return max((self._bin_minq(ts) for ts in bins), default=0.0)

    def try_admit(self, task: Task, processor: int | None = None) -> AdmissionDecision:
        mode = task.mode
        bins = self._bins[mode]
        for ts in bins:
            if task.name in ts:
                return AdmissionDecision(
                    False, mode, None, 0.0, self.slack,
                    reason=f"task {task.name!r} already present",
                )
        candidates = range(len(bins)) if processor is None else [processor]
        best = None
        for idx in candidates:
            if not 0 <= idx < len(bins):
                return AdmissionDecision(
                    False, mode, None, 0.0, self.slack,
                    reason=f"processor index {idx} out of range for {mode}",
                )
            if (mode, idx) in self._dead:
                if processor is not None:
                    return AdmissionDecision(
                        False, mode, None, 0.0, self.slack,
                        reason=f"processor {mode}[{idx}] has failed permanently",
                    )
                continue
            trial = [ts if i != idx else ts.add(task) for i, ts in enumerate(bins)]
            new_minq = self._mode_minq(mode, trial)
            growth = max(new_minq - self._usable[mode], 0.0)
            extra_overhead = (
                self._overheads.of(mode)
                if self._usable[mode] <= EPS and new_minq > EPS
                else 0.0
            )
            cost = growth + extra_overhead
            if best is None or cost < best[0] - EPS:
                best = (cost, idx, new_minq)
        if best is None:
            return AdmissionDecision(
                False, mode, None, 0.0, self.slack,
                reason=f"every processor of mode {mode} has failed",
            )
        cost, idx, new_minq = best
        if cost > self.slack + 1e-9:
            return AdmissionDecision(
                False, mode, None, cost, self.slack,
                reason=(
                    f"needs {cost:.6f} extra bandwidth but only "
                    f"{self.slack:.6f} slack is reserved"
                ),
            )
        self._bins[mode][idx] = self._bins[mode][idx].add(task)
        grown = max(new_minq - self._usable[mode], 0.0)
        self._usable[mode] = max(self._usable[mode], new_minq)
        self.slack -= cost
        return AdmissionDecision(True, mode, idx, grown, self.slack)

    def kill_processor(self, mode: Mode, processor: int) -> tuple[Task, ...]:
        bins = self._bins[mode]
        if not 0 <= processor < len(bins):
            raise ValueError(f"processor index {processor} out of range for {mode}")
        if (mode, processor) in self._dead:
            return ()
        self._dead.add((mode, processor))
        orphans = tuple(bins[processor])
        bins[processor] = TaskSet()
        new_minq = self._mode_minq(mode)
        old_usable = self._usable[mode]
        new_usable = min(old_usable, max(new_minq, 0.0))
        freed = old_usable - new_usable
        if new_minq <= EPS and old_usable > EPS:
            freed += self._overheads.of(mode)
            new_usable = 0.0
        self._usable[mode] = new_usable
        self.slack += freed
        return orphans

    def remove(self, task_name: str) -> float:
        for mode in Mode:
            for idx, ts in enumerate(self._bins[mode]):
                if task_name in ts:
                    self._bins[mode][idx] = ts.without([task_name])
                    new_minq = self._mode_minq(mode)
                    old_usable = self._usable[mode]
                    new_usable = new_minq
                    freed = max(old_usable - new_usable, 0.0)
                    if new_minq <= EPS and old_usable > EPS:
                        freed += self._overheads.of(mode)
                        new_usable = 0.0
                    self._usable[mode] = new_usable
                    self.slack += freed
                    return freed
        raise KeyError(f"task {task_name!r} not found in any mode")


def deployment(seed: int, algorithm: str):
    """An online-shaped deployment: generated set, worst-fit, max-slack."""
    rng = np.random.default_rng(seed)
    while True:
        ts = generate_mixed_taskset(
            int(rng.integers(3, 9)),
            float(rng.uniform(0.3, 1.2)),
            rng,
            period_method="hyperperiod-limited",
            period_hyperperiod=[720.0, 3600.0][seed % 2],
        )
        try:
            part = partition_by_modes(ts, heuristic="worst-fit")
            config = design_platform(
                part, algorithm, Overheads.uniform(0.05), "max-slack"
            )
        except (PartitionError, DesignError, RuntimeError):
            continue
        return part, config, rng


def arrival(rng: np.random.Generator, name: str) -> Task:
    draw = rng.random()
    mode = Mode.NF if draw < 0.5 else (Mode.FS if draw < 0.8 else Mode.FT)
    period = float(hyperperiod_limited_periods(1, rng, hyperperiod=720.0)[0])
    return Task(name, period * float(rng.uniform(0.02, 0.15)), period, mode=mode)


def outcome(call):
    """A call's result, or its exception as a comparable value."""
    try:
        return call()
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def replay(seed: int, algorithm: str, steps: int = 40):
    """Drive both controllers through one random sequence, step by step."""
    part, config, rng = deployment(seed, algorithm)
    ctrl = AdmissionController(config, part)
    ref = ReferenceController(config, part)
    names = [t.name for t in part.all_tasks()]
    for step in range(steps):
        op = rng.random()
        if op < 0.45:
            task = arrival(rng, f"dyn{step}")
            names.append(task.name)
            results = [outcome(lambda c=c: c.try_admit(task)) for c in (ctrl, ref)]
        elif op < 0.6:
            task = arrival(rng, f"dyn{step}")
            names.append(task.name)
            proc = int(rng.integers(-1, 4))
            results = [
                outcome(lambda c=c: c.try_admit(task, processor=proc))
                for c in (ctrl, ref)
            ]
        elif op < 0.65:
            # re-offering a present (or departed) task
            task = next(iter(part.all_tasks()))
            results = [outcome(lambda c=c: c.try_admit(task)) for c in (ctrl, ref)]
        elif op < 0.9:
            # admitted, rejected, departed or initial: unknown names raise
            name = names[int(rng.integers(len(names)))]
            results = [outcome(lambda c=c: c.remove(name)) for c in (ctrl, ref)]
        else:
            mode = list(Mode)[int(rng.integers(3))]
            proc = int(rng.integers(0, 4))
            results = [
                outcome(lambda c=c: c.kill_processor(mode, proc))
                for c in (ctrl, ref)
            ]
        yield ctrl, ref, results


@pytest.mark.parametrize("algorithm", ["EDF", "RM"])
@pytest.mark.parametrize("seed", range(12))
def test_incremental_matches_full_recompute(seed, algorithm):
    admitted = 0
    for ctrl, ref, (got, want) in replay(seed, algorithm):
        assert got == want
        assert ctrl.slack == ref.slack
        for mode in Mode:
            assert ctrl.usable_quantum(mode) == ref.usable_quantum(mode)
        assert ctrl.config() == ref.config()
        admitted += isinstance(got, AdmissionDecision) and got.admitted
    assert admitted > 0


class CountingMinQ:
    """Counts every bin ``minQ`` the controller computes, through both of
    its seams: ``min_quantum`` and the fixed-period evaluation on a trial's
    derived integer grid (``min_quantum_edf_scaled``)."""

    def __init__(self, real):
        self.real = real  # the unpatched min_quantum, for expectations
        self.calls = 0

    def wrap(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)

        return counted


@pytest.fixture
def counting(monkeypatch):
    counter = CountingMinQ(admission_module.min_quantum)
    for name in ("min_quantum", "min_quantum_edf_scaled"):
        real = getattr(admission_module, name)
        monkeypatch.setattr(admission_module, name, counter.wrap(real))
    return counter


def scanned_candidates(ctrl, config, task, dead, min_quantum) -> int:
    """The live bins an arrival computes a ``minQ`` for: each in order, up
    to and including the first that makes the best cost ``<= EPS``."""
    mode = task.mode
    usable = ctrl.usable_quantum(mode)
    bins = ctrl.partition().bins(mode)
    minqs = [min_quantum(ts, config.algorithm, config.period) for ts in bins]
    scanned, best = 0, None
    for idx, ts in enumerate(bins):
        if (mode, idx) in dead:
            continue
        scanned += 1
        trial = min_quantum(ts.add(task), config.algorithm, config.period)
        new_minq = max([*minqs[:idx], trial, *minqs[idx + 1:]])
        cost = max(new_minq - usable, 0.0)
        if usable <= EPS and new_minq > EPS:
            cost += config.schedule.overheads.of(mode)
        if best is None or cost < best - EPS:
            best = cost
            if best <= EPS:
                break
    return scanned


@pytest.mark.parametrize("algorithm", ["EDF", "RM"])
def test_warm_mode_costs_one_minq_per_candidate(counting, algorithm):
    part, config, rng = deployment(3, algorithm)
    ctrl = AdmissionController(config, part)
    assert counting.calls == 0  # nothing is computed up front
    ctrl.config()  # warms every mode: one minQ per bin
    bins = {mode: len(part.bins(mode)) for mode in Mode}
    assert counting.calls == sum(bins.values())

    ctrl.kill_processor(Mode.FS, 0)
    dead = {(Mode.FS, 0)}
    scans = []
    for step in range(30):
        task = arrival(rng, f"dyn{step}")
        expected = scanned_candidates(ctrl, config, task, dead, counting.real)
        before = counting.calls
        ctrl.try_admit(task)
        assert counting.calls - before == expected
        scans.append(
            (expected, sum((task.mode, i) not in dead for i in range(bins[task.mode])))
        )
        last = bins[task.mode] - 1
        present = task.name in ctrl.partition().mode_taskset(task.mode).names
        before = counting.calls
        ctrl.try_admit(task, processor=last)
        expected = int(not present and (task.mode, last) not in dead)
        assert counting.calls - before == expected
    for task in ctrl.partition().all_tasks():
        before = counting.calls
        ctrl.remove(task.name)
        assert counting.calls - before == 1
    # the sequence exercises both a full scan and an early stop
    assert any(scanned == live for scanned, live in scans)
    assert any(scanned < live for scanned, live in scans)


@pytest.mark.parametrize("algorithm", ["EDF", "RM"])
@pytest.mark.parametrize(
    "wcets, chosen",
    [
        # the lightest bin first: it fits at zero cost, the scan stops there
        ((2.0, 3.0, 4.0, 5.0), 0),
        # the binding bin first: it grows by a hair, so bin 1 is tried too
        ((5.0, 2.0, 3.0, 4.0), 1),
    ],
)
def test_scan_stops_at_the_first_zero_cost_fit(counting, algorithm, wcets, chosen):
    # four one-task NF bins in a 4-bin mode
    part = PartitionedTaskSet(
        {
            Mode.NF: [TaskSet([Task(f"n{i}", c, 40.0)]) for i, c in enumerate(wcets)],
            Mode.FS: [TaskSet([Task("s", 3.0, 30.0, mode=Mode.FS)])],
            Mode.FT: [TaskSet([Task("f", 2.0, 60.0, mode=Mode.FT)])],
        }
    )
    assert len(part.bins(Mode.NF)) == 4
    config = design_platform(part, algorithm, Overheads.uniform(0.05), "max-slack")
    ctrl = AdmissionController(config, part)
    ref = ReferenceController(config, part)
    ctrl.config()  # warm
    task = Task("tiny", 1e-4, 40.0, mode=Mode.NF)
    before = counting.calls
    got = ctrl.try_admit(task)
    assert counting.calls - before == chosen + 1
    assert got == ref.try_admit(task)
    assert got.admitted and got.processor == chosen and got.quantum_growth == 0.0
    assert ctrl.config() == ref.config()


def test_kill_of_a_warm_mode_computes_nothing(counting):
    part, config, _ = deployment(5, "EDF")
    ctrl = AdmissionController(config, part)
    ctrl.config()
    before = counting.calls
    ctrl.kill_processor(Mode.NF, 0)
    assert counting.calls == before
