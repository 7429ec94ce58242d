"""Run-time admission of dynamically arriving tasks via slack redistribution.

Section 4 motivates the max-slack design with a dynamic scenario: tasks
arrive and leave at run time, and the platform should be able to *shrink or
enlarge the time quanta* without re-deriving the whole design. This module
implements that controller:

* the design slack (``P − sum Q_k``) is a bandwidth reserve;
* admitting a task into mode ``k`` recomputes ``minQ`` for the candidate
  processor bin at the fixed period ``P`` and grows ``Q_k`` by the required
  amount, provided the reserve covers it;
* removing a task shrinks its mode's quantum back to the new binding value
  and returns the bandwidth to the reserve.

Every bin's ``minQ`` at ``P`` is kept next to the bin and recomputed only
when that bin changes. An arrival costs at most one ``minQ`` per live
candidate bin, and none after the first candidate that fits at zero cost;
a departure costs one.

Under EDF with the fast kernels on, each bin also keeps its integer time
base (:class:`~repro.analysis.kernels.ScaledTaskSet`). A trial derives the
time base of the bin plus the arriving task from it
(:func:`~repro.analysis.kernels.extend`) and evaluates Eq. 11 at ``P`` on
it in one call (:func:`~repro.core.minq.min_quantum_edf_scaled`); the
committed trial's time base becomes the bin's. A trial under RM/DM, with
the kernels off, on an empty bin, or whose time base does not derive,
takes :func:`~repro.core.minq.min_quantum` on the bin with the task added.

The controller never changes ``P`` — changing the major period would require
a platform-level resynchronisation, exactly what the paper's design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import kernels
from repro.core.config import PlatformConfig, SlotSchedule
from repro.core.minq import min_quantum, min_quantum_edf_scaled
from repro.model import Mode, PartitionedTaskSet, Task, TaskSet
from repro.util import EPS


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission attempt.

    Attributes
    ----------
    admitted:
        Whether the task was accepted.
    mode:
        The task's mode.
    processor:
        Chosen processor bin index within the mode (None when rejected).
    quantum_growth:
        Extra usable-slot time the mode needed (0 when it fit in the current
        quantum).
    slack_left:
        Reserve remaining after the decision.
    reason:
        Human-readable explanation for rejections.
    """

    admitted: bool
    mode: Mode
    processor: int | None
    quantum_growth: float
    slack_left: float
    reason: str = ""


class AdmissionController:
    """Online task admission against a deployed :class:`PlatformConfig`.

    Parameters
    ----------
    config:
        The deployed design (typically from the max-slack goal).
    partition:
        The current task partition; the controller keeps its own evolving
        copy.
    algorithm:
        Local scheduler, matching the design.
    """

    def __init__(
        self,
        config: PlatformConfig,
        partition: PartitionedTaskSet,
        algorithm: str | None = None,
    ):
        self._alg = (algorithm or config.algorithm).upper()
        self._period = config.period
        self._overheads = config.schedule.overheads
        self._bins: dict[Mode, list[TaskSet]] = {
            mode: list(partition.bins(mode)) for mode in Mode
        }
        self._usable: dict[Mode, float] = {
            mode: config.schedule.usable(mode) for mode in Mode
        }
        #: Per-bin ``minQ`` at ``P``, parallel to ``_bins``; filled per mode
        #: on first use, then updated wherever a bin changes.
        self._minq: dict[Mode, list[float]] = {}
        #: Per-bin integer time base (``None``: the bin does not rescale),
        #: built on a bin's first EDF trial, replaced by the committed
        #: trial's and dropped wherever else the bin changes.
        self._grids: dict[tuple[Mode, int], kernels.ScaledTaskSet | None] = {}
        self._slack = config.slack
        self._dead: set[tuple[Mode, int]] = set()

    # -- state views -------------------------------------------------------------

    @property
    def slack(self) -> float:
        """Current bandwidth reserve per cycle."""
        return self._slack

    @property
    def period(self) -> float:
        """The (fixed) major period."""
        return self._period

    def usable_quantum(self, mode: Mode) -> float:
        """Current usable slot length of a mode."""
        return self._usable[mode]

    @property
    def dead_processors(self) -> frozenset[tuple[Mode, int]]:
        """Processor bins lost to permanent core failures."""
        return frozenset(self._dead)

    def partition(self) -> PartitionedTaskSet:
        """Snapshot of the current partition."""
        return PartitionedTaskSet({m: tuple(b) for m, b in self._bins.items()})

    def config(self) -> PlatformConfig:
        """Snapshot of the current configuration as a :class:`PlatformConfig`."""
        quanta = {}
        for mode in Mode:
            usable = self._usable[mode]
            quanta[mode] = usable + (self._overheads.of(mode) if usable > EPS else 0.0)
        schedule = SlotSchedule(self._period, quanta, self._overheads)
        return PlatformConfig(
            schedule=schedule,
            algorithm=self._alg,
            slack=self._slack,
            goal="online",
            min_quanta={m: self._mode_minq(m) for m in Mode},
        )

    # -- internals ----------------------------------------------------------------

    def _bin_minq(self, taskset: TaskSet) -> float:
        return min_quantum(taskset, self._alg, self._period)

    def _bin_minqs(self, mode: Mode) -> list[float]:
        minqs = self._minq.get(mode)
        if minqs is None:
            minqs = [self._bin_minq(ts) for ts in self._bins[mode]]
            self._minq[mode] = minqs
        return minqs

    def _mode_minq(self, mode: Mode) -> float:
        return max(self._bin_minqs(mode), default=0.0)

    def _trial_minq(
        self, mode: Mode, idx: int, task: Task
    ) -> tuple[float, kernels.ScaledTaskSet | None]:
        """``minQ`` of bin ``idx`` with ``task`` added, and the trial's
        integer time base when it was derived from the bin's."""
        ts = self._bins[mode][idx]
        if self._alg == "EDF" and kernels.fast_kernels_enabled():
            key = (mode, idx)
            if key not in self._grids:
                self._grids[key] = kernels.rescale(ts.tasks)
            grid = self._grids[key]
            trial = None if grid is None else kernels.extend(grid, task)
            if trial is not None:
                return min_quantum_edf_scaled(trial, self._period), trial
        return self._bin_minq(ts.add(task)), None

    # -- operations -----------------------------------------------------------------

    def try_admit(self, task: Task, processor: int | None = None) -> AdmissionDecision:
        """Attempt to admit ``task`` into its required mode.

        When ``processor`` is None the live bins of the mode are tried in
        order and the one needing the least quantum growth is selected (ties:
        lowest index); the scan stops at the first bin that fits at zero
        cost. A task whose name is already in any mode is rejected. The
        internal partition, quantum and slack are updated only on acceptance.
        """
        mode = task.mode
        bins = self._bins[mode]
        # Names are unique across the partition, not only within a mode.
        every_bin = (ts for mode_bins in self._bins.values() for ts in mode_bins)
        if any(task.name in ts for ts in every_bin):
            return AdmissionDecision(
                False, mode, None, 0.0, self._slack,
                reason=f"task {task.name!r} already present",
            )
        candidates = range(len(bins)) if processor is None else [processor]
        # (cost, idx, new mode minQ, new bin minQ, new bin grid)
        best: (
            tuple[float, int, float, float, kernels.ScaledTaskSet | None] | None
        ) = None
        for idx in candidates:
            if not 0 <= idx < len(bins):
                return AdmissionDecision(
                    False, mode, None, 0.0, self._slack,
                    reason=f"processor index {idx} out of range for {mode}",
                )
            if (mode, idx) in self._dead:
                if processor is not None:
                    return AdmissionDecision(
                        False, mode, None, 0.0, self._slack,
                        reason=f"processor {mode}[{idx}] has failed permanently",
                    )
                continue
            minqs = self._bin_minqs(mode)
            bin_minq, grid = self._trial_minq(mode, idx, task)
            new_minq = max([*minqs[:idx], bin_minq, *minqs[idx + 1:]])
            growth = max(new_minq - self._usable[mode], 0.0)
            # Admitting into an empty mode starts paying the switch overhead.
            extra_overhead = (
                self._overheads.of(mode)
                if self._usable[mode] <= EPS and new_minq > EPS
                else 0.0
            )
            cost = growth + extra_overhead
            if best is None or cost < best[0] - EPS:
                best = (cost, idx, new_minq, bin_minq, grid)
                # Every cost is >= 0, so no later bin can beat a zero-cost
                # fit by more than EPS: the decision is already made.
                if cost <= EPS:
                    break
        if best is None:
            return AdmissionDecision(
                False, mode, None, 0.0, self._slack,
                reason=f"every processor of mode {mode} has failed",
            )
        cost, idx, new_minq, bin_minq, grid = best
        if cost > self._slack + 1e-9:
            return AdmissionDecision(
                False, mode, None, cost, self._slack,
                reason=(
                    f"needs {cost:.6f} extra bandwidth but only "
                    f"{self._slack:.6f} slack is reserved"
                ),
            )
        # Commit.
        self._bins[mode][idx] = self._bins[mode][idx].add(task)
        self._minq[mode][idx] = bin_minq
        if grid is None:
            self._grids.pop((mode, idx), None)
        else:
            self._grids[(mode, idx)] = grid
        grown = max(new_minq - self._usable[mode], 0.0)
        self._usable[mode] = max(self._usable[mode], new_minq)
        self._slack -= cost
        return AdmissionDecision(True, mode, idx, grown, self._slack)

    def kill_processor(self, mode: Mode, processor: int) -> tuple[Task, ...]:
        """Mark a processor bin as permanently failed; return its orphans.

        The bin's admitted tasks are evicted (they are the caller's to
        re-assign, see :class:`repro.sim.online.OnlineSim`), the bin is
        excluded from every future :meth:`try_admit`, and the quantum the
        evicted tasks no longer need is reclaimed into the reserve —
        shrinking the dead bin never hurts the survivors because ``minQ``
        of a mode is the max over its (remaining) bins. Killing an
        already-dead bin is a no-op returning no orphans.
        """
        bins = self._bins[mode]
        if not 0 <= processor < len(bins):
            raise ValueError(
                f"processor index {processor} out of range for {mode}"
            )
        if (mode, processor) in self._dead:
            return ()
        self._dead.add((mode, processor))
        orphans = tuple(bins[processor])
        minqs = self._bin_minqs(mode)
        bins[processor] = TaskSet()
        minqs[processor] = 0.0
        self._grids.pop((mode, processor), None)
        new_minq = max(minqs)
        old_usable = self._usable[mode]
        new_usable = min(old_usable, max(new_minq, 0.0))
        freed = old_usable - new_usable
        if new_minq <= EPS and old_usable > EPS:
            freed += self._overheads.of(mode)
            new_usable = 0.0
        self._usable[mode] = new_usable
        self._slack += freed
        return orphans

    def remove(self, task_name: str) -> float:
        """Remove a task and reclaim quantum into the reserve.

        Returns the amount of bandwidth returned to the slack pool. Raises
        :class:`KeyError` when the task is unknown.
        """
        for mode in Mode:
            for idx, ts in enumerate(self._bins[mode]):
                if task_name in ts:
                    minqs = self._bin_minqs(mode)
                    self._bins[mode][idx] = ts.without([task_name])
                    minqs[idx] = self._bin_minq(self._bins[mode][idx])
                    self._grids.pop((mode, idx), None)
                    new_minq = max(minqs)
                    old_usable = self._usable[mode]
                    new_usable = new_minq
                    freed = max(old_usable - new_usable, 0.0)
                    # Dropping the last task of a mode also stops paying its
                    # switch overhead.
                    if new_minq <= EPS and old_usable > EPS:
                        freed += self._overheads.of(mode)
                        new_usable = 0.0
                    self._usable[mode] = new_usable
                    self._slack += freed
                    return freed
        raise KeyError(f"task {task_name!r} not found in any mode")
