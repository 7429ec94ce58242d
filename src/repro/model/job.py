"""Run-time job instances used by the discrete-event simulator.

A :class:`Job` is one activation of a sporadic task: released at
``release``, needing ``wcet`` units of service, due at ``release + deadline``.
The simulator mutates job state as it allocates processor time; the analysis
layer never uses jobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.model.task import Task
from repro.util import EPS, approx_le


class JobState(enum.Enum):
    """Lifecycle of a job inside the simulator."""

    READY = "ready"          #: released, waiting for or receiving service
    COMPLETED = "completed"  #: received its full WCET
    ABORTED = "aborted"      #: killed (e.g. its fail-silent channel was silenced)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class Job:
    """One activation of a task.

    Attributes
    ----------
    task:
        The generating task.
    release:
        Absolute release time.
    index:
        Zero-based activation count of the task (job ``k`` releases at
        ``k * T_i`` in the synchronous periodic pattern).
    remaining:
        Execution time still owed to the job.
    state:
        Current :class:`JobState`.
    completion_time:
        Set when the job completes.
    corrupted:
        True when a fault hit the job in NF mode and its output is silently
        wrong (the paper's "unpredictable behaviour" in NF mode).
    name:
        Readable identifier ``task#index``.
    absolute_deadline:
        ``release + D_i``.

    ``name`` and ``absolute_deadline`` are derived once, when the job is
    created: the simulator reads them at every scheduling step, and a job's
    task, release and index never change.
    """

    task: Task
    release: float
    index: int
    remaining: float = field(default=None)  # type: ignore[assignment]
    state: JobState = JobState.READY
    completion_time: float | None = None
    corrupted: bool = False
    name: str = field(init=False, repr=False, compare=False)
    absolute_deadline: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.remaining is None:
            self.remaining = self.task.wcet
        self.name = f"{self.task.name}#{self.index}"
        self.absolute_deadline = self.release + self.task.deadline

    @property
    def is_active(self) -> bool:
        """True while the job still needs service."""
        return self.state is JobState.READY and self.remaining > EPS

    def execute(self, amount: float) -> float:
        """Consume up to ``amount`` of remaining work; return time consumed."""
        if amount < -EPS:
            raise ValueError(f"cannot execute negative time: {amount}")
        used = min(max(amount, 0.0), self.remaining)
        self.remaining -= used
        if self.remaining <= EPS:
            self.remaining = 0.0
        return used

    def complete(self, now: float) -> None:
        """Mark the job completed at time ``now``."""
        if self.state is not JobState.READY:
            raise RuntimeError(f"job {self.name} cannot complete from state {self.state}")
        self.state = JobState.COMPLETED
        self.completion_time = now

    def abort(self) -> None:
        """Abort the job (fail-silent channel shutdown)."""
        if self.state is JobState.READY:
            self.state = JobState.ABORTED

    def met_deadline(self) -> bool:
        """True if the job completed at or before its absolute deadline."""
        return (
            self.state is JobState.COMPLETED
            and self.completion_time is not None
            and approx_le(self.completion_time, self.absolute_deadline)
        )

    @property
    def response_time(self) -> float | None:
        """Completion minus release, or None if not completed."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.release

    def __repr__(self) -> str:
        return (
            f"Job({self.name}: r={self.release:g}, d={self.absolute_deadline:g}, "
            f"rem={self.remaining:g}, {self.state})"
        )
