"""Per-layer call counts and self time, measured from outside the program.

A :class:`LayerTimer` replaces each :class:`Target` -- a method on its
class, or a function in the module namespace that *calls* it (the name is
bound there at import, so patching its home module would record nothing)
-- with a wrapper that times every call. Time spent in a wrapped callee is
charged to the callee, so a layer's self time is its inclusive time minus
the inclusive time of the wrapped layers it called. Every original is put
back by :meth:`LayerTimer.restore`.

Resolution is strict: a target whose owner, attribute or function type
changed raises :class:`TargetError` before anything is patched, so a moved
or renamed entry point fails loudly instead of reporting zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


class TargetError(LookupError):
    """A patch target no longer resolves to a plain function."""


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``owner`` is ``"package.module"`` for a module-level name or
    ``"package.module:Class"`` for a method; ``attr`` is the name replaced
    on it. A ``sample`` target takes no part in self-time accounting: it
    only records each call's duration (per-point latency). ``outcome``
    classifies a return value as a success, counted in ``LayerStats.ok``.
    """

    layer: str
    owner: str
    attr: str
    sample: bool = False
    outcome: "Callable[[Any], bool] | None" = None


@dataclass
class LayerStats:
    calls: int = 0
    ok: int = 0
    #: Outermost calls only, so a recursive layer is not counted twice.
    incl_s: float = 0.0
    self_s: float = 0.0


def resolve(target: Target) -> tuple[Any, Callable[..., Any]]:
    """The owner object and the function ``target`` names, or TargetError."""
    module_name, _, class_name = target.owner.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        # The owner's own namespace: an inherited or vanished attribute is
        # a moved entry point, not something to wrap silently.
        original = vars(owner)[target.attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise TargetError(
            f"{target.layer}: {target.owner}.{target.attr} does not resolve"
        ) from exc
    if not inspect.isfunction(original):
        raise TargetError(
            f"{target.layer}: {target.owner}.{target.attr} is "
            f"{type(original).__name__}, not a plain function"
        )
    return owner, original


class LayerTimer:
    """Wraps targets while active; accumulates :class:`LayerStats` per layer.

    Use as a context manager (``with LayerTimer(targets) as timer:``), or
    call :meth:`install` and :meth:`restore` explicitly.
    """

    def __init__(
        self,
        targets: Iterable[Target],
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.targets = tuple(targets)
        layers = [t.layer for t in self.targets]
        if len(set(layers)) != len(layers):
            raise ValueError(f"duplicate layer names: {layers}")
        self._clock = clock
        self.stats = {t.layer: LayerStats() for t in self.targets}
        #: Call durations of ``sample`` targets, in seconds.
        self.samples: dict[str, list[float]] = {
            t.layer: [] for t in self.targets if t.sample
        }
        #: ``(ancestor, layer)`` -> calls of ``layer`` made while
        #: ``ancestor`` was on the stack.
        self.within: Counter[tuple[str, str]] = Counter()
        #: Inclusive time of layer calls with no layer above them.
        self.top_s = 0.0
        self._children: list[float] = []
        self._active: dict[str, int] = {}
        self._saved: list[tuple[Any, str, Callable[..., Any]]] = []

    # -- accounting ------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        for ancestor in self._active:
            self.within[ancestor, layer] += 1
        self._active[layer] = self._active.get(layer, 0) + 1
        self._children.append(0.0)

    def _exit(self, layer: str, elapsed: float) -> None:
        stats = self.stats[layer]
        child = self._children.pop()
        depth = self._active[layer] - 1
        if depth:
            self._active[layer] = depth
        else:
            del self._active[layer]
            stats.incl_s += elapsed
        stats.calls += 1
        stats.self_s += elapsed - child
        if self._children:
            self._children[-1] += elapsed
        else:
            self.top_s += elapsed

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Account a block of the caller's own code as ``layer``."""
        self.stats.setdefault(layer, LayerStats())
        self._enter(layer)
        start = self._clock()
        try:
            yield
        finally:
            self._exit(layer, self._clock() - start)

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        layer, clock, outcome = target.layer, self._clock, target.outcome
        stats = self.stats[layer]

        if target.sample:
            samples = self.samples[layer]

            @functools.wraps(fn)
            def sampled(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(clock() - start)
                    stats.calls += 1

            return sampled

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            self._enter(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, clock() - start)
            if outcome is not None and outcome(result):
                stats.ok += 1
            return result

        return timed

    # -- patching --------------------------------------------------------------

    def install(self) -> "LayerTimer":
        """Resolve every target, then patch them all (nothing on failure)."""
        if self._saved:
            raise RuntimeError("LayerTimer is already installed")
        resolved = [(t, *resolve(t)) for t in self.targets]
        for target, owner, original in resolved:
            setattr(owner, target.attr, self._wrap(target, original))
            self._saved.append((owner, target.attr, original))
        return self

    def restore(self) -> None:
        """Put every original back, in reverse patch order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTimer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()
