"""Per-layer span tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions by replacing them,
at class or module level, with a wrapper that opens a span around the call.
Nothing inside ``src/`` changes: the wrappers live here and are installed
only for a traced run.  Class-level wrapping matters because the system
rebuilds objects mid-run (``DetectorSystem`` creates a new ``Diagnoser`` at
every controller cycle); an instance-level wrapper would miss the new ones.

Each span is folded, as it closes, into its stage's totals and into its
parent span.  A stage's *self time* is its span time minus the time its
child spans cover, so the self times of all stages never add up to more
than the wall time they ran in.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class StageStats:
    """Accumulated spans of one stage."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Span durations, kept only for stages that report a per-call median.
    samples: List[float] = field(default_factory=list)
    #: How many spans of this stage ran inside a span of each parent stage.
    parents: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module.attr`` or ``module.cls.attr``."""

    module: str
    attr: str
    cls: Optional[str] = None

    def owner(self):
        module = importlib.import_module(self.module)
        return getattr(module, self.cls) if self.cls else module


@dataclass(frozen=True)
class Stage:
    """A timed stage: the layer it belongs to and the callables that enter it.

    ``moves`` names the end-to-end metric and workload a change to this stage
    should move.  ``only_under`` restricts the stage to calls made inside a
    span of one of the given stages; other calls pass through untimed (the
    incidence ``components`` method is decomposition when PMC calls it and
    part of PLL when the diagnoser does).
    """

    name: str
    layer: str
    targets: Tuple[Target, ...]
    moves: str
    only_under: Tuple[str, ...] = ()
    keep_samples: bool = False


class SpanTracer:
    """In-memory per-stage span accounting with class/module-level call wrapping."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stats: Dict[str, StageStats] = {}
        self._stack: List[list] = []  # [stage, child_seconds]
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ installing
    def install(
        self,
        stages: Sequence[Stage],
        on_result: Optional[Dict[str, Callable]] = None,
    ) -> None:
        """Wrap every target of every stage; ``on_result[stage]`` sees each
        successful call's ``(result, args)`` after its span closes."""
        on_result = on_result or {}
        for stage in stages:
            self.stats.setdefault(stage.name, StageStats())
            for target in stage.targets:
                owner = target.owner()
                if target.cls:
                    original = owner.__dict__[target.attr]
                else:
                    original = getattr(owner, target.attr)
                wrapper = self._wrap(stage, original, on_result.get(stage.name))
                setattr(owner, target.attr, wrapper)
                self._installed.append((owner, target.attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped callable (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, stage: Stage, original, on_result):
        stack = self._stack
        stats = self.stats[stage.name]
        clock = self.clock
        only_under = set(stage.only_under)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if only_under and (not stack or stack[-1][0] not in only_under):
                return original(*args, **kwargs)
            frame = [stage.name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stage.keep_samples:
                    stats.samples.append(duration)
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    stats.parents[parent[0]] = stats.parents.get(parent[0], 0) + 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper
