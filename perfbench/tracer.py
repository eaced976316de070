"""Outside-in span recording for the traced benchmark run.

``traced`` swaps selected module attributes of ``riskrl`` for recorders that
time each call and note which recorded call was running when it started. The
originals are put back when the block ends, even if it raises. Spans stay in
memory; ``self_times`` turns them into per-name self time (duration minus the
time covered by direct child spans).
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

# Span of a note on call arguments. It is a child of the caller's span, so its
# time counts in no layer's self time, only in the tracing overhead.
NOTE_SPAN = "trace.note"


@dataclass
class Tracer:
    """Spans as ``[name, start, end, parent_index]`` plus pair counts noted from call arguments."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    collision_pairs: int = 0  # candidate (ego, actor) pairs passed to detect_collision
    far_pairs: int = 0  # candidate pairs whose circumcircles are disjoint
    risk_pairs: int = 0  # other actors passed to risk_reward

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if note is not None:
            note = self.wrap(NOTE_SPAN, note)

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            if note is not None:
                note(self, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return recorder

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (call count, total self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            calls, busy = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, busy + (end - start) - children)
        return totals


def _note_collision(tracer: Tracer, args: tuple) -> None:
    """Count every actor handed to detect_collision, and those out of reach of the ego.

    These are candidate pairs: on the step where the ego collides,
    detect_collision stops at the first overlap and tests fewer of them.
    """
    ego, actors = args
    ex, ey = ego.position
    reach = ego.circumradius
    pairs = far = 0
    for other in actors:
        ox, oy = other.position
        pairs += 1
        if math.hypot(ox - ex, oy - ey) > reach + other.circumradius:
            far += 1
    tracer.collision_pairs += pairs
    tracer.far_pairs += far


def _note_risk(tracer: Tracer, args: tuple) -> None:
    tracer.risk_pairs += len(args[1])


def targets() -> list[tuple[object, str, str, Callable | None]]:
    """(module, attribute, span name, argument note) for every recorded call.

    Span names carry the module that defines the function, so a function
    looked up through another module's namespace keeps its own layer.
    """
    from riskrl import cli, reward, sim

    return [
        (sim, "project_to_route", "core.project_to_route", None),
        (sim, "step_world", "sim.step_world", None),
        (sim, "detect_collision", "sim.detect_collision", _note_collision),
        (sim, "total_reward", "reward.total_reward", None),
        (sim, "realize_traffic", "sim.realize_traffic", None),
        (reward, "risk_reward", "risk.risk_reward", _note_risk),
        (cli, "main", "cli.main", None),
        (cli, "run_episode", "sim.run_episode", None),
        (cli, "trace_rows", "cli.trace_rows", None),
        (cli, "geometric_risk", "risk.geometric_risk", None),
        (cli, "dynamic_risk", "risk.dynamic_risk", None),
        (cli, "load_scenario", "sim.load_scenario", None),
        (cli, "load_config", "core.load_config", None),
    ]


@contextmanager
def patched(module: object, attribute: str, replacement: Callable) -> Iterator[None]:
    """Set ``module.attribute`` for the duration of the block, then restore it."""
    original = getattr(module, attribute)
    setattr(module, attribute, replacement)
    try:
        yield
    finally:
        setattr(module, attribute, original)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans for every target call inside the block."""
    with ExitStack() as stack:
        for module, attribute, name, note in targets():
            recorder = tracer.wrap(name, getattr(module, attribute), note)
            stack.enter_context(patched(module, attribute, recorder))
        yield tracer
