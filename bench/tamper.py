"""Tampered copies of genuine construction traces.

Each menu entry changes one step of a real trace: the first step of its
kind.  A sound verifier reports a failure or raises ``MalformedTraceError``
on every entry.  The last three entries are forgeries that the verifier
accepts or crashes on today; they stay in the menu, and their operations
count as failed until the verifier is fixed.
"""

from __future__ import annotations

from dataclasses import replace

from taxisect import constructions
from taxisect.constructions import (
    ConstructionTrace,
    DistanceClaim,
    OnLineClaim,
    StepKind,
    TraceStep,
)
from taxisect.kernel import CircleVertex, Point, TaxicabCircle

_OPPOSITE = {
    CircleVertex.NORTH: CircleVertex.SOUTH,
    CircleVertex.SOUTH: CircleVertex.NORTH,
    CircleVertex.EAST: CircleVertex.WEST,
    CircleVertex.WEST: CircleVertex.EAST,
}


class Tamper:
    def __init__(self, name: str, kind: StepKind, change) -> None:
        self.name = name
        self.kind = kind
        self._change = change

    def applies(self, trace: ConstructionTrace) -> bool:
        return any(step.kind is self.kind for step in trace.steps)

    def apply(self, trace: ConstructionTrace) -> ConstructionTrace:
        index = next(i for i, step in enumerate(trace.steps) if step.kind is self.kind)
        steps = list(trace.steps)
        steps[index] = self._change(steps[index], index, steps)
        return ConstructionTrace(tuple(steps), trace.result)


def _shift_output(step: TraceStep, index: int, steps) -> TraceStep:
    return replace(step, output=Point(step.output.x + 1, step.output.y))


def _bump_distance(step: TraceStep, index: int, steps) -> TraceStep:
    claims = tuple(
        replace(claim, value=claim.value + 1) if isinstance(claim, DistanceClaim) else claim
        for claim in step.claims
    )
    return replace(step, claims=claims)


def _grow_circle(step: TraceStep, index: int, steps) -> TraceStep:
    return replace(step, output=TaxicabCircle(step.output.center, step.output.radius + 1))


MENU = (
    Tamper("shift-crossing", StepKind.INTERSECT_LINES, _shift_output),
    Tamper("flip-pick", StepKind.INTERSECT_LINE_CIRCLE, lambda s, i, _: replace(s, pick=1 - s.pick)),
    Tamper(
        "swap-vertex",
        StepKind.TAKE_CIRCLE_VERTEX,
        lambda s, i, _: replace(s, vertex=_OPPOSITE[s.vertex]),
    ),
    Tamper("bump-distance-claim", StepKind.MARK_RESULT, _bump_distance),
    Tamper("self-reference", StepKind.DRAW_LINE, lambda s, i, _: replace(s, inputs=(s.inputs[0], i))),
    Tamper("grow-circle", StepKind.DRAW_CIRCLE, _grow_circle),
    Tamper("move-mark", StepKind.MARK_RESULT, lambda s, i, steps: replace(s, output=steps[0].output)),
    Tamper("line-as-crossing", StepKind.DRAW_LINE, lambda s, i, _: replace(s, kind=StepKind.INTERSECT_LINES)),
    # Known verifier faults (ROADMAP "sound, portable certificates"):
    # a circle placed without the compass is accepted ...
    Tamper(
        "place-circle",
        StepKind.DRAW_CIRCLE,
        lambda s, i, _: replace(s, kind=StepKind.PLACE_POINT, inputs=(), radius=None),
    ),
    # ... pick - 2 indexes the same candidate from the end and is accepted ...
    Tamper("pick-alias", StepKind.INTERSECT_LINE_CIRCLE, lambda s, i, _: replace(s, pick=s.pick - 2)),
    # ... and a point claim on a circle step trips an assert in _claim_holds.
    Tamper("claim-on-circle", StepKind.DRAW_CIRCLE, lambda s, i, _: replace(s, claims=(OnLineClaim(i - 1),))),
)

KNOWN_FAULTS = ("place-circle", "pick-alias", "claim-on-circle")


def verdict(trace: ConstructionTrace) -> str:
    """What the verifier made of a tampered trace: "rejected" or "malformed"
    when it caught the change, "accepted" or "raised <type>" when not."""
    try:
        report = constructions.verify_trace(trace)
    except constructions.MalformedTraceError:
        return "malformed"
    except Exception as exc:  # any other exception is a verifier fault to report
        return f"raised {type(exc).__name__}"
    return "accepted" if report.ok else "rejected"


def caught(outcome: str) -> bool:
    return outcome in ("rejected", "malformed")
