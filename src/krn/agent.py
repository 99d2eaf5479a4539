"""The self object: goals, anti-goals, and the sense log.

The self is an ordinary object in the net. What makes it special is
bookkeeping layered on top: conditions it wants true (goals) or false
(anti-goals), and an append-only log of every sensed input, which is
the system's only tie to reality. Thinking is triggered by callers;
there is no autonomous loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Net, NodeId, PropertyChange, Value
from .errors import MalformedCondition
from .reasoning import Fragment, fragment_state, parse_fragment
# find_matches is re-exported: bench/tracing.py wraps `agent.find_matches`.
from .reasoning import find_matches  # noqa: F401
from .sim import Snapshot, changes_over
# diff is re-exported: bench/tracing.py wraps `agent.diff` as a call site.
from .sim import diff  # noqa: F401


@dataclass
class Goal:
    id: int
    polarity: str       # "goal" | "antigoal"
    anchor: NodeId
    fragment: Fragment
    source: str


class SelfModel:
    """Attaches to a net, which appends every ingested signal to the sense
    log the two share; the net holds the log, never the model."""

    def __init__(self, net: Net):
        self.net = net
        self.self_node = net.add_object([])
        self.goals: list[Goal] = []
        self.sense_log = net.sense_log = []   # (tick, node, name, signal)
        self._next_goal = 1


def define_goal(model: SelfModel, polarity: str, anchor: NodeId,
                condition: str) -> int:
    """Store a goal or anti-goal; duplicates are allowed and kept distinct.

    The condition uses the reasoning fragment mini-language, evaluated
    against the anchor node. Goals also land on the self object as
    `goal:<id>` / `antigoal:<id>` text properties so they persist.
    """
    if polarity not in ("goal", "antigoal"):
        raise MalformedCondition(f"bad polarity {polarity!r}")
    fragment = parse_fragment(condition)
    gid = model._next_goal
    model._next_goal += 1
    goal = Goal(gid, polarity, anchor, fragment, condition.strip())
    model.goals.append(goal)
    model.net.set_property(
        model.self_node, f"{polarity}:{gid}",
        Value.text(f"{anchor} {goal.source}"),
    )
    return gid


def evaluate_goals(model: SelfModel, net: Net) -> list[tuple[int, str]]:
    """Status per goal: satisfied, violated, or undetermined.

    A goal is satisfied when its condition holds; an anti-goal is
    violated when its condition holds. Conditions are judged by
    `reasoning.fragment_state`, the evaluator behind `has`.
    """
    results = []
    for goal in model.goals:
        state, _inferred = fragment_state(net, goal.anchor, goal.fragment)
        if state is None:
            status = "undetermined"
        elif goal.polarity == "goal":
            status = "satisfied" if state else "violated"
        else:
            status = "violated" if state else "satisfied"
        results.append((goal.id, status))
    return results


def compare_with_reality(model: SelfModel, predicted: Snapshot,
                         sensed: Snapshot) -> list[PropertyChange]:
    """Discrepancies between prediction and reality, where reality spoke.

    Reality is authoritative only for properties present in the sensed
    snapshot; everything else is left uncontradicted.
    """
    return changes_over(sensed.state.keys(), predicted.state, sensed.state)


def reality_snapshot(model: SelfModel) -> Snapshot:
    """A snapshot built purely from the sense log: last signal per slot,
    at the net's current tick; the clock does not move."""
    state: dict[tuple[NodeId, str], Value] = {}
    for _tick, node, name, signal in model.sense_log:
        state[(node, name)] = Value.signal(signal)
    return Snapshot(model.net.clock, state)
