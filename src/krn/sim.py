"""Inference by modelling: run actions, snapshot states, detect change.

Change detection is deliberately memoryful: it is a pure function of
two snapshots, so without a remembered earlier state there is nothing
to compare against. Snapshots capture only hydrated values and never
trigger hydration, preserving the store's laziness guarantees.

A timeline stores its snapshots as deltas, after the "fat node"
persistent structure of Driscoll, Sarnak, Sleator and Tarjan ("Making
data structures persistent", JCSS 1989): each (node, property) key keeps
the versions at which its value changed and its value at each, and a
snapshot's state is a read-only view of one version. The net reports
every node whose records it adds, replaces or drops (`Net.touch`). The
first snapshot of a timeline scans the net once, O(net), and keeps the
per-node {name: value} dicts it builds as version 0, the base; it makes
no history for any key. A key gets a history only when its value first
changes, and a read before that change falls back to the base. Each
later snapshot re-reads only the nodes touched since, O(touched nodes);
`diff` of two snapshots of one timeline visits only the keys changed
between them, O(changed keys); and the timeline's memory is the base
plus the number of changes, not net size times snapshots.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass

from .core import PROP_HYDRATED, ChangeSet, Net, NodeId, PropertyChange, Value
from .errors import BatchError, FormatError, KrnError, UnknownNode, UnknownScript
from .lexicon import Lexicon
from .script import ExecContext, execute

# The two change classes named by the model; extend via a verb table file.
DEFAULT_VERBS = {
    "position": "moving",
    "colour": "changing-colour",
}

Key = tuple[NodeId, str]


@dataclass(frozen=True)
class Snapshot:
    """Property state at one tick. Treated as immutable once captured."""

    tick: int
    state: Mapping[Key, Value]


class TimelineState(Mapping):
    """The read-only state of one timeline version.

    It holds the timeline's containers, never the timeline, so retained
    snapshots make no reference cycle. A lookup bisects the key's history;
    a key with no history, or read at a version before its first change,
    has its version-0 value from `base`. `len` is kept, not counted.
    """

    __slots__ = ("history", "base", "changed", "version", "_len")

    def __init__(self, history: dict, base: dict, changed: list, version: int, size: int):
        self.history = history      # key -> (versions, values); None = absent
        self.base = base            # node -> {name: value} at version 0
        self.changed = changed      # version -> keys recorded at it
        self.version = version
        self._len = size

    def get(self, key, default=None):
        hist = self.history.get(key)
        if hist is not None:
            versions, values = hist
            i = bisect_right(versions, self.version)
            if i:
                value = values[i - 1]
                return default if value is None else value
        props = self.base.get(key[0])
        return default if props is None else props.get(key[1], default)

    def __getitem__(self, key) -> Value:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self):
        base = self.base
        for nid, props in base.items():
            for name in props:
                if (nid, name) in self:
                    yield nid, name
        for key in self.history:
            if key[1] not in base.get(key[0], ()) and key in self:
                yield key

    def __len__(self) -> int:
        return self._len

    def changed_between(self, other: "TimelineState") -> set[Key]:
        """Keys recorded at any version after the older of the two, up to the newer."""
        lo, hi = sorted((self.version, other.version))
        keys: set[Key] = set()
        for version in range(lo + 1, hi + 1):
            keys.update(self.changed[version])
        return keys


def _hydrated(rec) -> dict[str, Value]:
    return {name: prop.value for name, prop in rec.properties.items()
            if prop.load_state is PROP_HYDRATED}


class Timeline:
    """Snapshots of one net: a version-0 base plus per-key version histories.

    `head` maps each node to its current {name: value} dict and `base` to
    its dict at version 0; the two share dicts. `record` gives a touched
    node a new dict in `head` and never changes a dict in place, so every
    dict in `base` stays as version 0 saw it.
    """

    def __init__(self):
        self.snapshots: list[Snapshot] = []
        self.touched: set[NodeId] = set()     # filled by Net.touch
        self.head: dict[NodeId, dict[str, Value]] = {}
        self.base: dict[NodeId, dict[str, Value]] = {}
        self._by_tick: dict[int, Snapshot] = {}
        self._history: dict[Key, tuple[list[int], list[Value | None]]] = {}
        self._changed: list[list[Key]] = []
        self._size = 0

    def append(self, snap: Snapshot) -> None:
        if self.snapshots and snap.tick <= self.snapshots[-1].tick:
            raise ValueError("snapshot ticks must strictly increase")
        self.snapshots.append(snap)
        self._by_tick[snap.tick] = snap

    def latest(self) -> Snapshot | None:
        return self.snapshots[-1] if self.snapshots else None

    def by_tick(self, tick: int) -> Snapshot:
        snap = self._by_tick.get(tick)
        if snap is None:
            raise KrnError(f"no snapshot at tick {tick}")
        return snap

    def __len__(self) -> int:
        return len(self.snapshots)

    def record(self, net: Net) -> TimelineState:
        """Fold the nodes touched since the last version into a new one.

        The first version scans the whole net into `base` and records no
        key. After it, a key is recorded when its value object changes
        identity, so a re-ingested equal signal with a new capture tick
        still replaces the remembered one; a key's first record starts
        its history.
        """
        version = len(self._changed)
        touched, self.touched = self.touched, set()
        head, history = self.head, self._history
        changed: list[Key] = []
        if not version:     # the base: per-node dicts, and no key recorded
            for records in (net.objects, net.actions):
                for nid, rec in records.items():
                    new = _hydrated(rec)
                    if new:
                        head[nid] = new
                        self._size += len(new)
            self.base = dict(head)
            touched = ()
        for nid in touched:
            rec = net.objects.get(nid) or net.actions.get(nid)
            new = {} if rec is None else _hydrated(rec)
            old = head.pop(nid, {})
            updates = [(name, value) for name, value in new.items()
                       if old.get(name) is not value]
            updates += [(name, None) for name in old if name not in new]
            for name, value in updates:
                key = (nid, name)
                hist = history.get(key)
                if hist is None:
                    history[key] = ([version], [value])
                else:
                    hist[0].append(version)
                    hist[1].append(value)
                changed.append(key)
            if new:
                head[nid] = new
            self._size += len(new) - len(old)
        self._changed.append(changed)
        return TimelineState(history, self.base, self._changed, version, self._size)


def timeline_of(net: Net) -> Timeline:
    if net.timeline is None:
        net.timeline = Timeline()
    return net.timeline


def snapshot(net: Net, timeline: Timeline | None = None) -> Snapshot:
    """Capture all hydrated property values at a fresh tick.

    The snapshot is recorded in the net's own timeline, the only one the
    net reports its changes to; any other timeline raises ValueError.
    """
    tl = timeline_of(net)
    if timeline is not None and timeline is not tl:
        raise ValueError("a snapshot can only be recorded in its net's own timeline")
    snap = Snapshot(net.next_tick(), tl.record(net))
    tl.append(snap)
    return snap


def run_action(net: Net, action_id: NodeId, store=None) -> ChangeSet:
    """Execute one action's script with its own endpoint bindings.

    A stubbed script is hydrated through the given store handle first.
    Snapshots are taken before and after and appended to the net's
    timeline.
    """
    act = net.actions.get(action_id)
    if act is None:
        raise UnknownNode(f"no action {action_id}")
    if act.script.state == "stub":
        if store is None:
            raise UnknownScript(f"action {action_id} script is stubbed and no store given")
        store.hydrate_script(action_id, net)
    if act.script.state != "hydrated":
        raise UnknownScript(f"action {action_id} has no script")
    snapshot(net)
    changes = execute(act.script.ast, ExecContext(
        net=net, target=act.target, subject=act.subject, self_node=action_id,
    ))
    snapshot(net)
    return changes


def run_pending(net: Net, order: list[NodeId], store=None) -> list[ChangeSet]:
    """Execute actions in the given order, snapshotting around the batch.

    There is no rollback: on failure the completed change sets ride on
    the raised BatchError and earlier effects remain applied.
    """
    snapshot(net)
    results: list[ChangeSet] = []
    for i, aid in enumerate(order):
        try:
            results.append(run_action(net, aid, store))
        except KrnError as exc:
            raise BatchError(i, exc, results) from exc
    snapshot(net)
    return results


def diff(a: Snapshot, b: Snapshot) -> list[PropertyChange]:
    """Changes from a to b, including appearances and disappearances.

    Two snapshots of one timeline compare only the keys recorded between
    them; any other pair compares the union of their keys.
    """
    sa, sb = a.state, b.state
    if (isinstance(sa, TimelineState) and isinstance(sb, TimelineState)
            and sa.history is sb.history):
        keys = sa.changed_between(sb)
    else:
        keys = sa.keys() | sb.keys()
    changes: list[PropertyChange] = []
    for key in sorted(keys):
        before = sa.get(key)
        after = sb.get(key)
        if before != after:
            changes.append(PropertyChange(key[0], key[1], before, after))
    return changes


def load_verb_table(path: str) -> dict[str, str]:
    """Read `VERB <property-name> <verb-key>` lines on top of the defaults."""
    table = dict(DEFAULT_VERBS)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] != "VERB":
                raise FormatError(f"bad verb line {line!r}", lineno)
            table[parts[1]] = parts[2]
    return table


def verb_table_from_env() -> dict[str, str]:
    path = os.environ.get("KRN_VERB_TABLE")
    if path:
        return load_verb_table(path)
    return dict(DEFAULT_VERBS)


def classify_change(
    change: PropertyChange,
    lexicon: Lexicon | None = None,
    lang: str | None = None,
    table: dict[str, str] | None = None,
) -> str | None:
    """Name the change class for a property, if the verb table knows one.

    The verb key itself is the English rendering. When a lexicon and a
    language are given and exactly one node carries the key as its
    English label, that node's label in the requested language is used
    instead; with no labels the key is returned unchanged.
    """
    if table is None:
        table = DEFAULT_VERBS
    key = table.get(change.name)
    if key is None:
        return None
    if lexicon is not None and lang is not None:
        nodes = lexicon.lookup("en", key)
        if len(nodes) == 1:
            from .errors import NoLabel

            try:
                text, _ = lexicon.label_of(next(iter(nodes)), lang)
                return text
            except NoLabel:
                pass
    return key
