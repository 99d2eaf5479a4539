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
every property record it is about to add, replace or drop into one
journal of (node, name) -> first replaced record (`Net.note`,
`Net.touch`), which the timeline starts at its first snapshot. That
first snapshot, version 0, reads and copies nothing, O(1): its state
reads the net's live records. Each later snapshot folds the keys
written since the one before against their live records and empties
the journal, O(keys written); when a key's value first changes, its
history starts with its version-0 value, the journal's first
pre-image. `diff` of two snapshots of one timeline visits only the
keys changed between them, O(changed keys); and the timeline's memory
is the keys changed plus the number of changes, not net size times
snapshots.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass

from .core import PROP_HYDRATED, ChangeSet, Net, NodeId, PropertyChange, PropertyRecord, Value
from .errors import BatchError, FormatError, KrnError, NoLabel, UnknownNode, UnknownScript
from .lexicon import Lexicon
from .script import ExecContext, execute, parse

# The two change classes named by the model; extend via a verb table file.
DEFAULT_VERBS = {
    "position": "moving",
    "colour": "changing-colour",
}

Key = tuple[NodeId, str]


@dataclass(frozen=True, slots=True)
class Snapshot:
    """Property state at one tick. Treated as immutable once captured."""

    tick: int
    state: Mapping[Key, Value]


def _value(prop: PropertyRecord | None) -> Value | None:
    """What a snapshot sees of a property record: its value if hydrated."""
    return prop.value if prop is not None and prop.load_state is PROP_HYDRATED else None


def _live(records: tuple[dict, dict], key: Key) -> Value | None:
    """What a snapshot sees of a key in the net's (objects, actions) now."""
    rec = records[0].get(key[0]) or records[1].get(key[0])
    return None if rec is None else _value(rec.properties.get(key[1]))


class TimelineState(Mapping):
    """The read-only state of one timeline version.

    It holds the timeline's containers and the net's record dicts, never
    the timeline or the net, so a retained snapshot makes no reference
    cycle and keeps no net alive. A lookup bisects the key's history,
    which starts at version 0. A key with no history has had one value
    object at every version: the journal's first pre-image while a write
    waits for the next snapshot, else the live record's. `len` is the
    version-0 count, counted once per timeline on first use, plus the
    recorded appearances less the disappearances up to this version.
    """

    __slots__ = ("history", "changed", "journal", "records", "version", "_delta", "_size0")

    def __init__(self, history: dict, changed: list, journal: dict,
                 records: tuple, version: int, delta: int, size0: list):
        self.history = history      # key -> (versions, values); None = absent
        self.changed = changed      # version -> keys recorded at it
        self.journal = journal      # the net's journal: writes not yet folded
        self.records = records      # the net's live (objects, actions) dicts
        self.version = version
        self._delta = delta
        self._size0 = size0         # [count at version 0], shared, None until asked

    def get(self, key, default=None):
        hist = self.history.get(key)
        if hist is not None:
            versions, values = hist
            value = values[bisect_right(versions, self.version) - 1]
        elif key in self.journal:
            value = _value(self.journal[key])
        else:
            value = _live(self.records, key)
        return default if value is None else value

    def __getitem__(self, key) -> Value:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self):
        written = self.history.keys() | self.journal.keys()
        for records in self.records:
            for nid, rec in records.items():
                for name, prop in rec.properties.items():
                    if prop.load_state is PROP_HYDRATED and (nid, name) not in written:
                        yield nid, name
        for key in written:
            if key in self:
                yield key

    def __len__(self) -> int:
        size0 = self._size0
        if size0[0] is None:
            at0 = TimelineState(self.history, self.changed, self.journal, self.records,
                                0, 0, size0)
            size0[0] = sum(1 for _ in at0)
        return size0[0] + self._delta

    def changed_between(self, other: "TimelineState") -> set[Key]:
        """Keys recorded at any version after the older of the two, up to the newer."""
        lo, hi = sorted((self.version, other.version))
        keys: set[Key] = set()
        for version in range(lo + 1, hi + 1):
            keys.update(self.changed[version])
        return keys


class Timeline:
    """Snapshots of one net: per-key version histories over a lazy version 0.

    Version 0 copies nothing: its state reads the net's live records,
    and a later version that folds a key's first change starts the key's
    history with its first pre-image in the net's journal.
    """

    def __init__(self):
        self.snapshots: list[Snapshot] = []
        self._by_tick: dict[int, Snapshot] = {}
        self._history: dict[Key, tuple[list[int], list[Value | None]]] = {}
        self._changed: list[list[Key]] = []
        self._records: tuple[dict, dict] | None = None   # set at version 0
        self._journal: dict | None = None
        self._delta = 0
        self._size0: list[int | None] = [None]

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
        """Fold the net's journal into a new version, and empty it.

        The first version reads nothing: it starts the net's journal and
        records no key. After it, each key written since the last version
        is recorded when its live value is not the same object as its
        first pre-image, so a re-ingested equal signal with a new capture
        tick still replaces the remembered one. A key's first record
        starts its history at version 0 with that pre-image, as a key with
        no history kept one value object at every fold. O(keys written).
        """
        version = len(self._changed)
        changed: list[Key] = []
        if not version:
            self._records = (net.objects, net.actions)
            self._journal = net.journal = {}
        else:
            history = self._history
            for key, replaced in self._journal.items():
                before = _value(replaced)
                value = _live(self._records, key)
                if value is before:
                    continue
                hist = history.get(key)
                if hist is None:
                    history[key] = ([0, version], [before, value])
                else:
                    hist[0].append(version)
                    hist[1].append(value)
                changed.append(key)
                self._delta += (value is not None) - (before is not None)
            self._journal.clear()
        self._changed.append(changed)
        return TimelineState(self._history, self._changed, self._journal, self._records,
                             version, self._delta, self._size0)


def timeline_of(net: Net) -> Timeline:
    if net.timeline is None:
        net.timeline = Timeline()
    return net.timeline


def snapshot(net: Net) -> Snapshot:
    """Capture all hydrated property values at a fresh tick.

    The snapshot is recorded in the net's own timeline, the only one the
    net reports its changes to.
    """
    tl = timeline_of(net)
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
    ast = act.script.ast or parse(act.script.text)   # a ref made from text alone
    snapshot(net)
    changes = execute(ast, ExecContext(
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
    return changes_over(keys, sa, sb)


def changes_over(keys, before: Mapping, after: Mapping) -> list[PropertyChange]:
    """A change for each (node, name) key whose value differs between two
    snapshot states, in key order; an absent key reads as None."""
    return [PropertyChange(key[0], key[1], old, new) for key in sorted(keys)
            if (old := before.get(key)) != (new := after.get(key))]


def load_verb_table(path: str) -> dict[str, str]:
    """Read `VERB <property-name> <verb-key>` lines on top of the defaults."""
    table = dict(DEFAULT_VERBS)
    with open(path, "rb") as fh:   # lines end as in text mode: \n, \r\n or \r
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise FormatError("undecodable line", lineno) from None
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
            try:
                text, _ = lexicon.label_of(next(iter(nodes)), lang)
                return text
            except NoLabel:
                pass
    return key
