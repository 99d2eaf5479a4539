"""Bipartite object/action net: the data model and its structural rules.

A net holds two kinds of nodes. Objects carry named property values plus
ordered lists of the actions they take part in. Actions sit between
objects: an optional subject, a required target, and an interpreted
script that makes the action executable. Objects never link directly to
objects and actions never link directly to actions; every structural
edge alternates between the two kinds, and the symmetry between an
action's endpoints and the endpoint objects' action lists is maintained
by every public operation.

Sensor input enters as two-part signals (origin address + opaque
payload) and is stored as ordinary property values with `sensed`
provenance.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import (
    BipartiteViolation,
    DuplicatePropertyName,
    InvalidName,
    UnknownNode,
    UnknownProperty,
)

if TYPE_CHECKING:
    from .script import Ast


NodeId = int

_NAME_RE = re.compile(r"[a-z][a-z0-9_-]*\Z")
# goal:/antigoal: is the reserved prefix used when goals are stored as
# properties of the self object.
_RESERVED_NAME_RE = re.compile(r"(goal|antigoal):[a-z0-9_-]+\Z")

MAX_ADDRESS_LENGTH = 1024


def valid_property_name(name: str) -> bool:
    return bool(_NAME_RE.match(name) or _RESERVED_NAME_RE.match(name))


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not valid_property_name(name):
        raise InvalidName(f"bad property name: {name!r}")


class Kind(enum.Enum):
    NUM = "num"
    TEXT = "text"
    BOOL = "bool"
    REF = "ref"
    SIGNAL = "signal"
    UNSET = "unset"


class Provenance(enum.Enum):
    ASSERTED = "asserted"
    INFERRED = "inferred"
    SENSED = "sensed"


class PropLoad(enum.Enum):
    HYDRATED = "hydrated"
    STUB = "stub"


class NodeLoad(enum.Enum):
    STUB = "stub"
    PARTIAL = "partial"
    FULL = "full"


# The members that hot code reads, bound once. On Python 3.11 reading a
# member off its class (`Kind.NUM`) is a Python-level call, since EnumType
# defines __getattr__, and costs about ten times a module-level name.
KIND_NUM, KIND_TEXT, KIND_BOOL = Kind.NUM, Kind.TEXT, Kind.BOOL
KIND_REF, KIND_SIGNAL, KIND_UNSET = Kind.REF, Kind.SIGNAL, Kind.UNSET
ASSERTED, INFERRED, SENSED = Provenance.ASSERTED, Provenance.INFERRED, Provenance.SENSED
PROP_HYDRATED, PROP_STUB = PropLoad.HYDRATED, PropLoad.STUB


@dataclass(frozen=True, slots=True)
class SensorAddress:
    """Which channel a signal arrived on, as an ordered path of segments."""

    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidName("sensor address needs at least one segment")
        if any(not isinstance(s, str) or not s for s in self.segments):
            raise InvalidName("sensor address segments must be non-empty strings")
        if len(self.render()) > MAX_ADDRESS_LENGTH:
            raise InvalidName("sensor address too long")

    @classmethod
    def of(cls, *segments: str) -> "SensorAddress":
        return cls(tuple(segments))

    def render(self) -> str:
        return "/".join(self.segments)


@dataclass(frozen=True, slots=True)
class SensorSignal:
    """Two-part sensory input: where it came from and its raw shape.

    Identity is (origin, payload). The capture tick is engine-supplied
    bookkeeping and does not participate in equality: the same shape on
    the same channel is the same signal whenever it arrived.
    """

    origin: SensorAddress
    payload: bytes
    captured_at: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Value:
    """Dynamically tagged property value.

    Six kinds cover the model: numbers, text, truth values, node
    references, sensor signals, and the explicit "present but unknown"
    marker. Cross-kind arithmetic is always an error, never a coercion.
    """

    kind: Kind
    data: object = None

    @classmethod
    def num(cls, x: float) -> "Value":
        return cls(KIND_NUM, float(x))

    @classmethod
    def text(cls, s: str) -> "Value":
        return cls(KIND_TEXT, str(s))

    @classmethod
    def truth(cls, b: bool) -> "Value":
        return cls(KIND_BOOL, bool(b))

    @classmethod
    def ref(cls, node: NodeId) -> "Value":
        return cls(KIND_REF, int(node))

    @classmethod
    def signal(cls, sig: SensorSignal) -> "Value":
        return cls(KIND_SIGNAL, sig)

    @classmethod
    def unset(cls) -> "Value":
        return cls(KIND_UNSET, None)

    @property
    def is_unset(self) -> bool:
        return self.kind is KIND_UNSET


def values_equal(a: Value, b: Value) -> bool:
    """Script-level equality: total over all kind pairs.

    Cross-kind comparison is False rather than an error. Numbers follow
    IEEE equality (NaN is unequal to itself), which can differ from the
    structural equality used by snapshots and change sets.
    """
    if a.kind is not b.kind:
        return False
    if a.kind is KIND_UNSET:
        return True
    return a.data == b.data


@dataclass(slots=True)
class PropertyRecord:
    name: str
    value: Value
    provenance: Optional[Provenance]
    load_state: PropLoad = PropLoad.HYDRATED
    # set by store hydration only; a write installs a fresh record, so
    # eviction can tell values read from the file from values written since
    from_store: bool = field(default=False, compare=False)


@dataclass(slots=True)
class ScriptRef:
    """An action's executable half: inline text, a store offset, or absent.

    Source text is normalized to carry no trailing newline so that the
    persisted form round-trips byte for byte.
    """

    text: Optional[str] = None
    ast: Optional["Ast"] = field(default=None, compare=False)
    offset: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if self.text is not None:
            self.text = self.text.rstrip("\n")

    @property
    def state(self) -> str:
        if self.text is not None:
            return "hydrated"
        if self.offset is not None:
            return "stub"
        return "none"

    @classmethod
    def none(cls) -> "ScriptRef":
        return cls()

    @classmethod
    def inline(cls, text: str, ast: "Ast") -> "ScriptRef":
        return cls(text=text, ast=ast)

    @classmethod
    def stub(cls, offset: int) -> "ScriptRef":
        return cls(offset=offset)


@dataclass
class CollapsePayload:
    """Everything removed by a collapse, kept verbatim for expansion."""

    kind: str  # "object" | "action"
    objects: dict[NodeId, "ObjectRecord"]
    actions: dict[NodeId, "ActionRecord"]
    isa: list[tuple[NodeId, NodeId]]
    # (outside action id, "subject"|"target", original inside object id);
    # only object collapses rewire outside actions.
    rewired: list[tuple[NodeId, str, NodeId]]
    # (outside object id, "subject"|"target", index, inside action id): where
    # an action collapse took a crossing action out of the outside object's
    # outgoing or incoming list, so expand can put it back in place.
    slots: list[tuple[NodeId, str, int, NodeId]] = field(default_factory=list)


def _node_load(properties: dict[str, PropertyRecord], script_stubbed: bool) -> NodeLoad:
    """FULL when nothing is left to read from the store, PARTIAL when some
    property is hydrated, STUB otherwise."""
    hydrated = [p.load_state is PROP_HYDRATED for p in properties.values()]
    if all(hydrated) and not script_stubbed:
        return NodeLoad.FULL
    return NodeLoad.PARTIAL if any(hydrated) else NodeLoad.STUB


@dataclass(slots=True)
class ObjectRecord:
    id: NodeId
    properties: dict[str, PropertyRecord] = field(default_factory=dict)
    outgoing: list[NodeId] = field(default_factory=list)
    incoming: list[NodeId] = field(default_factory=list)
    provenance: Provenance = Provenance.ASSERTED
    collapse_payload: Optional[CollapsePayload] = field(default=None, compare=False)

    @property
    def load_state(self) -> NodeLoad:
        return _node_load(self.properties, False)


@dataclass(slots=True)
class ActionRecord:
    id: NodeId
    subject: Optional[NodeId]
    target: NodeId
    script: ScriptRef = field(default_factory=ScriptRef.none)
    properties: dict[str, PropertyRecord] = field(default_factory=dict)
    provenance: Provenance = Provenance.ASSERTED
    collapse_payload: Optional[CollapsePayload] = field(default=None, compare=False)

    @property
    def load_state(self) -> NodeLoad:
        return _node_load(self.properties, self.script.state == "stub")


@dataclass(frozen=True, slots=True)
class PropertyChange:
    """One effective write or erase: before is None on appear, after on erase.

    The interpreter also keeps the record the change replaced (None if
    the property was absent), stub or not, so the change list doubles as
    an exact undo log; snapshot diffs leave it None.
    """

    node: NodeId
    name: str
    before: Optional[Value]
    after: Optional[Value]
    replaced: Optional[PropertyRecord] = field(default=None, compare=False)


ChangeSet = list[PropertyChange]


@dataclass(frozen=True)
class Violation:
    kind: str  # bipartite-violation | symmetry-break | dangling-ref | bad-provenance
    nodes: tuple[NodeId, ...]
    detail: str


@dataclass
class ViolationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __len__(self) -> int:
        return len(self.violations)


class Net:
    """The bipartite store of objects and actions.

    A net is a single-owner value: one thread mutates it at a time.
    Ids are allocated from a monotonically increasing counter and never
    reused after erasure.
    """

    # ids collapsed and not expanded since; a net replaces the shared empty
    # set with its own on its first collapse, and never mutates it in place
    collapsed: frozenset[NodeId] = frozenset()

    def __init__(self):
        self.objects: dict[NodeId, ObjectRecord] = {}
        self.actions: dict[NodeId, ActionRecord] = {}
        self.next_id: NodeId = 1
        self.isa_edges: list[tuple[NodeId, NodeId]] = []
        self.clock: int = 0
        self.agent = None       # set by SelfModel when attached
        self.timeline = None    # lazily created by the sim module
        self._executing = False

    # -- id and tick supply ------------------------------------------------

    def allocate_id(self) -> NodeId:
        nid = self.next_id
        self.next_id += 1
        return nid

    def bump_id(self, nid: NodeId) -> None:
        """Keep the allocator ahead of externally supplied ids."""
        if nid >= self.next_id:
            self.next_id = nid + 1

    def next_tick(self) -> int:
        self.clock += 1
        return self.clock

    def touch(self, nid: NodeId) -> None:
        """Tell the timeline, if any, that this node or one of its property
        records was added, replaced or removed."""
        if self.timeline is not None:
            self.timeline.touched.add(nid)

    # -- lookup ------------------------------------------------------------

    def is_object(self, nid: NodeId) -> bool:
        return nid in self.objects

    def is_action(self, nid: NodeId) -> bool:
        return nid in self.actions

    def node(self, nid: NodeId):
        rec = self.objects.get(nid) or self.actions.get(nid)
        if rec is None:
            raise UnknownNode(f"no node {nid}")
        return rec

    def node_ids(self) -> list[NodeId]:
        return sorted(self.objects.keys() | self.actions.keys())

    # -- mutation ----------------------------------------------------------

    def add_object(
        self,
        properties: Iterable[tuple[str, Value]] = (),
        *,
        provenance: Provenance = Provenance.ASSERTED,
    ) -> NodeId:
        props = self._build_properties(properties, provenance)
        nid = self.allocate_id()
        self.objects[nid] = ObjectRecord(id=nid, properties=props, provenance=provenance)
        self.touch(nid)
        return nid

    def add_action(
        self,
        subject: Optional[NodeId],
        target: NodeId,
        script: Optional[str] = None,
        properties: Iterable[tuple[str, Value]] = (),
        *,
        provenance: Provenance = Provenance.ASSERTED,
    ) -> NodeId:
        self._require_object(target, "target")
        if subject is not None:
            self._require_object(subject, "subject")
        if script is not None:
            from .script import parse  # deferred: script depends on core

            ref = ScriptRef.inline(script, parse(script))
        else:
            ref = ScriptRef.none()
        props = self._build_properties(properties, provenance)
        nid = self.allocate_id()
        self.actions[nid] = ActionRecord(
            id=nid, subject=subject, target=target, script=ref,
            properties=props, provenance=provenance,
        )
        if subject is not None:
            self.objects[subject].outgoing.append(nid)
        self.objects[target].incoming.append(nid)
        self.touch(nid)
        return nid

    def set_property(
        self,
        nid: NodeId,
        name: str,
        value: Value,
        provenance: Provenance = Provenance.ASSERTED,
    ) -> None:
        rec = self.node(nid)
        _check_name(name)
        if provenance is SENSED and value.kind is not KIND_SIGNAL:
            raise InvalidName("sensed properties must hold signal values")
        rec.properties[name] = PropertyRecord(name, value, provenance)
        self.touch(nid)

    def get_property(self, nid: NodeId, name: str) -> Value:
        rec = self.node(nid)
        prop = rec.properties.get(name)
        if prop is None or prop.load_state is PROP_STUB:
            raise UnknownProperty(f"node {nid} has no hydrated property {name!r}")
        return prop.value

    def restore_property(self, nid: NodeId, name: str,
                         record: Optional[PropertyRecord]) -> None:
        """Put back a property record as it was, or drop the property when
        there was none: the inverse of one write or erase."""
        properties = self.node(nid).properties
        if record is None:
            properties.pop(name, None)
        else:
            properties[name] = record
        self.touch(nid)

    def erase_property(self, nid: NodeId, name: str) -> None:
        rec = self.node(nid)
        if name not in rec.properties:
            raise UnknownProperty(f"node {nid} has no property {name!r}")
        del rec.properties[name]
        self.touch(nid)

    def erase_node(self, nid: NodeId) -> None:
        if nid in self.objects:
            doomed = set(self.objects[nid].outgoing) | set(self.objects[nid].incoming)
            for aid in sorted(doomed):
                self._erase_action(aid)
            del self.objects[nid]
            self.touch(nid)
            self._drop_isa(nid)
        elif nid in self.actions:
            self._erase_action(nid)
        else:
            raise UnknownNode(f"no node {nid}")

    def ingest_signal(self, nid: NodeId, name: str, signal: SensorSignal) -> None:
        """Store a sensor signal as a sensed property, stamping arrival time."""
        if nid not in self.objects:
            raise UnknownNode(f"no object {nid}")
        stamped = replace(signal, captured_at=self.next_tick())
        self.set_property(nid, name, Value.signal(stamped), SENSED)
        if self.agent is not None:
            self.agent.record_sense(stamped.captured_at, nid, name, stamped)

    def add_isa(self, instance: NodeId, concept: NodeId) -> None:
        self._require_object(instance, "instance")
        self._require_object(concept, "concept")
        edge = (instance, concept)
        if edge not in self.isa_edges:
            self.isa_edges.append(edge)

    # -- validation ----------------------------------------------------------

    def validate_bipartite(self) -> ViolationReport:
        """Check bipartiteness, referential symmetry, and reference liveness."""
        report = ViolationReport()
        add = report.violations.append
        shared = self.objects.keys() & self.actions.keys()
        for nid in sorted(shared):
            add(Violation("bipartite-violation", (nid,), "id is both object and action"))
        for aid in sorted(self.actions):
            act = self.actions[aid]
            for role, endpoint in (("subject", act.subject), ("target", act.target)):
                if endpoint is None:
                    continue
                if endpoint in self.actions:
                    add(Violation("bipartite-violation", (aid, endpoint),
                                  f"action {aid} {role} is an action"))
                elif endpoint not in self.objects:
                    add(Violation("dangling-ref", (aid, endpoint),
                                  f"action {aid} {role} missing"))
            if act.subject is not None and act.subject in self.objects:
                if self.objects[act.subject].outgoing.count(aid) != 1:
                    add(Violation("symmetry-break", (act.subject, aid),
                                  f"subject {act.subject} outgoing does not list {aid} once"))
            if act.target in self.objects:
                if self.objects[act.target].incoming.count(aid) != 1:
                    add(Violation("symmetry-break", (act.target, aid),
                                  f"target {act.target} incoming does not list {aid} once"))
        for oid in sorted(self.objects):
            obj = self.objects[oid]
            for label, lst, role in (("outgoing", obj.outgoing, "subject"),
                                     ("incoming", obj.incoming, "target")):
                for aid in lst:
                    if aid in self.objects:
                        add(Violation("bipartite-violation", (oid, aid),
                                      f"object {oid} {label} lists an object"))
                        continue
                    act = self.actions.get(aid)
                    if act is None:
                        add(Violation("dangling-ref", (oid, aid),
                                      f"object {oid} {label} lists missing {aid}"))
                    elif (act.subject if role == "subject" else act.target) != oid:
                        add(Violation("symmetry-break", (oid, aid),
                                      f"action {aid} is not the {role} of {oid}"))
            for prop in obj.properties.values():
                if prop.provenance is SENSED and prop.value.kind is not KIND_SIGNAL:
                    add(Violation("bad-provenance", (oid,),
                                  f"sensed property {prop.name!r} is not a signal"))
        for inst, concept in self.isa_edges:
            for end in (inst, concept):
                if end not in self.objects:
                    add(Violation("dangling-ref", (inst, concept),
                                  f"isa edge endpoint {end} missing"))
        return report

    # -- internals -----------------------------------------------------------

    def _build_properties(
        self, pairs: Iterable[tuple[str, Value]], provenance: Provenance
    ) -> dict[str, PropertyRecord]:
        props: dict[str, PropertyRecord] = {}
        for name, value in pairs:
            _check_name(name)
            if name in props:
                raise DuplicatePropertyName(f"duplicate property {name!r}")
            props[name] = PropertyRecord(name, value, provenance)
        return props

    def _require_object(self, nid: NodeId, role: str) -> None:
        if nid in self.actions:
            raise BipartiteViolation(f"{role} {nid} is an action; actions link only through objects")
        if nid not in self.objects:
            raise UnknownNode(f"{role} {nid} is not a live object")

    def _erase_action(self, aid: NodeId) -> None:
        act = self.actions.get(aid)
        if act is None:
            raise UnknownNode(f"no action {aid}")
        if act.subject is not None and act.subject in self.objects:
            out = self.objects[act.subject].outgoing
            if aid in out:
                out.remove(aid)
        if act.target in self.objects:
            inc = self.objects[act.target].incoming
            if aid in inc:
                inc.remove(aid)
        del self.actions[aid]
        self.touch(aid)

    def _drop_isa(self, nid: NodeId) -> None:
        self.isa_edges = [(i, c) for i, c in self.isa_edges if i != nid and c != nid]


def create_net() -> Net:
    return Net()


def _props_equal(a: dict[str, PropertyRecord], b: dict[str, PropertyRecord]) -> bool:
    if a.keys() != b.keys():
        return False
    for name in a:
        pa, pb = a[name], b[name]
        if (pa.value, pa.provenance, pa.load_state) != (pb.value, pb.provenance, pb.load_state):
            return False
        if pa.value.kind is KIND_SIGNAL:
            # signal equality ignores ticks; structural net equality must not
            if pa.value.data.captured_at != pb.value.data.captured_at:
                return False
    return True


def nets_equal(a: Net, b: Net) -> bool:
    """Strict structural equality: records, wiring, provenance, scripts, isa.

    Ignores run-state (clock, timeline, agent, collapse payloads) and the
    id allocator position.
    """
    if a.objects.keys() != b.objects.keys() or a.actions.keys() != b.actions.keys():
        return False
    for oid, oa in a.objects.items():
        ob = b.objects[oid]
        if (oa.outgoing, oa.incoming, oa.load_state, oa.provenance) != (
                ob.outgoing, ob.incoming, ob.load_state, ob.provenance):
            return False
        if not _props_equal(oa.properties, ob.properties):
            return False
    for aid, xa in a.actions.items():
        xb = b.actions[aid]
        if (xa.subject, xa.target, xa.load_state, xa.provenance) != (
                xb.subject, xb.target, xb.load_state, xb.provenance):
            return False
        if xa.script.text != xb.script.text:
            return False
        if not _props_equal(xa.properties, xb.properties):
            return False
    return sorted(a.isa_edges) == sorted(b.isa_edges)
