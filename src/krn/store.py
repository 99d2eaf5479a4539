"""Durable `.krn` files with an offset index for partial loading.

The format is line oriented so fixtures stay inspectable:

    KRN 1
    OBJ <id> [inferred]
    PROP <owner-id> <name> <kind> <encoded-value> [<provenance>]
    SIG <owner-id> <name> <origin-path> <hex-payload|-> <tick> [<provenance>]
    ACT <id> <subject-id|-> <target-id> [inferred]
    SCRIPT <action-id>
    <<<
    ...script text, verbatim...
    >>>
    ISA <instance-id> <concept-id>
    LABEL <node-id> <lang-tag> <escaped-text>

Kinds are num|text|bool|ref|unset (signal values are written as SIG
records; PROP lines with kind signal are accepted on read). Text is
double quoted with \\n, \\t, \\r, \\\\ and \\" escapes; origin paths are
percent-encoded segments joined by "/". The trailing provenance token
is optional on read and defaults to asserted (sensed for SIG).

Records may appear in any order; one sequential scan on open builds a
byte-offset index and resolves forward references. Nothing beyond the
index is held in memory until a node is stubbed in and its properties
or script are hydrated one by one. A save is byte-deterministic:
records sorted by id, properties by name. Collapse payloads are not
persisted; a saved complex node keeps its shape but loses its stored
subnet.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from urllib.parse import quote, unquote

from .core import (
    ActionRecord,
    Kind,
    Net,
    NodeId,
    NodeLoad,
    ObjectRecord,
    PropertyRecord,
    PropLoad,
    Provenance,
    ScriptRef,
    SensorAddress,
    SensorSignal,
    Value,
)
from .errors import (
    BipartiteViolation,
    EvictionBlocked,
    FormatError,
    UnknownNode,
    UnknownProperty,
    UnknownScript,
)
from .lexicon import Lexicon
from .script import parse as parse_script

HEADER = "KRN 1"

_TEXT_ESC = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_TEXT_UNESC = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def encode_text(s: str) -> str:
    return '"' + "".join(_TEXT_ESC.get(c, c) for c in s) + '"'


def decode_text(tok: str, line: int) -> str:
    if len(tok) < 2 or not tok.startswith('"') or not tok.endswith('"'):
        raise FormatError(f"bad text token {tok!r}", line)
    out = []
    i = 1
    end = len(tok) - 1
    while i < end:
        c = tok[i]
        if c == "\\":
            if i + 1 >= end or tok[i + 1] not in _TEXT_UNESC:
                raise FormatError(f"bad escape in {tok!r}", line)
            out.append(_TEXT_UNESC[tok[i + 1]])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _split_record(line: str, lineno: int) -> list[str]:
    """Split a record line on spaces, keeping quoted text as one token."""
    tokens: list[str] = []
    i, n = 0, len(line)
    while i < n:
        if line[i] == " ":
            i += 1
            continue
        if line[i] == '"':
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == '"':
                    break
                j += 1
            if j >= n:
                raise FormatError("unterminated quote", lineno)
            tokens.append(line[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and line[j] != " ":
                j += 1
            tokens.append(line[i:j])
            i = j
    return tokens


def _encode_origin(origin: SensorAddress) -> str:
    return "/".join(quote(seg, safe="") for seg in origin.segments)

def _decode_origin(tok: str, line: int) -> SensorAddress:
    parts = tok.split("/")
    if not parts or any(not p for p in parts):
        raise FormatError(f"bad origin path {tok!r}", line)
    return SensorAddress(tuple(unquote(p) for p in parts))


def _encode_value(v: Value) -> tuple[str, str]:
    if v.kind is Kind.NUM:
        return "num", repr(v.data)
    if v.kind is Kind.TEXT:
        return "text", encode_text(v.data)
    if v.kind is Kind.BOOL:
        return "bool", "true" if v.data else "false"
    if v.kind is Kind.REF:
        return "ref", str(v.data)
    if v.kind is Kind.UNSET:
        return "unset", "-"
    raise ValueError("signal values are written as SIG records")


def _decode_value(kind: str, tok: str, line: int) -> Value:
    if kind == "num":
        try:
            return Value.num(float(tok))
        except ValueError:
            raise FormatError(f"bad number {tok!r}", line) from None
    if kind == "text":
        return Value.text(decode_text(tok, line))
    if kind == "bool":
        if tok not in ("true", "false"):
            raise FormatError(f"bad bool {tok!r}", line)
        return Value.truth(tok == "true")
    if kind == "ref":
        return Value.ref(_int(tok, line))
    if kind == "unset":
        return Value.unset()
    raise FormatError(f"unknown value kind {kind!r}", line)


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"bad integer {tok!r}", line) from None


def _provenance(tok: str | None, default: Provenance, line: int) -> Provenance:
    if tok is None:
        return default
    for p in Provenance:
        if p.value == tok:
            return p
    raise FormatError(f"bad provenance {tok!r}", line)


# ------------------------------------------------------------------ save

def _prop_line(owner: NodeId, prop: PropertyRecord) -> str:
    prov = (prop.provenance or Provenance.ASSERTED).value
    if prop.value.kind is Kind.SIGNAL:
        sig: SensorSignal = prop.value.data
        payload = sig.payload.hex() if sig.payload else "-"
        return (f"SIG {owner} {prop.name} {_encode_origin(sig.origin)} "
                f"{payload} {sig.captured_at} {prov}")
    kind, enc = _encode_value(prop.value)
    return f"PROP {owner} {prop.name} {kind} {enc} {prov}"


def save(net: Net, lexicon: Lexicon | None, path: str) -> None:
    """Serialize the whole net (plus labels) deterministically."""
    lines = [HEADER]
    for oid in sorted(net.objects):
        obj = net.objects[oid]
        marker = " inferred" if obj.provenance is Provenance.INFERRED else ""
        lines.append(f"OBJ {oid}{marker}")
        for name in sorted(obj.properties):
            lines.append(_prop_line(oid, obj.properties[name]))
    for aid in sorted(net.actions):
        act = net.actions[aid]
        subj = "-" if act.subject is None else str(act.subject)
        marker = " inferred" if act.provenance is Provenance.INFERRED else ""
        lines.append(f"ACT {aid} {subj} {act.target}{marker}")
        for name in sorted(act.properties):
            lines.append(_prop_line(aid, act.properties[name]))
        if act.script.text is not None:
            lines.append(f"SCRIPT {aid}")
            lines.append("<<<")
            if act.script.text:
                lines.append(act.script.text)
            lines.append(">>>")
    for inst, concept in sorted(net.isa_edges):
        lines.append(f"ISA {inst} {concept}")
    if lexicon is not None:
        for node, lang, text in lexicon.items():
            lines.append(f"LABEL {node} {lang} {encode_text(text)}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with io.open(path, "wb") as fh:
        fh.write(data)


# ------------------------------------------------------------------ open

@dataclass
class HydrationStats:
    objects_hydrated: int = 0
    properties_hydrated: int = 0
    scripts_hydrated: int = 0
    bytes_read: int = 0


@dataclass
class IndexEntry:
    kind: str                      # "obj" | "act"
    offset: int
    inferred: bool = False
    prop_offsets: dict[str, int] = field(default_factory=dict)
    script_offset: int | None = None


class StoreHandle:
    """An open `.krn` file plus its offset index and hydration counters."""

    def __init__(self, path: str):
        self.path = path
        self.index: dict[NodeId, IndexEntry] = {}
        self.isa: list[tuple[NodeId, NodeId]] = []
        self.labels: list[tuple[NodeId, str, str]] = []
        self.stats = HydrationStats()
        self._hydrated_props: set[tuple[NodeId, str]] = set()
        self._hydrated_scripts: set[NodeId] = set()
        self._loaded_nodes: set[NodeId] = set()
        self._fh = io.open(path, "rb")
        try:
            self._scan()
        except Exception:
            self._fh.close()
            raise

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StoreHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- indexing scan --

    def _scan(self) -> None:
        data = self._fh.read()
        self.stats.bytes_read += len(data)
        raw_lines = data.split(b"\n")
        offsets = []
        pos = 0
        for raw in raw_lines:
            offsets.append(pos)
            pos += len(raw) + 1
        pending_refs: list[tuple[int, NodeId]] = []
        prop_records: list[tuple[NodeId, str, int, int]] = []
        script_records: list[tuple[NodeId, int, int]] = []
        in_script: NodeId | None = None
        script_open_line = 0
        nlines = len(raw_lines)
        if nlines == 0 or raw_lines[0].decode("utf-8", "replace") != HEADER:
            raise FormatError(f"missing {HEADER} header", 1)
        i = 1
        while i < nlines:
            lineno = i + 1
            try:
                line = raw_lines[i].decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("undecodable line", lineno) from None
            if in_script is not None:
                if line == ">>>":
                    in_script = None
                i += 1
                continue
            if not line.strip():
                i += 1
                continue
            toks = _split_record(line, lineno)
            tag = toks[0]
            if tag == "OBJ":
                self._record_node(toks, "obj", offsets[i], lineno, 2)
            elif tag == "ACT":
                self._record_node(toks, "act", offsets[i], lineno, 4)
                pending_refs.append((lineno, _int(toks[3], lineno)))
                if toks[2] != "-":
                    pending_refs.append((lineno, _int(toks[2], lineno)))
            elif tag in ("PROP", "SIG"):
                want = 6 if tag == "PROP" else 7
                if len(toks) not in (want - 1, want):
                    raise FormatError(f"malformed {tag} record", lineno)
                prop_records.append((_int(toks[1], lineno), toks[2], offsets[i], lineno))
            elif tag == "SCRIPT":
                if len(toks) != 2:
                    raise FormatError("malformed SCRIPT record", lineno)
                owner = _int(toks[1], lineno)
                script_records.append((owner, offsets[i], lineno))
                if i + 1 >= nlines or raw_lines[i + 1].decode("utf-8", "replace") != "<<<":
                    raise FormatError("SCRIPT without <<< block", lineno)
                in_script = owner
                script_open_line = lineno
                i += 1  # skip the <<< line
            elif tag == "ISA":
                if len(toks) != 3:
                    raise FormatError("malformed ISA record", lineno)
                inst, concept = _int(toks[1], lineno), _int(toks[2], lineno)
                pending_refs.extend([(lineno, inst), (lineno, concept)])
                self.isa.append((inst, concept))
            elif tag == "LABEL":
                if len(toks) != 4:
                    raise FormatError("malformed LABEL record", lineno)
                node = _int(toks[1], lineno)
                pending_refs.append((lineno, node))
                self.labels.append((node, toks[2], decode_text(toks[3], lineno)))
            else:
                raise FormatError(f"unknown record {tag!r}", lineno)
            i += 1
        if in_script is not None:
            raise FormatError("unterminated SCRIPT block", script_open_line)
        # records may arrive in any order; attach references only now
        for owner, name, offset, lineno in prop_records:
            entry = self.index.get(owner)
            if entry is None:
                raise FormatError(f"property for unknown node {owner}", lineno)
            if name in entry.prop_offsets:
                raise FormatError(f"duplicate property {name!r} on {owner}", lineno)
            entry.prop_offsets[name] = offset
        for owner, offset, lineno in script_records:
            entry = self.index.get(owner)
            if entry is None or entry.kind != "act":
                raise FormatError(f"SCRIPT for unknown action {owner}", lineno)
            if entry.script_offset is not None:
                raise FormatError(f"duplicate SCRIPT for {owner}", lineno)
            entry.script_offset = offset
        for lineno, ref in pending_refs:
            if ref not in self.index:
                raise FormatError(f"reference to unknown node {ref}", lineno)

    def _record_node(self, toks, kind, offset, lineno, base_len) -> None:
        inferred = False
        if len(toks) == base_len + 1 and toks[base_len] == "inferred":
            inferred = True
        elif len(toks) != base_len:
            raise FormatError(f"malformed {toks[0]} record", lineno)
        nid = _int(toks[1], lineno)
        if nid in self.index:
            raise FormatError(f"duplicate node id {nid}", lineno)
        if kind == "act":
            _int(toks[3], lineno)
        self.index[nid] = IndexEntry(kind=kind, offset=offset, inferred=inferred)

    # -- reads --

    def _read_line_at(self, offset: int) -> str:
        self._fh.seek(offset)
        raw = self._fh.readline()
        self.stats.bytes_read += len(raw)
        return raw.decode("utf-8").rstrip("\n")

    # -- lazy loading --

    def load_stub(self, nid: NodeId, net: Net) -> None:
        """Materialize a node skeleton: names and endpoints, no values.

        Idempotent; a second call reads nothing. Action endpoints are
        stubbed in automatically so symmetry lists stay consistent.
        """
        entry = self.index.get(nid)
        if entry is None:
            raise UnknownNode(f"store has no node {nid}")
        if nid in net.objects or nid in net.actions:
            return
        prov = Provenance.INFERRED if entry.inferred else Provenance.ASSERTED
        if entry.kind == "obj":
            props = {
                name: PropertyRecord(name, Value.unset(), None, PropLoad.STUB)
                for name in sorted(entry.prop_offsets)
            }
            net.objects[nid] = ObjectRecord(
                id=nid, properties=props,
                load_state=NodeLoad.STUB if props else NodeLoad.FULL,
                provenance=prov,
            )
        else:
            toks = _split_record(self._read_line_at(entry.offset), 0)
            subject = None if toks[2] == "-" else int(toks[2])
            target = int(toks[3])
            for endpoint in (subject, target):   # check both before changing anything
                if endpoint is not None and (endpoint in net.actions or (
                        endpoint not in net.objects and self.index[endpoint].kind != "obj")):
                    raise BipartiteViolation(
                        f"endpoint {endpoint} of action {nid} is an action")
            for endpoint in (subject, target):
                if endpoint is not None and endpoint not in net.objects:
                    self.load_stub(endpoint, net)
            props = {
                name: PropertyRecord(name, Value.unset(), None, PropLoad.STUB)
                for name in sorted(entry.prop_offsets)
            }
            script = (ScriptRef.stub(entry.script_offset)
                      if entry.script_offset is not None else ScriptRef.none())
            net.actions[nid] = ActionRecord(
                id=nid, subject=subject, target=target, script=script,
                properties=props, load_state=NodeLoad.STUB, provenance=prov,
            )
            if subject is not None:
                net.objects[subject].outgoing.append(nid)
            net.objects[target].incoming.append(nid)
            self._refresh_load_state(nid, net)
        net.bump_id(nid)
        if nid not in self._loaded_nodes:
            self._loaded_nodes.add(nid)
            self.stats.objects_hydrated += 1

    def hydrate_property(self, nid: NodeId, name: str, net: Net) -> Value:
        """Load one property value; everything else on the node stays put."""
        entry = self.index.get(nid)
        if entry is None:
            raise UnknownNode(f"store has no node {nid}")
        if nid not in net.objects and nid not in net.actions:
            self.load_stub(nid, net)
        offset = entry.prop_offsets.get(name)
        if offset is None:
            raise UnknownProperty(f"store has no property {name!r} on {nid}")
        rec = net.node(nid)
        prop = rec.properties.get(name)
        if prop is not None and prop.load_state is PropLoad.HYDRATED:
            return prop.value
        line = self._read_line_at(offset)
        toks = _split_record(line, 0)
        if toks[0] == "SIG":
            origin = _decode_origin(toks[3], 0)
            payload = b"" if toks[4] == "-" else bytes.fromhex(toks[4])
            sig = SensorSignal(origin, payload, _int(toks[5], 0))
            value = Value.signal(sig)
            prov = _provenance(toks[6] if len(toks) > 6 else None, Provenance.SENSED, 0)
        else:
            value = _decode_value(toks[3], toks[4], 0)
            prov = _provenance(toks[5] if len(toks) > 5 else None, Provenance.ASSERTED, 0)
        rec.properties[name] = PropertyRecord(name, value, prov, PropLoad.HYDRATED,
                                              from_store=True)
        net.touch(nid)
        if (nid, name) not in self._hydrated_props:
            self._hydrated_props.add((nid, name))
            self.stats.properties_hydrated += 1
        self._refresh_load_state(nid, net)
        return value

    def hydrate_script(self, action_id: NodeId, net: Net):
        """Read, parse, and cache an action's script; later runs reuse it."""
        entry = self.index.get(action_id)
        if entry is None:
            raise UnknownNode(f"store has no node {action_id}")
        if action_id not in net.actions:
            if entry.kind != "act":
                raise UnknownScript(f"node {action_id} is not an action")
            self.load_stub(action_id, net)
        act = net.actions[action_id]
        if act.script.state == "hydrated":
            return act.script.ast
        if act.script.state == "none" or entry.script_offset is None:
            raise UnknownScript(f"action {action_id} has no script")
        self._fh.seek(entry.script_offset)
        header = self._fh.readline()
        opener = self._fh.readline()
        self.stats.bytes_read += len(header) + len(opener)
        body: list[str] = []
        while True:
            raw = self._fh.readline()
            self.stats.bytes_read += len(raw)
            if not raw:
                raise FormatError("unterminated SCRIPT block", 0)
            line = raw.decode("utf-8").rstrip("\n")
            if line == ">>>":
                break
            body.append(line)
        text = "\n".join(body)
        ast = parse_script(text)
        act.script = ScriptRef(text=text, ast=ast, offset=entry.script_offset)
        if action_id not in self._hydrated_scripts:
            self._hydrated_scripts.add(action_id)
            self.stats.scripts_hydrated += 1
        self._refresh_load_state(action_id, net)
        return ast

    def evict(self, nid: NodeId, net: Net) -> None:
        """Demote a store-backed node to a stub, freeing hydrated values.

        Only values read from the store are dropped. A value written
        since (a write installs a new record) or never loaded is kept,
        and so are scripts that exist only in memory. Refused while a
        script is executing against the net.
        """
        entry = self.index.get(nid)
        if entry is None:
            raise UnknownNode(f"store has no node {nid}")
        if net._executing:
            raise EvictionBlocked("cannot evict while a script is executing")
        rec = net.node(nid)
        for name in entry.prop_offsets:
            prop = rec.properties.get(name)
            if prop is not None and prop.from_store:
                rec.properties[name] = PropertyRecord(
                    name, Value.unset(), None, PropLoad.STUB
                )
        net.touch(nid)
        if isinstance(rec, ActionRecord) and entry.script_offset is not None:
            rec.script = ScriptRef.stub(entry.script_offset)
        self._refresh_load_state(nid, net)

    def load_full(self) -> tuple[Net, Lexicon]:
        """Hydrate everything into a fresh net plus its labels."""
        net = Net()
        lexicon = Lexicon()
        for nid in sorted(self.index):
            self.load_stub(nid, net)
            for name in sorted(self.index[nid].prop_offsets):
                self.hydrate_property(nid, name, net)
            if self.index[nid].script_offset is not None:
                self.hydrate_script(nid, net)
        for inst, concept in sorted(self.isa):
            net.add_isa(inst, concept)
        for node, lang, text in self.labels:
            lexicon.set_label(node, lang, text)
        return net, lexicon

    def _refresh_load_state(self, nid: NodeId, net: Net) -> None:
        rec = net.node(nid)
        states = [p.load_state for p in rec.properties.values()]
        script_pending = isinstance(rec, ActionRecord) and rec.script.state == "stub"
        if all(s is PropLoad.HYDRATED for s in states) and not script_pending:
            rec.load_state = NodeLoad.FULL
        elif any(s is PropLoad.HYDRATED for s in states):
            rec.load_state = NodeLoad.PARTIAL
        else:
            rec.load_state = NodeLoad.STUB


def open(path: str) -> StoreHandle:  # noqa: A001 - deliberate name
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return StoreHandle(path)


open_store = open
