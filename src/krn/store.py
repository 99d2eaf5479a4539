"""Durable `.krn` files: a one-pass full load, or an offset index for partial loading.

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

Kinds are num|text|bool|ref|unset; signal values are written as SIG
records. Text is double quoted with \\n, \\t, \\r, \\\\ and \\" escapes;
origin paths are percent-encoded segments joined by "/". The trailing
provenance token is optional on read and defaults to asserted (sensed
for SIG).

Records may appear in any order. Both ways of reading a file stream it
once, line by line, through one record reader that checks the framing
and every reference between records (an action's endpoints and is-a
ends must be objects). `load` decodes each record as it passes and
parses each distinct script text once; actions with equal text share
the AST. `open` decodes no values: it builds a byte-offset index, and
nothing beyond the index is held in memory until a node is stubbed in
and its properties or script are hydrated one by one. A save is
byte-deterministic: records sorted by id, properties by name. Collapse
payloads are not persisted; a saved complex node keeps its shape but
loses its stored subnet.
"""

from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass, field
from urllib.parse import quote, unquote

from .core import (
    ActionRecord,
    Kind,
    Net,
    NodeId,
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
    InvalidName,
    NodeCollapsed,
    UnknownNode,
    UnknownProperty,
    UnknownScript,
)
from .lexicon import Lexicon, valid_language_tag
from .script import parse as parse_script

HEADER = "KRN 1"

_TEXT_ESC = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_TEXT_UNESC = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def encode_text(s: str) -> str:
    return '"' + "".join(_TEXT_ESC.get(c, c) for c in s) + '"'


def decode_text(tok: str, line: int) -> str:
    if len(tok) < 2 or not tok.startswith('"') or not tok.endswith('"'):
        raise FormatError(f"bad text token {tok!r}", line)
    if "\\" not in tok:
        return tok[1:-1]
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


# a quoted token runs to the first unescaped quote; a lone quote is one
# that never closes
_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[^ "][^ ]*|"', re.DOTALL)


def _split_record(line: str, lineno: int) -> list[str]:
    """Split a record line on spaces, keeping quoted text as one token."""
    if '"' not in line:
        tokens = line.split(" ")
        return tokens if "" not in tokens else [t for t in tokens if t]
    tokens = _TOKEN_RE.findall(line)
    if '"' in tokens:
        raise FormatError("unterminated quote", lineno)
    return tokens


def _encode_origin(origin: SensorAddress) -> str:
    return "/".join(quote(seg, safe="") for seg in origin.segments)

def _decode_origin(tok: str, line: int) -> SensorAddress:
    try:
        return SensorAddress(tuple(unquote(p) for p in tok.split("/")))
    except InvalidName:
        raise FormatError(f"bad origin path {tok!r}", line) from None


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


_PROVENANCE = {p.value: p for p in Provenance}


def _provenance(tok: str | None, default: Provenance, line: int) -> Provenance:
    if tok is None:
        return default
    prov = _PROVENANCE.get(tok)
    if prov is None:
        raise FormatError(f"bad provenance {tok!r}", line)
    return prov


def _decode_node(toks: list[str], line: int):
    """(id, provenance, subject, target) of an OBJ or ACT record."""
    base = 2 if toks[0] == "OBJ" else 4
    if len(toks) > base and toks[base] != "inferred":
        raise FormatError(f"malformed {toks[0]} record", line)
    prov = Provenance.INFERRED if len(toks) > base else Provenance.ASSERTED
    nid = _int(toks[1], line)
    if base == 2:
        return nid, prov, None, None
    subject = None if toks[2] == "-" else _int(toks[2], line)
    return nid, prov, subject, _int(toks[3], line)


def _decode_prop(toks: list[str], line: int) -> PropertyRecord:
    """The property record of a PROP or SIG line, as read from the store."""
    if toks[0] == "SIG":
        try:
            payload = b"" if toks[4] == "-" else bytes.fromhex(toks[4])
        except ValueError:
            raise FormatError(f"bad signal payload {toks[4]!r}", line) from None
        sig = SensorSignal(_decode_origin(toks[3], line), payload, _int(toks[5], line))
        value = Value.signal(sig)
        prov = _provenance(toks[6] if len(toks) > 6 else None, Provenance.SENSED, line)
    else:
        value = _decode_value(toks[3], toks[4], line)
        prov = _provenance(toks[5] if len(toks) > 5 else None, Provenance.ASSERTED, line)
        if prov is Provenance.SENSED:
            raise FormatError("a sensed property must hold a signal", line)
    return PropertyRecord(toks[2], value, prov, PropLoad.HYDRATED, from_store=True)


# ------------------------------------------------------------------ save

def _prop_line(owner: NodeId, prop: PropertyRecord) -> str:
    if prop.load_state is PropLoad.STUB:
        raise UnknownProperty(f"property {prop.name!r} of node {owner} is not hydrated")
    prov = (prop.provenance or Provenance.ASSERTED).value
    if prop.value.kind is Kind.SIGNAL:
        sig: SensorSignal = prop.value.data
        payload = sig.payload.hex() if sig.payload else "-"
        return (f"SIG {owner} {prop.name} {_encode_origin(sig.origin)} "
                f"{payload} {sig.captured_at} {prov}")
    kind, enc = _encode_value(prop.value)
    return f"PROP {owner} {prop.name} {kind} {enc} {prov}"


def save(net: Net, lexicon: Lexicon | None, path: str) -> None:
    """Serialize the whole net (plus labels) deterministically.

    A stubbed property or script has no value in memory to write, so it
    raises UnknownProperty or UnknownScript before the file is opened.
    """
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
        if act.script.state == "stub":
            raise UnknownScript(f"script of action {aid} is not hydrated")
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


# ------------------------------------------------------------------ read

# token counts each tag allows; the optional last one is a marker or provenance
_ARITY = {"OBJ": (2, 3), "ACT": (4, 5), "PROP": (5, 6), "SIG": (6, 7),
          "SCRIPT": (2,), "ISA": (3,), "LABEL": (4,)}


def _text(raw: bytes, lineno: int) -> str:
    try:
        return raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError:
        raise FormatError("undecodable line", lineno) from None


def _records(fh, lineno: int, offset: int):
    """Yield (tokens, script text, line, offset) per record from the file position.

    `lineno` and `offset` count the lines and bytes before that position.
    Blank lines are skipped; every line must be UTF-8 and every record
    carry its tag's token count. A SCRIPT line must be followed by a <<<
    line, and its text is the body up to the closing >>> line; other
    records have None.
    """
    lines = iter(fh.readline, b"")
    for raw in lines:
        lineno += 1
        start, offset = offset, offset + len(raw)
        line = _text(raw, lineno)
        if not line.strip():
            continue
        toks = _split_record(line, lineno)
        tag = toks[0]
        if len(toks) not in _ARITY.get(tag, ()):
            raise FormatError(f"malformed {tag} record" if tag in _ARITY
                              else f"unknown record {tag!r}", lineno)
        if tag != "SCRIPT":
            yield toks, None, lineno, start
            continue
        head = lineno
        raw = next(lines, b"")
        lineno += 1
        offset += len(raw)
        if raw.rstrip(b"\n") != b"<<<":
            raise FormatError("SCRIPT without <<< block", head)
        body = []
        for raw in lines:
            lineno += 1
            offset += len(raw)
            line = _text(raw, lineno)
            if line == ">>>":
                break
            body.append(line)
        else:
            raise FormatError("unterminated SCRIPT block", head)
        yield toks, "\n".join(body), head, start


def _read(fh, prop, script):
    """One streaming pass over a whole `.krn` file, every reference checked.

    `prop(tokens, line, offset)` and `script(text, offset)` make what is
    kept of each PROP/SIG and SCRIPT record: offsets for the index scan,
    decoded records for a full load. Returns (nodes, props, scripts,
    isa, labels): nodes maps id to (tag, provenance, subject, target,
    offset); props maps id to {name: kept}; scripts maps id to kept.
    """
    raw = fh.readline()
    if raw.rstrip(b"\n") != HEADER.encode():
        raise FormatError(f"missing {HEADER} header", 1)
    nodes: dict = {}
    props: dict[NodeId, dict] = {}
    scripts: dict = {}
    isa: list[tuple[NodeId, NodeId]] = []
    labels: list[tuple[NodeId, str, str]] = []
    refs: list[tuple[int, str, NodeId, str | None]] = []   # line, tag, id, tag it needs
    for toks, text, lineno, offset in _records(fh, 1, len(raw)):
        tag = toks[0]
        if tag == "PROP" or tag == "SIG":
            owner = _int(toks[1], lineno)
            named = props.setdefault(owner, {})
            if toks[2] in named:
                raise FormatError(f"duplicate property {toks[2]!r} on {owner}", lineno)
            named[toks[2]] = prop(toks, lineno, offset)
            refs.append((lineno, tag, owner, None))
        elif tag == "OBJ" or tag == "ACT":
            nid, prov, subject, target = _decode_node(toks, lineno)
            if nid in nodes:
                raise FormatError(f"duplicate node id {nid}", lineno)
            nodes[nid] = (tag, prov, subject, target, offset)
            if tag == "ACT":
                refs.append((lineno, tag, target, "OBJ"))
                if subject is not None:
                    refs.append((lineno, tag, subject, "OBJ"))
        elif tag == "SCRIPT":
            owner = _int(toks[1], lineno)
            if owner in scripts:
                raise FormatError(f"duplicate SCRIPT for {owner}", lineno)
            scripts[owner] = script(text, offset)
            refs.append((lineno, tag, owner, "ACT"))
        elif tag == "ISA":
            inst, concept = _int(toks[1], lineno), _int(toks[2], lineno)
            isa.append((inst, concept))
            refs += [(lineno, tag, inst, "OBJ"), (lineno, tag, concept, "OBJ")]
        else:  # LABEL
            node = _int(toks[1], lineno)
            if not valid_language_tag(toks[2]):
                raise FormatError(f"bad language tag {toks[2]!r}", lineno)
            labels.append((node, toks[2], decode_text(toks[3], lineno)))
            refs.append((lineno, tag, node, None))
    # records may arrive in any order, so references are checked only now
    for lineno, tag, nid, need in refs:
        node = nodes.get(nid)
        if node is None:
            raise FormatError(f"{tag} record refers to unknown node {nid}", lineno)
        if need is not None and node[0] != need:
            kind = "an object" if need == "OBJ" else "an action"
            raise FormatError(f"{tag} record needs node {nid} to be {kind}", lineno)
    return nodes, props, scripts, isa, labels


def _load(fh) -> tuple[Net, Lexicon]:
    asts: dict = {}

    def script(text: str, offset: int) -> ScriptRef:
        ast = asts.get(text)
        if ast is None:
            ast = asts[text] = parse_script(text)
        return ScriptRef(text=text, ast=ast, offset=offset)

    nodes, props, scripts, isa, labels = _read(
        fh, lambda toks, line, _offset: _decode_prop(toks, line), script)
    net = Net()
    for nid in sorted(nodes):
        tag, prov, subject, target, _ = nodes[nid]
        named = props.get(nid, {})
        properties = {name: named[name] for name in sorted(named)}
        if tag == "OBJ":
            net.objects[nid] = ObjectRecord(nid, properties, provenance=prov)
        else:
            net.actions[nid] = ActionRecord(
                nid, subject, target, scripts.get(nid) or ScriptRef.none(),
                properties, provenance=prov)
    for aid, act in net.actions.items():
        if act.subject is not None:
            net.objects[act.subject].outgoing.append(aid)
        net.objects[act.target].incoming.append(aid)
    if nodes:
        net.bump_id(max(nodes))
    net.isa_edges = sorted(set(isa))
    lexicon = Lexicon()
    for node, lang, text in labels:
        lexicon.set_label(node, lang, text)
    return net, lexicon


def load(path: str) -> tuple[Net, Lexicon]:
    """Read a whole `.krn` file into a fresh net plus its labels, in one pass."""
    with io.open(path, "rb") as fh:
        return _load(fh)


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
        nodes, props, scripts, self.isa, self.labels = _read(
            self._fh, lambda _toks, _line, offset: offset, lambda _text, offset: offset)
        self.stats.bytes_read += self._fh.tell()
        for nid, (tag, prov, _, _, offset) in nodes.items():
            self.index[nid] = IndexEntry(
                tag.lower(), offset, prov is Provenance.INFERRED,
                props.get(nid, {}), scripts.get(nid))

    # -- reads --

    def _read_at(self, offset: int, decode):
        """decode(tokens, script text, line) of the record at a byte offset.

        A FormatError carries the record's real line, counted only then.
        """
        self._fh.seek(offset)
        try:
            for toks, text, _, _ in _records(self._fh, 0, offset):
                self.stats.bytes_read += self._fh.tell() - offset
                return decode(toks, text, 1)
            raise FormatError("record missing", 1)
        except FormatError as exc:
            self._fh.seek(0)
            line = self._fh.read(offset).count(b"\n") + exc.line
            raise FormatError(exc.message, line) from None

    # -- lazy loading --

    def load_stub(self, nid: NodeId, net: Net) -> None:
        """Materialize a node skeleton: names and endpoints, no values.

        Idempotent; a second call reads nothing. Action endpoints are
        stubbed in automatically so symmetry lists stay consistent. A node
        held inside a collapsed subnet is refused: `expand` brings it back.
        """
        entry = self.index.get(nid)
        if entry is None:
            raise UnknownNode(f"store has no node {nid}")
        if nid in net.objects or nid in net.actions:
            return
        if nid in net.collapsed:
            raise NodeCollapsed(f"node {nid} is inside a collapsed subnet")
        prov = Provenance.INFERRED if entry.inferred else Provenance.ASSERTED
        props = {
            name: PropertyRecord(name, Value.unset(), None, PropLoad.STUB)
            for name in sorted(entry.prop_offsets)
        }
        if entry.kind == "obj":
            net.objects[nid] = ObjectRecord(id=nid, properties=props, provenance=prov)
        else:
            _, _, subject, target = self._read_at(
                entry.offset, lambda toks, _text, line: _decode_node(toks, line))
            # the file's endpoints are objects (checked on open); the net's
            # own nodes may still clash with their ids
            for endpoint in (subject, target):   # check both before changing anything
                if endpoint in net.actions:
                    raise BipartiteViolation(
                        f"endpoint {endpoint} of action {nid} is an action")
                if endpoint in net.collapsed:
                    raise NodeCollapsed(
                        f"endpoint {endpoint} of action {nid} is inside a collapsed subnet")
            for endpoint in (subject, target):
                if endpoint is not None and endpoint not in net.objects:
                    self.load_stub(endpoint, net)
            script = (ScriptRef.stub(entry.script_offset)
                      if entry.script_offset is not None else ScriptRef.none())
            net.actions[nid] = ActionRecord(
                id=nid, subject=subject, target=target, script=script,
                properties=props, provenance=prov,
            )
            if subject is not None:
                net.objects[subject].outgoing.append(nid)
            net.objects[target].incoming.append(nid)
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
        prop = self._read_at(offset, lambda toks, _text, line: _decode_prop(toks, line))
        rec.properties[name] = prop
        net.touch(nid)
        if (nid, name) not in self._hydrated_props:
            self._hydrated_props.add((nid, name))
            self.stats.properties_hydrated += 1
        return prop.value

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
        text = self._read_at(entry.script_offset, lambda _toks, text, _line: text)
        ast = parse_script(text)
        act.script = ScriptRef(text=text, ast=ast, offset=entry.script_offset)
        if action_id not in self._hydrated_scripts:
            self._hydrated_scripts.add(action_id)
            self.stats.scripts_hydrated += 1
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

    def load_full(self) -> tuple[Net, Lexicon]:
        """Read everything into a fresh net plus its labels, as `load` does."""
        self._fh.seek(0)
        loaded = _load(self._fh)
        self.stats.bytes_read += self._fh.tell()
        return loaded


def open(path: str) -> StoreHandle:  # noqa: A001 - deliberate name
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return StoreHandle(path)


open_store = open
