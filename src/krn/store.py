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
ends must be objects); of several bad references, the first in file
order is reported. A line in one of the forms `save` writes for the
bulk of a file (a PROP with a plain value, a LABEL, an OBJ, an ACT) is
matched whole by one compiled pattern and decoded from the match; any
other line is decoded to text and split into tokens, and that path
finds every fault. `load` decodes each record as it passes, and matched
records with equal value tokens share one Value. It reads script texts
only once the framing and references hold, so a fault inside a script
never hides a later framing or reference fault that `open` would
report; each distinct text is parsed once per load, and actions with
equal text share the AST. `script.parse` memoises by text across loads, so a
reload parses no script seen before. `open` decodes no values:
it builds a byte-offset index, and nothing beyond the index is held in
memory until a node is stubbed in and its properties or script are
hydrated one by one. A handle reads only the file it indexed: once the
path's device, inode, size or modification time differ from those at
open, every lazy read raises FormatError. A ScriptParseError from
either reader names the action and gives the file line.

A save is byte-deterministic (records sorted by id, properties by name)
and atomic: it writes a temp file beside the target, syncs it and
renames it over the target, which keeps its mode. Collapse payloads are
not persisted; a saved complex node keeps its shape but loses its
stored subnet. The records built here are slotted dataclasses and take
no ad-hoc attributes.
"""

from __future__ import annotations

import io
import os
import re
import stat
from dataclasses import dataclass, field
from urllib.parse import quote, unquote

from .core import (
    ASSERTED,
    INFERRED,
    KIND_BOOL,
    KIND_NUM,
    KIND_REF,
    KIND_TEXT,
    KIND_UNSET,
    PROP_HYDRATED,
    PROP_STUB,
    SENSED,
    ActionRecord,
    Net,
    NodeId,
    ObjectRecord,
    PropertyRecord,
    Provenance,
    ScriptRef,
    SensorAddress,
    SensorSignal,
    Value,
    valid_property_name,
)
from .errors import (
    BipartiteViolation,
    EvictionBlocked,
    FormatError,
    InvalidName,
    NodeCollapsed,
    ScriptParseError,
    UnknownNode,
    UnknownProperty,
    UnknownScript,
)
from .lexicon import Lexicon, valid_language_tag
from .script import parse as parse_script

HEADER = "KRN 1"

_TEXT_ESC = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_TEXT_UNESC = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def encode_text(s: str) -> str:
    # printable text holds no newline, tab or carriage return, so only a
    # backslash or a double quote would need an escape
    if s.isprintable() and "\\" not in s and '"' not in s:
        return f'"{s}"'
    return f'"{s.translate(_TEXT_ESC)}"'


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
    prov = INFERRED if len(toks) > base else ASSERTED
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
        prov = _provenance(toks[6] if len(toks) > 6 else None, SENSED, line)
    else:
        value = _decode_value(toks[3], toks[4], line)
        prov = _provenance(toks[5] if len(toks) > 5 else None, ASSERTED, line)
        if prov is SENSED:
            raise FormatError("a sensed property must hold a signal", line)
    return PropertyRecord(toks[2], value, prov, PROP_HYDRATED, from_store=True)


# ------------------------------------------------------------------ save

def _prop_line(owner: NodeId, prop: PropertyRecord) -> str:
    if prop.load_state is PROP_STUB:
        raise UnknownProperty(f"property {prop.name!r} of node {owner} is not hydrated")
    # by identity: a dict keyed by member would hash it in Python
    prov = prop.provenance
    prov = "inferred" if prov is INFERRED else "sensed" if prov is SENSED else "asserted"
    kind, data = prop.value.kind, prop.value.data
    if kind is KIND_NUM:
        enc = f"num {data!r}"
    elif kind is KIND_TEXT:
        enc = f"text {encode_text(data)}"
    elif kind is KIND_BOOL:
        enc = "bool true" if data else "bool false"
    elif kind is KIND_REF:
        enc = f"ref {data}"
    elif kind is KIND_UNSET:
        enc = "unset -"
    else:  # signal values are written as SIG records
        payload = data.payload.hex() if data.payload else "-"
        return (f"SIG {owner} {prop.name} {_encode_origin(data.origin)} "
                f"{payload} {data.captured_at} {prov}")
    return f"PROP {owner} {prop.name} {enc} {prov}"


def _replace(path: str, data: bytes) -> None:
    """Write a file whole or not at all: a temp file beside it, synced, then
    renamed over it. An existing file keeps its mode; a new one gets what a
    plain open would give it. A symbolic link stays one: the file it points
    to is replaced."""
    path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            if mode is not None:
                os.fchmod(fd, mode)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save(net: Net, lexicon: Lexicon | None, path: str) -> None:
    """Serialize the whole net (plus labels) deterministically and atomically.

    A stubbed property or script has no value in memory to write, so it
    raises UnknownProperty or UnknownScript before any file is touched.
    """
    lines = [HEADER]
    add = lines.append
    for oid in sorted(net.objects):
        obj = net.objects[oid]
        add(f"OBJ {oid} inferred" if obj.provenance is INFERRED else f"OBJ {oid}")
        props = obj.properties
        for name in sorted(props):
            add(_prop_line(oid, props[name]))
    for aid in sorted(net.actions):
        act = net.actions[aid]
        subj = "-" if act.subject is None else act.subject
        marker = " inferred" if act.provenance is INFERRED else ""
        add(f"ACT {aid} {subj} {act.target}{marker}")
        props = act.properties
        for name in sorted(props):
            add(_prop_line(aid, props[name]))
        if act.script.state == "stub":
            raise UnknownScript(f"script of action {aid} is not hydrated")
        if act.script.text is not None:
            add(f"SCRIPT {aid}")
            add("<<<")
            if act.script.text:
                add(act.script.text)
            add(">>>")
    for inst, concept in sorted(net.isa_edges):
        add(f"ISA {inst} {concept}")
    if lexicon is not None:
        for node, lang, text in lexicon.items():
            add(f"LABEL {node} {lang} {encode_text(text)}")
    _replace(path, ("\n".join(lines) + "\n").encode("utf-8"))


# ------------------------------------------------------------------ read

# token counts each tag allows; the optional last one is a marker or provenance
_ARITY = {"OBJ": (2, 3), "ACT": (4, 5), "PROP": (5, 6), "SIG": (6, 7),
          "SCRIPT": (2,), "ISA": (3,), "LABEL": (4,)}

# The forms `save` writes for the bulk of a file, each matched whole with its
# newline: a PROP with a plain value, a LABEL, an OBJ and an ACT, their
# fields single-spaced and printable ASCII. Names follow valid_property_name
# and tags valid_language_tag; a token is unquoted, or quoted text with no
# quote or backslash inside. Ids have at most 18 digits, so int() takes them
# as the tokenising path would. A matched line holds no fault but a
# duplicate or a bad value; the lastgroup of a match is its tag.
_RECORD = re.compile(rb"""
    PROP\ ([0-9]{1,18})\ ([a-z][a-z0-9_-]*|(?:goal|antigoal):[a-z0-9_-]+)
        \ (?P<PROP>(num|text|bool|ref|unset)\ ([!#-~]+|"[ !#-\[\]-~]*")
        (?:\ (asserted|inferred))?)\n
  | LABEL\ ([0-9]{1,18})\ ([A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)
        \ "(?P<LABEL>[ !#-\[\]-~]*)"\n
  | OBJ\ ([0-9]{1,18})(?P<OBJ>(?:\ inferred)?)\n
  | ACT\ ([0-9]{1,18})\ (-|[0-9]{1,18})\ ([0-9]{1,18})(?P<ACT>(?:\ inferred)?)\n
""", re.X)


def _text(raw: bytes, lineno: int) -> str:
    try:
        return raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError:
        raise FormatError("undecodable line", lineno) from None


def _script_block(fh, head: int) -> list[bytes]:
    """The raw lines of the <<< ... >>> block that follows the SCRIPT record
    on line `head`, both fence lines included, read from the file position."""
    raw = fh.readline()
    if raw.rstrip(b"\n") != b"<<<":
        raise FormatError("SCRIPT without <<< block", head)
    block = [raw]
    for raw in iter(fh.readline, b""):
        block.append(raw)
        if raw.rstrip(b"\n") == b">>>":
            return block
    raise FormatError("unterminated SCRIPT block", head)


def _script_text(block: list[bytes], head: int) -> str:
    """The script text inside a block from `_script_block`, without its final newline."""
    body = b"".join(block[1:-1])[:-1]
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("undecodable line", head + 2 + body.count(b"\n", 0, exc.start)) from None


def _in_file(exc: ScriptParseError, aid: NodeId, head: int) -> ScriptParseError:
    """The parse error of an action's script, placed in the file: it names
    the action and counts lines from the SCRIPT record on line `head`."""
    return ScriptParseError(f"{exc.message} in the script of action {aid}",
                            head + 1 + exc.line, exc.column, exc.expected)


def _read(fh, decode: bool):
    """One streaming pass over a whole `.krn` file, every reference checked.

    Each line is checked and decoded in place: a line `_RECORD` matches
    straight from its groups, any other line token by token, and only
    that path (and the duplicate checks) raises. With `decode`, a
    PROP/SIG record becomes a PropertyRecord, matched records with equal
    value tokens sharing one Value, and a SCRIPT record a ScriptRef, its
    text decoded and parsed only after the reference checks, equal texts
    sharing one parse. Without it, each is kept as its byte offset, for
    the index. Returns (nodes, props, scripts, isa, labels): nodes maps id
    to (tag, provenance, subject, target, offset, line) in file order;
    props maps id to {name: kept}; scripts maps id to kept.
    """
    raw = fh.readline()
    if raw.rstrip(b"\n") != HEADER.encode():
        raise FormatError(f"missing {HEADER} header", 1)
    nodes: dict = {}
    props: dict[NodeId, dict] = {}
    scripts: dict = {}
    isa: list[tuple[NodeId, NodeId]] = []
    labels: list[tuple[NodeId, str, str]] = []
    # per tag, the line of the first PROP, SIG or LABEL record naming each
    # node, and (line, tag, id, tag it needs) of each SCRIPT and ISA reference
    owners: dict[str, dict[NodeId, int]] = {"PROP": {}, "SIG": {}, "LABEL": {}}
    prop_owners, label_owners = owners["PROP"], owners["LABEL"]
    refs: list[tuple[int, str, NodeId, str]] = []
    # (Value, Provenance) of each matched "<kind> <token>[ <provenance>]"
    values: dict[bytes, tuple[Value, Provenance]] = {}
    match = _RECORD.match
    lineno, offset = 1, len(raw)
    for raw in fh:
        lineno += 1
        start = offset
        offset += len(raw)
        m = match(raw)
        if m is not None:
            tag = m.lastgroup
            if tag == "PROP":
                owner = int(m[1])
                named = props.get(owner)
                if named is None:
                    named = props[owner] = {}
                    prop_owners[owner] = lineno
                name = m[2].decode()
                if name in named:
                    raise FormatError(f"duplicate property {name!r} on {owner}", lineno)
                if decode:
                    shared = values.get(m[3])
                    if shared is None:
                        kind, tok, prov = m.group(4, 5, 6)
                        shared = values[m[3]] = (
                            _decode_value(kind.decode(), tok.decode(), lineno),
                            INFERRED if prov == b"inferred" else ASSERTED)
                    named[name] = PropertyRecord(name, shared[0], shared[1], PROP_HYDRATED, True)
                else:
                    named[name] = start
            elif tag == "LABEL":
                node = int(m[7])
                labels.append((node, m[8].decode(), m[9].decode()))
                label_owners.setdefault(node, lineno)
            else:
                nid = int(m[10] or m[12])
                if nid in nodes:
                    raise FormatError(f"duplicate node id {nid}", lineno)
                prov = INFERRED if m[tag] else ASSERTED
                if tag == "OBJ":
                    nodes[nid] = (tag, prov, None, None, start, lineno)
                else:
                    subject = None if m[13] == b"-" else int(m[13])
                    nodes[nid] = (tag, prov, subject, int(m[14]), start, lineno)
            continue
        try:
            line = raw.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError:
            raise FormatError("undecodable line", lineno) from None
        if '"' in line:
            toks = _TOKEN_RE.findall(line)
            if '"' in toks:
                raise FormatError("unterminated quote", lineno)
        else:
            toks = line.split(" ")
            if "" in toks:
                toks = [t for t in toks if t]
                if not toks:
                    continue
        tag = toks[0]
        arity = _ARITY.get(tag)
        if arity is None or len(toks) not in arity:
            if not line.strip():
                continue
            raise FormatError(f"malformed {tag} record" if arity
                              else f"unknown record {tag!r}", lineno)
        if tag == "PROP" or tag == "SIG":
            try:
                owner = int(toks[1])
            except ValueError:
                raise FormatError(f"bad integer {toks[1]!r}", lineno) from None
            named = props.get(owner)
            if named is None:
                named = props[owner] = {}
                owners[tag][owner] = lineno
            name = toks[2]
            if not valid_property_name(name):
                raise FormatError(f"bad property name {name!r}", lineno)
            if name in named:
                raise FormatError(f"duplicate property {name!r} on {owner}", lineno)
            named[name] = _decode_prop(toks, lineno) if decode else start
        elif tag == "LABEL":
            try:
                node = int(toks[1])
            except ValueError:
                raise FormatError(f"bad integer {toks[1]!r}", lineno) from None
            if not valid_language_tag(toks[2]):
                raise FormatError(f"bad language tag {toks[2]!r}", lineno)
            labels.append((node, toks[2], decode_text(toks[3], lineno)))
            label_owners.setdefault(node, lineno)
        elif tag == "OBJ" or tag == "ACT":
            nid, prov, subject, target = _decode_node(toks, lineno)
            if nid in nodes:
                raise FormatError(f"duplicate node id {nid}", lineno)
            nodes[nid] = (tag, prov, subject, target, start, lineno)
        elif tag == "SCRIPT":
            head = lineno
            block = _script_block(fh, head)
            lineno += len(block)
            offset += sum(map(len, block))
            owner = _int(toks[1], head)
            if owner in scripts:
                raise FormatError(f"duplicate SCRIPT for {owner}", head)
            scripts[owner] = (block, head, start) if decode else start
            refs.append((head, tag, owner, "ACT"))
        else:  # ISA
            inst, concept = _int(toks[1], lineno), _int(toks[2], lineno)
            isa.append((inst, concept))
            refs += [(lineno, tag, inst, "OBJ"), (lineno, tag, concept, "OBJ")]
    # records may arrive in any order, so references are checked only now;
    # of several bad ones the first in file order is reported
    bad = [(line, f"{tag} record refers to unknown node {nid}")
           for tag, first in owners.items() for nid, line in first.items() if nid not in nodes]
    ends = ((line, tag, end, "OBJ") for tag, _, subject, target, _, line in nodes.values()
            if tag == "ACT" for end in (target, subject) if end is not None)
    for checked in (ends, refs):
        for line, tag, nid, need in checked:   # in file order: the first bad one will do
            node = nodes.get(nid)
            if node is None:
                bad.append((line, f"{tag} record refers to unknown node {nid}"))
                break
            if node[0] != need:
                kind = "an object" if need == "OBJ" else "an action"
                bad.append((line, f"{tag} record needs node {nid} to be {kind}"))
                break
    if bad:
        line, message = min(bad)
        raise FormatError(message, line)
    if decode:
        # a fault inside a script text is raised only now that the framing
        # and references hold, and in action id order, as a lazy read of
        # every script meets it; equal texts share one parse
        asts: dict = {}
        for owner in sorted(scripts):
            block, head, start = scripts[owner]
            text = _script_text(block, head)
            ast = asts.get(text)
            if ast is None:
                try:
                    ast = asts[text] = parse_script(text)
                except ScriptParseError as exc:
                    raise _in_file(exc, owner, head) from None
            scripts[owner] = ScriptRef(text=text, ast=ast, offset=start)
    return nodes, props, scripts, isa, labels


def _load(fh) -> tuple[Net, Lexicon]:
    nodes, props, scripts, isa, labels = _read(fh, decode=True)
    net = Net()
    objects, actions = net.objects, net.actions
    for nid in sorted(nodes):
        tag, prov, subject, target, _, _ = nodes[nid]
        named = props.get(nid)
        properties = {name: named[name] for name in sorted(named)} if named else {}
        if tag == "OBJ":
            objects[nid] = ObjectRecord(nid, properties, [], [], prov)
        else:
            actions[nid] = ActionRecord(nid, subject, target, scripts.get(nid) or ScriptRef(),
                                        properties, prov)
    for aid, act in actions.items():
        if act.subject is not None:
            objects[act.subject].outgoing.append(aid)
        objects[act.target].incoming.append(aid)
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

# the value of every stubbed property: never read, so one serves them all
_UNSET = Value.unset()


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
    """An open `.krn` file plus its offset index and hydration counters.

    The handle reads only the file it indexed: each public lazy call first
    checks that the path still names that file, unchanged, and raises
    FormatError once it does not.
    """

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
            self._identity = _identity(os.fstat(self._fh.fileno()))
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
        nodes, props, scripts, self.isa, self.labels = _read(self._fh, decode=False)
        self.stats.bytes_read += self._fh.tell()
        for nid, (tag, prov, _, _, offset, _) in nodes.items():
            self.index[nid] = IndexEntry(
                tag.lower(), offset, prov is INFERRED,
                props.get(nid, {}), scripts.get(nid))

    # -- reads --

    def _check_unchanged(self) -> None:
        """Refuse to read once the path no longer names the file as indexed."""
        try:
            now = _identity(os.stat(self.path))
        except OSError:
            now = None
        if now != self._identity:
            raise FormatError(f"{self.path} changed since it was opened", None)

    def _line_at(self, offset: int) -> int:
        """The line number of the record at a byte offset."""
        self._fh.seek(0)
        return self._fh.read(offset).count(b"\n") + 1

    def _read_at(self, offset: int, decode):
        """decode(tokens, script text, line) of the record at a byte offset.

        A FormatError carries the record's real line, counted only then.
        """
        self._fh.seek(offset)
        try:
            toks = _split_record(_text(self._fh.readline(), 1), 1)
            if not toks or len(toks) not in _ARITY.get(toks[0], ()):
                raise FormatError("indexed record missing", 1)
            text = None
            if toks[0] == "SCRIPT":
                text = _script_text(_script_block(self._fh, 1), 1)
            self.stats.bytes_read += self._fh.tell() - offset
            return decode(toks, text, 1)
        except FormatError as exc:
            raise FormatError(exc.message, self._line_at(offset) - 1 + exc.line) from None

    # -- lazy loading --

    def load_stub(self, nid: NodeId, net: Net) -> None:
        """Materialize a node skeleton: names and endpoints, no values.

        Idempotent; a second call reads nothing. Action endpoints are
        stubbed in automatically so symmetry lists stay consistent. A node
        held inside a collapsed subnet is refused: `expand` brings it back.
        """
        self._check_unchanged()
        self._stub(nid, net)

    def _stub(self, nid: NodeId, net: Net) -> None:
        entry = self.index.get(nid)
        if entry is None:
            raise UnknownNode(f"store has no node {nid}")
        if nid in net.objects or nid in net.actions:
            return
        if nid in net.collapsed:
            raise NodeCollapsed(f"node {nid} is inside a collapsed subnet")
        prov = INFERRED if entry.inferred else ASSERTED
        props = {
            name: PropertyRecord(name, _UNSET, None, PROP_STUB)
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
                    self._stub(endpoint, net)
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
        self._check_unchanged()
        entry = self.index.get(nid)
        if entry is None:
            raise UnknownNode(f"store has no node {nid}")
        if nid not in net.objects and nid not in net.actions:
            self._stub(nid, net)
        offset = entry.prop_offsets.get(name)
        if offset is None:
            raise UnknownProperty(f"store has no property {name!r} on {nid}")
        rec = net.node(nid)
        prop = rec.properties.get(name)
        if prop is not None and prop.load_state is PROP_HYDRATED:
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
        self._check_unchanged()
        entry = self.index.get(action_id)
        if entry is None:
            raise UnknownNode(f"store has no node {action_id}")
        if action_id not in net.actions:
            if entry.kind != "act":
                raise UnknownScript(f"node {action_id} is not an action")
            self._stub(action_id, net)
        act = net.actions[action_id]
        if act.script.state == "hydrated":
            return act.script.ast
        if act.script.state == "none" or entry.script_offset is None:
            raise UnknownScript(f"action {action_id} has no script")
        text = self._read_at(entry.script_offset, lambda _toks, text, _line: text)
        try:
            ast = parse_script(text)
        except ScriptParseError as exc:
            raise _in_file(exc, action_id, self._line_at(entry.script_offset)) from None
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
                rec.properties[name] = PropertyRecord(name, _UNSET, None, PROP_STUB)
        net.touch(nid)
        if isinstance(rec, ActionRecord) and entry.script_offset is not None:
            rec.script = ScriptRef.stub(entry.script_offset)

    def load_full(self) -> tuple[Net, Lexicon]:
        """Read everything into a fresh net plus its labels, as `load` does."""
        self._check_unchanged()
        self._fh.seek(0)
        loaded = _load(self._fh)
        self.stats.bytes_read += self._fh.tell()
        return loaded


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def open(path: str) -> StoreHandle:  # noqa: A001 - deliberate name
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return StoreHandle(path)


open_store = open
