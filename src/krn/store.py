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

Records may appear in any order. Both ways of reading a file go over it
once through one record reader that checks the framing and every
reference between records (an action's endpoints and is-a ends must be
objects); of several bad references, the first in file order is
reported. Both read the whole file first; `load` keeps its bytes,
`open` drops them once its index is built. Every run of lines `save`
writes is matched whole by one compiled pattern and read from the
match: a node block (its OBJ or ACT line, its PROP and SIG lines, an
action's SCRIPT block), a run of ISA lines and a run of LABEL lines, ids
with no leading zero. Any other line, as in a file edited by hand, goes
through the one line decoder that the lazy reads use, and that path
finds every fault. `load` decodes each record as it
passes into a decode that holds no record (`_read`), then builds the
net from the decode (`_build`), each distinct thing once: matched PROP
lines with equal bytes after the owner id share one PropertyRecord,
and actions with equal script texts one ScriptRef, so neither is ever
changed in place. `load` parses script texts only once the framing and
references hold, so a fault inside a script never hides a later fault
that `open` would report. A `ValueMemo` passed to `load` holds the nets
its owner let go while each is clean, with the bytes a read of which
gives that net (`Net.source`), found by their size and compared, never
hashed: a load of those bytes reads no record and
takes the net back, reset as a cold load of them would give it; a load
of any other bytes reads them whole. `open` decodes no values and keeps
no labels, though it checks every record as `load` does: its index is
the scan's own tables of nodes, of the byte offsets of their records
and of is-a edges, and nothing beyond them is held in memory until a
node is stubbed in (from the index alone) and its properties or script
are hydrated one by one. A handle reads only the file it indexed: once
the path's device, inode, size, modification time or change time (its
identity) differ from those at open, every lazy read raises
FormatError, and so does a lazy read that finds any record but the one
indexed at its offset. After `close`, every lazy read but `evict`
raises FormatError naming the path. Each value, stub and script either
reader gives is marked with its file: a handle's `evict` demotes, and
its hydrate calls fill, only what its own file marked. A handle marks
with its file's identity; a load marks all it builds with one
`FileMark`, which equals that identity and which a save of the net
re-points to the file it writes, so a handle on that file takes the net's
values as its own. A ScriptParseError from either reader names the
action and gives the file line.

A save is byte-deterministic (records sorted by id, properties by name)
and atomic: it writes a temp file with a short name beside the target,
syncs it, renames it over the target, which keeps its mode, and syncs
the directory so the rename outlasts a crash. The path is resolved with
one `lstat`; only a symbolic link, which stays one, or a trailing
separator is resolved component by component. It writes no label of a
node the net does not hold. After a load or a save it copies what has
not changed, as a piece table does (Crowley, "Data Structures for Text
Sequences", 1998): the net keeps the bytes of each node block of its
source that reads exactly as `save` writes it (`Net.blocks`), wherever
it lies there, in write order (objects by id, then actions by id).
`Net.note` and `Net.touch` put an edited node in the to-encode set
(`Net.dirty`), where new nodes and nodes with no block go too. `save`
encodes the nodes in that set and the ISA lines, puts each block it
encoded in the place of the node's old one, and joins the header, the
blocks as they stand and the rest; only when a node came, went or
changed kind since does it first build the table again in write order.
So a save after a load costs Python work of O(changed blocks), one
C-level copy and join of the blocks of the nodes held, and the atomic
write. With no source every node is encoded, into one buffer. A net
that holds an id as both kinds is refused before any file is touched:
no read takes such a file back. The LABEL lines are copied when they
are one matched run that ends the file, while the lexicon holds just
those labels (`Lexicon.source`). The bytes are the same either way. A
save of a net that has a source makes the bytes it wrote the source:
each block it encoded is read alone from its match, as a read of the
file reads it, and becomes the node's block if that read spans it; the
tables are put back in id order if a node came out of order, and the
net is clean when a read of the file would give the net as it stands
(`_rebase`). Collapse payloads
are not persisted; a saved complex node keeps its shape but loses its
stored subnet. The records built here are slotted dataclasses and take
no ad-hoc attributes.
"""

from __future__ import annotations

import io
import os
import re
import stat
from dataclasses import dataclass
from itertools import chain, islice
from operator import gt, itemgetter
from urllib.parse import quote, unquote

from .core import (
    ASSERTED,
    INFERRED,
    KIND_BOOL,
    KIND_NUM,
    KIND_REF,
    KIND_SIGNAL,
    KIND_TEXT,
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
# every backslash in a text token's body starts one of those escapes
_TEXT_TOKEN = re.compile(r'"((?:[^\\]|\\[\\"ntr])*)"\Z', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)")


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
    body = _TEXT_TOKEN.match(tok)
    if body is None:
        raise FormatError(f"bad escape in {tok!r}", line)
    return _ESCAPE.sub(lambda esc: _TEXT_UNESC[esc[1]], body[1])


# a quoted token runs to the first unescaped quote; a lone quote is one
# that never closes
_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[^ "][^ ]*|"', re.DOTALL)


def _encode_origin(origin: SensorAddress) -> str:
    return "/".join(quote(seg, safe="") for seg in origin.segments)

def _decode_origin(tok: str, line: int) -> SensorAddress:
    try:
        return SensorAddress(tuple(unquote(p) for p in tok.split("/")))
    except InvalidName:
        raise FormatError(f"bad origin path {tok!r}", line) from None


def _plain(tok: str) -> bool:
    """Whether a token is in ASCII, with no underscore and no whitespace
    around it. int() and float() also take those, so a number passes
    through here first: a digit of another script, `1_0` or `1\\t` is no
    number in a file."""
    return tok.isascii() and "_" not in tok and tok == tok.strip()


def _decode_value(kind: str, tok: str, line: int) -> Value:
    if kind == "num":
        if _plain(tok):
            try:
                return Value.num(float(tok))
            except ValueError:
                pass
        raise FormatError(f"bad number {tok!r}", line)
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
    if _plain(tok):
        try:
            return int(tok)
        except ValueError:
            pass
    raise FormatError(f"bad integer {tok!r}", line)


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


def _decode_prop(toks: list[str], line: int) -> tuple[Value, Provenance]:
    """The value and provenance of a PROP or SIG line, from its tokens."""
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
    return value, prov


# ------------------------------------------------------------------ save

def _value_token(value: Value) -> str:
    """What a PROP line holds between its name and its provenance,
    `<kind> <encoded-value>`, or a SIG line, `<origin-path> <hex-payload|-> <tick>`."""
    kind, data = value.kind, value.data
    if kind is KIND_NUM:
        return f"num {data!r}"
    if kind is KIND_TEXT:
        return f"text {encode_text(data)}"
    if kind is KIND_BOOL:
        return "bool true" if data else "bool false"
    if kind is KIND_REF:
        return f"ref {data}"
    if kind is KIND_SIGNAL:
        return f"{_encode_origin(data.origin)} {data.payload.hex() or '-'} {data.captured_at}"
    return "unset -"


def _prop_line(owner: NodeId, prop: PropertyRecord) -> str:
    if prop.load_state is PROP_STUB:
        raise UnknownProperty(f"property {prop.name!r} of node {owner} is not hydrated")
    # by identity: a dict keyed by member would hash it in Python
    prov = prop.provenance
    prov = "inferred" if prov is INFERRED else "sensed" if prov is SENSED else "asserted"
    value = prop.value
    tag = "SIG" if value.kind is KIND_SIGNAL else "PROP"   # signal values are written as SIG records
    return f"{tag} {owner} {prop.name} {_value_token(value)} {prov}"


def _replace(path: str, data: bytes) -> tuple:
    """Write a file whole or not at all: a temp file beside it, synced and
    renamed over it, then its directory synced. An existing file keeps its
    mode; a new one gets what a plain open would give it. The path is
    resolved with one `lstat`; only a symbolic link, which stays one while
    the file it points to is replaced, or a trailing separator, which
    names the file without it, is resolved component by component. The
    temp file's name is short, so any name the target may have fits.
    Returns the identity of the file written, as it stands once renamed
    (`_identity`)."""
    path = os.fspath(path)
    trailing = path.endswith(os.sep)
    try:
        st = None if trailing else os.lstat(path)
    except FileNotFoundError:
        st = None
    if trailing or st and stat.S_ISLNK(st.st_mode):
        path = os.path.realpath(path)
        try:
            st = os.stat(path)
        except FileNotFoundError:
            st = None
    folder = os.path.dirname(path) or "."
    tmp = os.path.join(folder, f"krn-{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
            os.replace(tmp, path)
            written = _identity(os.fstat(fd))   # of this file, whoever renames the path next
        finally:
            os.close(fd)
        fd = os.open(folder, os.O_RDONLY)   # the rename lasts a crash
        try:                                # once the directory is synced
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return written


def _block(nid: NodeId, rec: ObjectRecord | ActionRecord, action: bool) -> str:
    """The lines `save` writes for node `nid`, whose record is `rec`, an
    action's when `action`, each with its newline. A stubbed property or
    script raises UnknownProperty or UnknownScript."""
    if action:
        subj = "-" if rec.subject is None else rec.subject
        lines = [f"ACT {nid} {subj} {rec.target}{' inferred' if rec.provenance is INFERRED else ''}"]
    else:
        lines = [f"OBJ {nid} inferred" if rec.provenance is INFERRED else f"OBJ {nid}"]
    props = rec.properties
    lines += [_prop_line(nid, props[name]) for name in sorted(props)]
    if action:
        script = rec.script
        if script.state == "stub":
            raise UnknownScript(f"script of action {nid} is not hydrated")
        if script.text is not None:
            lines += [f"SCRIPT {nid}", "<<<"]
            if script.text:
                lines.append(script.text)
            lines.append(">>>")
    lines.append("")
    return "\n".join(lines)


def _utf8(text: str) -> bytes:
    """`text` in UTF-8, or FormatError at the line of its first character
    that has no UTF-8 form (a lone surrogate)."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"cannot save {text[exc.start:exc.end]!r}: no UTF-8 encoding",
                          text.count("\n", 0, exc.start) + 1) from None


def save(net: Net, lexicon: Lexicon | None, path: str) -> None:
    """Serialize the whole net (plus labels) deterministically and atomically.

    The nodes in the to-encode set (`Net.dirty`) are encoded, each block
    in the place of the node's old one in the block table (`Net.blocks`,
    in write order: objects by id, then actions by id), and the file is
    the header, the table's blocks as they stand (one C-level join), the
    is-a edges and the labels. When a node came, went or changed kind
    since the source, the table is first built again in write order, at
    the cost of a sort of each node table and a lookup per node. With no
    source every node is encoded, into one buffer that is written as it
    is. So a save after a load or a save costs Python work of O(changed
    blocks), a copy and the join of the blocks of the nodes held, and the
    atomic write (`_replace`, which resolves the path with one `lstat`
    unless it names a symbolic link or ends in a separator). The labels are
    copied while the lexicon holds just those it was loaded with
    (`Lexicon.source`) and every labelled node is in the net; either way
    the bytes are the same. Labels of nodes that are not in the net are
    not written. An id held as both kinds (BipartiteViolation: a load
    refuses the file), a stubbed property or script (UnknownProperty,
    UnknownScript) or text with no UTF-8 form (FormatError, at its line in
    the file) fails before any file is touched.

    The file is always replaced, also when it holds the bytes written: the
    equal bytes on disk may be another writer's that are not yet synced,
    and a handle keys on the file's identity, so a save gives the path a
    new inode and new times either way. Every line written is one the
    matched reader reads (`_BLOCK`): a net that has a source takes the
    bytes written as its source with no pass over them (`_rebase`), and a
    lexicon all of whose labels were written takes their run (`Lexicon.saved`).
    """
    objects, actions = net.objects, net.actions
    dirty = net.dirty
    full = dirty is None
    # an id held as both kinds entered one table since the source, so it is in the set
    both = (objects.keys() & actions.keys() if full
            else [nid for nid in dirty if nid in objects and nid in actions])
    if both:
        raise BipartiteViolation(f"the net holds node {min(both)} as both an object and an action")
    if full:
        objs, acts, gone = sorted(objects), sorted(actions), set()
    else:   # each in O(changed blocks)
        objs = sorted(nid for nid in dirty if nid in objects)
        acts = sorted(nid for nid in dirty if nid in actions)
        gone = {nid for nid in dirty if nid not in objects and nid not in actions}
    isa = sorted(net.isa_edges)
    isa_lines = "".join([f"ISA {inst} {concept}\n" for inst, concept in isa])
    copied = None
    labelled = []   # the LABEL lines encoded
    if lexicon is not None:
        # the labels a save copies name nodes that the net held then, so
        # only those gone since need a look when the two are one load's
        if lexicon.source is not None and (
                not any(map(lexicon.labelled, gone)) if not full and lexicon.source is net.origin.labels
                else set(map(itemgetter(0), lexicon.labels)) <= objects.keys() | actions.keys()):
            copied = lexicon.source
        else:
            labelled = [f"LABEL {node} {lang} {encode_text(text)}\n"
                        for node, lang, text in lexicon.items() if node in objects or node in actions]
    try:
        if full:   # into one buffer, written as it is: a net with no source is never rebased
            data = bytearray(HEADER.encode() + b"\n")
            for nid in objs:
                data += _block(nid, objects[nid], False).encode("utf-8")
            for nid in acts:
                data += _block(nid, actions[nid], True).encode("utf-8")
        else:
            encoded = [(nid, _block(nid, objects[nid], False).encode("utf-8")) for nid in objs]
            encoded += [(nid, _block(nid, actions[nid], True).encode("utf-8")) for nid in acts]
        labels = "".join(labelled).encode("utf-8")
    except UnicodeEncodeError:   # the first text with no UTF-8 form, at its line in the file
        _utf8("".join([HEADER + "\n", *(_block(nid, objects[nid], False) for nid in sorted(objects)),
                       *(_block(nid, actions[nid], True) for nid in sorted(actions)), isa_lines, *labelled]))
        raise
    if full:
        data += isa_lines.encode()
        data += copied or labels
        _replace(path, data)
        return
    blocks = net.blocks   # in write order: objects by id, then actions by id
    written = blocks | dict(encoded)
    # each encoded block took the place of its node's stale one, which is
    # write order unless a node came, went or changed kind since: then a
    # node encoded had no block of its kind (its first byte), or the table,
    # which holds a block of every other node, holds more blocks than nodes
    if not (len(blocks) == len(objects) + len(actions)
            and all(blocks.get(nid, b"")[:1] == block[:1] for nid, block in encoded)):
        written = {nid: written[nid] for nid in chain(sorted(objects), sorted(actions))}
    data = b"".join([HEADER.encode() + b"\n", *written.values(), isa_lines.encode(), copied or labels])
    identity = _replace(path, data)
    if labelled and len(labelled) == len(lexicon.labels):   # every label, in one run a read takes
        lexicon.saved(labels)
    _rebase(net, data, identity, written, encoded, gone, isa, copied or labels)


def _in_order(table: dict, k: int) -> bool:
    """Whether `table`, in id order but for at most `k` keys put in since,
    is in id order: its last k + 1 keys are."""
    tail = list(islice(reversed(table), k + 1))
    return all(map(gt, tail, tail[1:]))


def _rebase(net: Net, data: bytes, identity: tuple, written: dict, encoded: list,
            gone: set, isa: list, labels: bytes) -> None:
    """Make `data`, which `save` wrote from a net that has a source, the
    net's source, its mark re-pointed to the file written (`identity`).

    `written` maps each node to the block `save` wrote of it, in write
    order, `encoded` lists the (id, block) of the nodes it encoded, in
    file order, and `gone` the nodes it dropped; `isa` lists the is-a
    edges written and `labels` the LABEL lines, one run (b"" for none).
    Each block encoded is read from its `_BLOCK` match as a read of `data`
    reads it (`_node_run`): its node takes the records read, and keeps the
    block if the read spans it, else stays in the to-encode set. A node put
    in after a larger id (a handle's stub) puts both tables back in id
    order, in place. The net is clean when a read of `data` gives it as it
    stands, but for its labels: every block encoded is matched whole (not
    so for an id past 18 digits) and its script parses, no node is
    collapsed, and every action end and is-a end is an object; once every
    end was, only the actions encoded are checked, as a `note` changes none.
    """
    objects, actions = net.objects, net.actions
    origin = net.origin
    mark = origin.mark
    mark.identity = identity
    nans = origin.nans
    nans.difference_update(gone)
    nans.difference_update(map(itemgetter(0), encoded))
    dirty = set()
    try:
        for nid, block in encoded:   # each takes what a read of `data` gives it
            m = _BLOCK.match(block)
            if m is None or m.end() != len(block):
                raise FormatError(f"node {nid} is written as no match reads it", None)
            _, _, _, _, _, fields, spanned, text, _ = _node_run(m, 1, (), False, {}, {})
            rec = objects.get(nid) or actions[nid]
            if text is not None:
                rec.script = _shared_script(text, origin.scripts, mark)
            rec.properties = _properties(nid, fields, origin.records, mark)
            if any(prop.value.data != prop.value.data for prop in rec.properties.values()):
                nans.add(nid)
            if not spanned:
                dirty.add(nid)
        read = True
    except (FormatError, ScriptParseError):
        read = False
        dirty = {nid for nid, _ in encoded}
    for nid in gone | dirty:
        written.pop(nid, None)
    net.blocks, net.dirty = written, dirty
    # the tables were in id order at the source, and each node put in since was encoded
    acts = [actions[nid] for nid, _ in encoded if nid in actions]
    if not (_in_order(objects, len(encoded) - len(acts)) and _in_order(actions, len(acts))):
        net.sort_tables()
    if not origin.sound:   # an end that was no object may be one now
        acts = actions.values()
    sound = all(act.target in objects and (act.subject is None or act.subject in objects) for act in acts)
    if len(origin.records) > origin.bound:   # forget the records the net no longer holds
        acts = actions.values()
        held = {id(prop) for rec in chain(objects.values(), acts) for prop in rec.properties.values()}
        origin.records = {tail: rec for tail, rec in origin.records.items() if id(rec) in held}
        held = {id(act.script) for act in acts}
        origin.scripts = {text: ref for text, ref in origin.scripts.items() if id(ref) in held}
        origin.bound = 2 * len(origin.records) + 64
    origin.sound = sound
    net.source = data
    net.clean = (sound and read and not net.collapsed
                 and all(i in objects and c in objects for i, c in isa))
    origin.isa, origin.labels = tuple(sorted(set(isa))), labels


# ------------------------------------------------------------------ read

# token counts each tag allows; the optional last one is a marker or provenance
_ARITY = {"OBJ": (2, 3), "ACT": (4, 5), "PROP": (5, 6), "SIG": (6, 7),
          "SCRIPT": (2,), "ISA": (3,), "LABEL": (4,)}

# The runs of lines `save` writes, each matched whole with its newlines: a
# node block (an OBJ or ACT line, its PROP and SIG lines, an action's SCRIPT
# block), a run of ISA lines or a run of LABEL lines; the lastgroup of a
# match names which. Fields are single-spaced; names follow
# valid_property_name and tags valid_language_tag. A value is unquoted
# printable ASCII, or quoted text: escape pairs and any byte but a quote, a
# backslash or a newline, in an unrolled loop (escape-free text is one
# repeat), checked as UTF-8 by `_read`. Ids have no leading zero and at most
# 18 digits, as `save` writes them, so int() takes them as the tokenising
# path would and equal ids have equal bytes. A matched line holds no fault
# but a duplicate, a bad value, bytes that are not UTF-8 or a bad reference.
# The repeats are possessive (Python 3.11): a greedy one keeps about 1 KB of
# backtracking state per matched line until the match ends.
_BLOCK = re.compile(rb"""
    (?P<NODE>(?:OBJ|(?P<act>ACT))\ (?P<nid><id>)(?(act)\ (?P<subject>-|<id>)\ (?P<target><id>))
        (?P<inferred>\ inferred)?\n
      (?P<props>(?:(?:PROP\ (?P=nid)\ <name>\ (?:num|text|bool|ref|unset)\ (?:[!#-~]+|<text>)
          (?:\ (?:asserted|inferred))?
        | SIG\ (?P=nid)\ <name>\ [!#-~]+\ (?:-|[0-9a-f]+)\ -?<id>(?:\ (?:asserted|inferred|sensed))?)\n)*+)
      (?(act)(?P<script>SCRIPT\ (?P=nid)\n<<<\n(?P<body>(?:(?!>>>\n)[^\n]*\n)*+)>>>\n)?))
  | (?P<ISA>(?:ISA\ <id>\ <id>\n)++)
  | (?P<LABEL>(?:LABEL\ <id>\ [A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*+\ <text>\n)++)
""".replace(b"<name>", rb"(?:[a-z][a-z0-9_-]*|(?:goal|antigoal):[a-z0-9_-]+)")
   .replace(b"<text>", rb'"[^"\\\n]*+(?:\\[\\"ntr][^"\\\n]*+)*+"')
   .replace(b"<id>", rb"(?:0|[1-9][0-9]{0,17})"), re.X)
# the lines of a matched block: a PROP or SIG line's b"S" if SIG, its
# "<name> <fields>" tail and its name; an ISA's ids; a LABEL's id, tag and text
_PROP_LINE = re.compile(rb"(?:PROP|(S)IG) [0-9]+ (([^ ]+) [^\n]+)\n")
_ISA_FIELDS = re.compile(rb"ISA ([0-9]+) ([0-9]+)\n")
_LABEL_FIELDS = re.compile(rb"LABEL ([0-9]+) ([^ ]+) ([^\n]+)\n")
# the node token of each line of a matched LABEL run, or of one LABEL line
# the tokenising path took
_LABEL_NODE = re.compile(rb" *LABEL +([-+]?[0-9]+) [^\n]*\n?")


def _tokens(raw: bytes, lineno: int) -> list[str] | None:
    """The tokens of one record line, its tag's arity checked; None for a
    blank line. Tokens are split on spaces, quoted text kept whole."""
    try:
        line = raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError:
        raise FormatError("undecodable line", lineno) from None
    if not line.strip():
        return None
    toks = _TOKEN_RE.findall(line)
    if '"' in toks:
        raise FormatError("unterminated quote", lineno)
    arity = _ARITY.get(toks[0])
    if arity is None or len(toks) not in arity:
        raise FormatError(f"malformed {toks[0]} record" if arity
                          else f"unknown record {toks[0]!r}", lineno)
    return toks


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


def _utf8_text(data: bytes, line: int) -> str:
    """`data`, lines from line `line` on, as text, or FormatError at the
    first of them that is not UTF-8, as the tokenising path raises it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("undecodable line", line + data.count(b"\n", 0, exc.start)) from None


def _in_file(exc: ScriptParseError, aid: NodeId, head: int) -> ScriptParseError:
    """The parse error of an action's script, placed in the file: it names
    the action and counts lines from the SCRIPT record on line `head`."""
    return ScriptParseError(f"{exc.message} in the script of action {aid}",
                            head + 1 + exc.line, exc.column, exc.expected)


class FileMark:
    """The mark of the records one load built: one per load, shared by all
    of them. It names the file they came from by its identity
    (`_identity`), which a save of the net re-points to the file it wrote,
    and equals another mark, or an identity, that names the same file."""

    __slots__ = ("identity",)

    def __init__(self, identity: tuple):
        self.identity = identity

    def __eq__(self, other) -> bool:
        return self.identity == (other.identity if type(other) is FileMark else other)

    def __hash__(self) -> int:
        return hash(self.identity)


@dataclass(slots=True, eq=False)
class _Origin:
    """What the store keeps of the load or save that gave a net its source:
    the mark the load gave its records; the records and scripts a read of
    the source shares, by PROP tail and by script text (some the net may
    no longer hold, until their count passes `bound`); the is-a edges a
    read of it gives; its LABEL lines when a read takes them as one run
    (b"" for none), else None; the nodes whose records there hold a NaN,
    which equals no value; and whether every action end was an object
    when it was read or written, its tables then in id order (`_rebase`)."""

    mark: FileMark
    records: dict
    scripts: dict
    isa: tuple
    labels: bytes | None
    bound: int
    nans: set
    sound: bool


# What a value memo charges for a net it keeps: the net's source twice,
# once as the key and once for the parts of it the net and lexicon hold
# as copies (its node blocks, its LABEL lines), plus what holds them: the
# net and its tables, per node its record, property dict, action lists and
# block object with its table entry, per distinct record and script what
# holds it (a script's parse too), per label its place in the lexicon. A
# least-squares fit to what tracemalloc counts a load holding (CPython
# 3.11), over benchmark-shaped nets with and without labels and nets of
# 500 runs of one shape, each raised about 6 %, so none is charged less.
_NET_COST = 2000
_NODE_COST = 400
_RECORD_COST = 400
_SCRIPT_COST = 760
_LABEL_COST = 215
MAX_MEMO_BYTES = 2 * 1024 * 1024


def _charge(net: Net, lexicon: Lexicon) -> int:
    """What a `ValueMemo` charges for keeping `net` and `lexicon`."""
    origin = net.origin
    return (2 * len(net.source) + _NET_COST + _NODE_COST * (len(net.objects) + len(net.actions))
            + _RECORD_COST * len(origin.records) + _SCRIPT_COST * len(origin.scripts)
            + _LABEL_COST * len(lexicon.labels))


class ValueMemo:
    """The nets, with their lexicons, that one owner (a CLI session) let
    go, each kept while clean (`Net.clean`) for its source: a lookup
    finds it by the size of the bytes, then compares them, and no bytes
    are hashed.

    The owner hands over a net it lets go (`keep`), and a `load` of bytes
    whose net is kept takes that net back out (`take`), reset as a cold
    load of them gives it: clock 0, no timeline, journal or sense log, not
    executing, `next_id` past its largest id. So each net has one owner,
    and the memo never holds a net a caller still holds. It keeps no net
    changed since its load or save (`Net.note`, `Net.touch`), holding a
    collapsed subnet, with is-a edges or labels other than its source's,
    or holding a NaN, which equals no value, not even a cold load's
    (`_Origin.nans`, so no keep passes over the net's records).
    Each net is charged for what it holds (`_charge`); the memo holds at
    most MAX_MEMO_BYTES so charged, is emptied whole when one more net
    would pass that, and keeps no net charged more. Only its own methods
    touch its table.
    """

    __slots__ = ("nets", "size")

    def __init__(self):
        # the size of a source -> [(net, lexicon, its charge)] of each net
        # of a source of that size, so that no lookup hashes the bytes
        self.nets: dict[int, list[tuple]] = {}
        self.size = 0   # what the nets held are charged

    def keep(self, net: Net, lexicon: Lexicon) -> bool:
        """Take `net` and `lexicon`, which their owner lets go, if the net
        is clean, in place of any net kept for the same bytes; whether kept."""
        origin = net.origin
        labels = None if origin is None else origin.labels
        if not (net.clean and labels is not None and tuple(sorted(set(net.isa_edges))) == origin.isa
                and (lexicon.source is labels if labels else not lexicon.labels) and not origin.nans):
            return False
        cost = _charge(net, lexicon)
        if cost > MAX_MEMO_BYTES:
            return False
        self._pop(net.source)
        if self.size + cost > MAX_MEMO_BYTES:
            self.nets.clear()
            self.size = 0
        self.nets.setdefault(len(net.source), []).append((net, lexicon, cost))
        self.size += cost
        return True

    def release(self, net: Net) -> None:
        """Give `net` back unreset, if kept: a load that fails leaves its
        owner the net it let go."""
        if net.source is not None and any(kept[0] is net for kept in self.nets.get(len(net.source), ())):
            self._pop(net.source)

    def take(self, data: bytes, identity: tuple) -> tuple[Net, Lexicon] | None:
        """The net and lexicon kept for the bytes `data`, of the file whose
        identity is `identity`, handed over as a cold load of them gives
        them (its tables in id order, as `_rebase` leaves them, so that
        `next_id` follows their last keys); None if none is kept."""
        kept = self._pop(data)
        if kept is None:
            return None
        net, lexicon, _ = kept
        net.origin.mark.identity = identity
        net.clock, net.timeline, net.journal, net.sense_log, net._executing = 0, None, None, None, False
        net.next_id = max(next(reversed(net.objects), 0), next(reversed(net.actions), 0)) + 1
        net.isa_edges = list(net.origin.isa)
        return net, lexicon

    def _pop(self, data: bytes) -> tuple | None:
        """Stop keeping the net kept for the bytes `data`, if any; return
        it with its lexicon and charge."""
        held = self.nets.get(len(data), [])
        for i, kept in enumerate(held):
            if kept[0].source == data:
                del held[i]
                if not held:
                    del self.nets[len(data)]
                self.size -= kept[2]
                return kept
        return None


def _node_run(m: re.Match, line: int, named, scripted: bool, names: dict, tails: dict) -> tuple:
    """The decode of a matched node block on line `line`, read line by line:
    (id, tag, provenance, subject, target, fields, whether save writes the
    node so, its script text, its line count), the fields of each PROP or
    SIG line being (tail, name, Value, Provenance, whether save writes the
    tail so), its tail the bytes after `PROP <id> ` or `SIG <id> `, decoded
    token by token as the tokenising path decodes the line (`_decode_prop`).
    In file order it raises for a duplicate property, also of one in
    `named` (the node's properties from lines outside the block), for a bad
    value, and for a SCRIPT when `scripted` (the node had one outside the
    block). `names` holds one str per property name and `tails` the fields
    of each tail decoded before."""
    nid = int(m["nid"])
    if m["act"]:
        subject = m["subject"]
        tag, subject, target = "ACT", None if subject == b"-" else int(subject), int(m["target"])
    else:
        tag, subject, target = "OBJ", None, None
    first, stop = m.span("props")
    fields = []
    seen = set(named)
    saved = True   # whether save writes the node as the block holds it
    last = ""
    for sig, tail, raw in _PROP_LINE.findall(m.string, first, stop):
        line += 1
        field = tails.get(tail)   # a PROP tail is never a SIG one: its 4th token is no tick
        if field is None:   # a line is decoded before it is checked, as `_tokens` does
            text = _utf8_text(tail, line)
            name = names.get(raw) or names.setdefault(raw, raw.decode())
        else:
            name = field[1]
        if name in seen:
            raise FormatError(f"duplicate property {name!r} on {nid}", line)
        seen.add(name)
        if field is None:
            toks = _TOKEN_RE.findall(text)   # the name, the value's tokens, the provenance if any
            value, prov = _decode_prop(["SIG" if sig else "PROP", "", *toks], line)
            as_saved = (len(toks) == (5 if sig else 4)
                        and f"{name} {_value_token(value)} {toks[-1]}" == text)
            field = tails[tail] = (tail, name, value, prov, as_saved)
        fields.append(field)
        saved = saved and name > last and field[4]
        last = name
    lines = 1 + len(fields)
    text = None
    if m["script"] is not None:
        if scripted:
            raise FormatError(f"duplicate SCRIPT for {nid}", line + 1)
        body = m["body"]
        # save writes no blank last line: ScriptRef strips its newline
        saved = saved and (not body or body[-2:] != b"\n\n" and body != b"\n")
        try:
            text = body[:-1].decode("utf-8")
        except UnicodeDecodeError:   # raised once the references hold
            text = body
        lines += body.count(b"\n") + 3
    prov = INFERRED if m["inferred"] else ASSERTED
    return nid, tag, prov, subject, target, tuple(fields), saved, text, lines


def _label_run(buf: bytes, start: int, stop: int) -> tuple[list, bool]:
    """The (node, language, text) of each line of a matched LABEL run, and
    whether save writes those labels so: each (node, language) pair
    follows the one before, and no text holds a raw tab or carriage
    return, the only characters a matched token may hold that
    `encode_text` writes otherwise."""
    langs = {}
    labels = [(int(node), langs.get(lang) or langs.setdefault(lang, lang.decode()),
               decode_text(tok.decode(), 0)) for node, lang, tok in _LABEL_FIELDS.findall(buf, start, stop)]
    return labels, (all(a[:2] < b[:2] for a, b in zip(labels, labels[1:]))
                    and buf.find(b"\t", start, stop) < 0 and buf.find(b"\r", start, stop) < 0)


def _read(buf: bytes, decode: bool):
    """One pass over a whole `.krn` file's bytes, every reference checked.

    Each run of lines `_BLOCK` matches is read from the match, its lines
    past ASCII checked as UTF-8; any other line token by token. Only those
    checks, that path and the duplicate and reference checks raise, whether
    or not records are decoded. With
    `decode` (for `load`), a node block is read line by line (`_node_run`),
    checked against its node's PROP, SIG and SCRIPT lines met before it,
    and a run of LABEL lines is decoded (`_label_run`). Without (for the
    `open` scan), each PROP/SIG and SCRIPT record is kept as its byte
    offset, for the index, and no label. Either way a LABEL run or line is
    kept as its first line and byte span, and its nodes are checked once
    the scan is done: with `decode` those of the decoded labels, without
    it each line's node token, found again in the span. Set operations
    tell whether the other references hold; only when some may not are
    they searched in file order, a LABEL line's number counted in its span.

    Without `decode`, returns (nodes, props, scripts, isa): nodes maps id
    to (tag, provenance, subject, target, line) in file order; props maps
    id to {name: offset}; scripts maps id to offset; isa lists the is-a
    edges.

    With `decode`, returns (decode, scripts). The decode holds no record
    and no mark: (entries, spans, isa, labels, label_start). Its entries
    are (id, tag, provenance, subject, target, fields, script), objects in
    id order, then actions. The fields are a node's PROP fields in name
    order (`_node_run`; the tail is a line number for a line read token by
    token) and the script its text (bytes if not UTF-8) or None. spans
    lists, entry by entry, the range of byte offsets of the node's block
    when it reads byte for byte as `save` writes that node and the node
    has no record outside it, else None. labels lists the
    (node, language, text) of the LABEL lines in file order, and
    label_start is the offset of those lines when they are one matched run
    that ends the file and reads as `save` writes those labels, else None.
    scripts maps each action with a script to (its text, its SCRIPT
    record's line).
    """
    header = HEADER.encode()
    if not (buf.startswith(header + b"\n") or buf == header):
        raise FormatError(f"missing {HEADER} header", 1)
    nodes: dict = {}
    props: dict[NodeId, dict] = {}
    scripts: dict = {}
    isa: list[tuple[NodeId, NodeId]] = []
    labels: list[tuple[NodeId, str, str]] = []
    # (line, tag, id, tag it needs or None) of each record that names a node
    # outside the node's block: a tokenised PROP, SIG or SCRIPT, and an ISA
    refs: list[tuple[int, str, NodeId, str | None]] = []
    # (first line, start offset, end offset) of each LABEL line or run
    label_runs: list[tuple[int, int, int]] = []
    names: dict = {}   # the read's one str per matched property name
    tails: dict[bytes, tuple] = {}   # the fields of each PROP tail this read decoded
    spans: dict[NodeId, range] = {}
    blocks: dict[NodeId, tuple] = {}   # the entry of each node read from its block, for load
    block_names: dict[NodeId, set] = {}   # a block's names, once a record outside it names its node
    label_start = None
    fh = io.BytesIO(buf)   # for the SCRIPT blocks of tokenised records
    match = _BLOCK.match
    all_ascii = buf.isascii()   # else each matched PROP, SIG and LABEL line is checked as UTF-8
    pos, lineno = len(header) + 1, 2
    while pos < len(buf):
        m = match(buf, pos)
        start = pos
        if m is not None:
            tag = m.lastgroup
            pos = m.end()
            if tag == "NODE":
                ident = m["nid"]
                nid = int(ident)
                if nid in nodes:
                    raise FormatError(f"duplicate node id {nid}", lineno)
            if tag == "NODE" and decode:
                _, kind, prov, subject, target, fields, saved, text, lines = _node_run(
                    m, lineno, props.get(nid, ()), nid in scripts, names, tails)
                nodes[nid] = (kind, prov, subject, target, lineno)
                if saved:
                    spans[nid] = range(start, pos)
                blocks[nid] = (nid, kind, prov, subject, target, fields, text)
                if text is not None:
                    scripts[nid] = (text, lineno + 1 + len(fields))
                lineno += lines
            elif tag == "NODE":
                prov = INFERRED if m["inferred"] else ASSERTED
                if m["act"]:
                    subject = m["subject"]
                    nodes[nid] = ("ACT", prov, None if subject == b"-" else int(subject),
                                  int(m["target"]), lineno)
                else:
                    nodes[nid] = ("OBJ", prov, None, None, lineno)
                lineno += 1
                first, stop = m.span("props")
                if first < stop:
                    named = props.get(nid)
                    if named is None:
                        named = props[nid] = {}
                    offset = first
                    for sig, tail, raw_name in _PROP_LINE.findall(buf, first, stop):
                        if not all_ascii:   # each line in file order, as `_node_run` checks it
                            _utf8_text(tail, lineno)
                        name = names.get(raw_name) or names.setdefault(raw_name, raw_name.decode())
                        if name in named:
                            raise FormatError(f"duplicate property {name!r} on {nid}", lineno)
                        named[name] = offset
                        offset += len(ident) + len(tail) + 7 - len(sig)   # "PROP " or "SIG ", " ", "\n"
                        lineno += 1
                if m["script"] is not None:
                    if nid in scripts:
                        raise FormatError(f"duplicate SCRIPT for {nid}", lineno)
                    scripts[nid] = m.start("script")
                    lineno += m["body"].count(b"\n") + 3
            elif tag == "ISA":
                for inst, concept in _ISA_FIELDS.findall(buf, start, pos):
                    inst, concept = int(inst), int(concept)
                    isa.append((inst, concept))
                    refs += [(lineno, tag, inst, "OBJ"), (lineno, tag, concept, "OBJ")]
                    lineno += 1
            else:
                if not all_ascii:
                    _utf8_text(buf[start:pos], lineno)
                if decode:
                    run, ordered = _label_run(buf, start, pos)
                    if not labels and pos == len(buf) and ordered:
                        label_start = start
                    labels += run
                label_runs.append((lineno, start, pos))
                lineno += buf.count(b"\n", start, pos)
            continue
        end = buf.find(b"\n", pos) + 1 or len(buf)
        toks = _tokens(buf[pos:end], lineno)
        pos = end
        line = lineno
        lineno += 1
        tag = toks and toks[0]
        if tag == "PROP" or tag == "SIG":
            owner = _int(toks[1], line)
            named = props.get(owner)
            if named is None:
                named = props[owner] = {}
            name = toks[2]
            if not valid_property_name(name):
                raise FormatError(f"bad property name {name!r}", line)
            if owner in blocks and owner not in block_names:
                block_names[owner] = {field[1] for field in blocks[owner][5]}
            if name in named or name in block_names.get(owner, ()):
                raise FormatError(f"duplicate property {name!r} on {owner}", line)
            if decode:
                value, prov = _decode_prop(toks, line)
                named[name] = (line, name, value, prov, False)
            else:
                named[name] = start
            refs.append((line, tag, owner, None))
        elif tag == "LABEL":
            node = _int(toks[1], line)
            if not valid_language_tag(toks[2]):
                raise FormatError(f"bad language tag {toks[2]!r}", line)
            text = decode_text(toks[3], line)
            if decode:
                labels.append((node, toks[2], text))
            label_runs.append((line, start, pos))
        elif tag == "OBJ" or tag == "ACT":
            nid, prov, subject, target = _decode_node(toks, line)
            if nid in nodes:
                raise FormatError(f"duplicate node id {nid}", line)
            nodes[nid] = (tag, prov, subject, target, line)
        elif tag == "SCRIPT":
            fh.seek(pos)
            block = _script_block(fh, line)
            pos = fh.tell()
            lineno += len(block)
            owner = _int(toks[1], line)
            if owner in scripts:
                raise FormatError(f"duplicate SCRIPT for {owner}", line)
            if decode:
                body = b"".join(block[1:-1])
                try:
                    scripts[owner] = (body[:-1].decode("utf-8"), line)
                except UnicodeDecodeError:   # raised once the references hold
                    scripts[owner] = (body, line)
            else:
                scripts[owner] = start
            refs.append((line, tag, owner, "ACT"))
        elif tag == "ISA":
            inst, concept = _int(toks[1], line), _int(toks[2], line)
            isa.append((inst, concept))
            refs += [(line, tag, inst, "OBJ"), (line, tag, concept, "OBJ")]
    # records may arrive in any order, so references are checked only now:
    # set operations tell whether one is bad (a record outside a node block
    # passes only as an is-a end), and only then is the first bad one in
    # file order searched for, of two on one line the first checked
    objects = {nid for nid, node in nodes.items() if node[0] == "OBJ"}
    acts = [node for node in nodes.values() if node[0] == "ACT"]
    endpoints = {node[3] for node in acts}.union(node[2] for node in acts) - {None}
    labelled = (map(itemgetter(0), labels) if decode else
                (int(m[1]) for _, start, stop in label_runs for m in _LABEL_NODE.finditer(buf, start, stop)))
    if not (all(map(nodes.__contains__, labelled)) and endpoints <= objects
            and all(need == "OBJ" and nid in objects for _, _, nid, need in refs)):
        labelled = ((first + line, "LABEL", int(m[1]), None) for first, start, stop in label_runs
                    for line, m in enumerate(_LABEL_NODE.finditer(buf, start, stop)))
        ends = ((line, tag, end, "OBJ") for tag, _, subject, target, line in nodes.values()
                if tag == "ACT" for end in (target, subject) if end is not None)
        bad = None
        for line, tag, nid, need in chain(refs, labelled, ends):
            if bad and line >= bad.line:
                continue
            node = nodes.get(nid)
            if node is None:
                bad = FormatError(f"{tag} record refers to unknown node {nid}", line)
            elif need and node[0] != need:
                kind = "an object" if need == "OBJ" else "an action"
                bad = FormatError(f"{tag} record needs node {nid} to be {kind}", line)
        if bad:
            raise bad
    if not decode:
        return nodes, props, scripts, isa
    for _, tag, nid, _ in refs:   # a node with a record outside its block has no span
        if tag != "ISA":
            spans.pop(nid, None)
    order = sorted(objects)
    order += sorted(nodes.keys() - objects)
    entries, spanned = [], [spans.get(nid) for nid in order]
    for nid in order:
        entry = blocks.get(nid)
        if nid not in spans:   # its fields from inside and outside its block, in name order
            named = props.get(nid, {})
            fields = tuple(sorted([*(entry[5] if entry else ()), *named.values()], key=itemgetter(1)))
            script = scripts.get(nid)
            entry = (nid, *nodes[nid][:4], fields, script and script[0])
        entries.append(entry)
    return (entries, spanned, isa, labels, label_start), scripts


def _build(decode: tuple, data: bytes, mark: FileMark, scripts: dict) -> tuple[Net, Lexicon]:
    """A fresh net plus its labels from the decode (`_read`) of the bytes
    `data`, its records marked `mark`, in one pass. Equal field tails share
    one PropertyRecord and equal script texts one ScriptRef, so neither is
    changed in place. Scripts are parsed in action id order; a fault is
    placed at its SCRIPT line from `scripts` (`_read`'s). The net keeps the
    file and the bytes of each block the read spans, wherever it lies,
    which `save` copies; each other node is in the to-encode set, so a
    save encodes it. The net is clean; the lexicon keeps the LABEL lines."""
    entries, spanned, isa, labels, label_start = decode
    net = Net()
    objects, actions, blocks = net.objects, net.actions, net.blocks
    dirty = net.dirty = set()
    records: dict = {}
    shared: dict[str, ScriptRef] = {}
    for (nid, kind, prov, subject, target, fields, text), span in zip(entries, spanned):
        properties = _properties(nid, fields, records, mark)
        if span is None:
            dirty.add(nid)
        else:
            blocks[nid] = data[span.start:span.stop]
        if kind == "OBJ":
            objects[nid] = ObjectRecord(nid, properties, [], [], prov)
            continue
        if text is None:
            script = ScriptRef()
        else:
            if type(text) is bytes:   # a body that is not UTF-8
                text = _utf8_text(text[:-1], scripts[nid][1] + 2)
            try:
                script = _shared_script(text, shared, mark)
            except ScriptParseError as exc:
                raise _in_file(exc, nid, scripts[nid][1]) from None
        actions[nid] = ActionRecord(nid, subject, target, script, properties, prov)
        if subject is not None:   # objects come first: both ends are built
            objects[subject].outgoing.append(nid)
        objects[target].incoming.append(nid)
    net.bump_id(max(next(reversed(objects), 0), next(reversed(actions), 0)))
    net.isa_edges = sorted(set(isa))
    net.source = data
    net.clean = True
    lexicon = Lexicon.of(labels)
    if label_start is not None:
        lexicon.source = data[label_start:]
    nans = set()
    if any(rec.value.data != rec.value.data for rec in records.values()):
        nans = {rec.id for rec in chain(objects.values(), actions.values())
                if any(prop.value.data != prop.value.data for prop in rec.properties.values())}
    net.origin = _Origin(mark, records, shared, tuple(net.isa_edges), lexicon.source if labels else b"",
                         2 * len(records) + 64, nans, True)
    return net, lexicon


def _properties(nid: NodeId, fields: tuple, records: dict, mark: FileMark) -> dict:
    """The properties of node `nid` from its PROP fields (`_read`): one
    record per distinct tail in `records`, carrying `mark`, and one of its
    own for a line read token by token, whose tail is a line number."""
    properties = {}
    for tail, name, value, prov, _ in fields:
        rec = records.get(tail) if type(tail) is bytes else None
        if rec is None:
            rec = records[tail if type(tail) is bytes else (nid, name)] = PropertyRecord(
                name, value, prov, PROP_HYDRATED, mark)
        properties[name] = rec
    return properties


def _shared_script(text: str, shared: dict, mark: FileMark) -> ScriptRef:
    """The ScriptRef of `text` in `shared`, parsed and marked `mark` once."""
    script = shared.get(text)
    if script is None:
        script = shared[text] = ScriptRef(text, parse_script(text), mark)
    return script


def load(path: str, memo: ValueMemo | None = None) -> tuple[Net, Lexicon]:
    """Read a whole `.krn` file into a fresh net plus its labels, in one pass.

    With a `memo` that keeps a net of the file's bytes, that net and its
    lexicon are taken out of it and read nothing (`ValueMemo.take`). The
    net, its labels, its marks and every error are the same either way."""
    with io.open(path, "rb") as fh:   # the mark is taken once the bytes are read
        data = fh.read()
        identity = _identity(os.fstat(fh.fileno()))
    kept = None if memo is None else memo.take(data, identity)
    if kept is not None:
        return kept
    decode, scripts = _read(data, True)
    return _build(decode, data, FileMark(identity), scripts)


# ------------------------------------------------------------------ open

# the value of every stubbed property: never read, so one serves them all
_UNSET = Value.unset()


@dataclass
class HydrationStats:
    objects_hydrated: int = 0
    properties_hydrated: int = 0
    scripts_hydrated: int = 0
    bytes_read: int = 0


class StoreHandle:
    """An open `.krn` file plus its offset index and hydration counters.

    The index is the open scan's own tables: `index` maps each node id to
    (tag, provenance, subject, target, line), the tag "OBJ" or "ACT";
    `props` maps the id of each node with properties to {name: byte offset
    of its PROP or SIG record}; `scripts` maps the id of each action with a
    script to the byte offset of its SCRIPT record. A node with no property
    or no script has no entry there. `isa` lists the is-a edges in file
    order. Labels are checked at open but not kept: `load_full` reads
    them. The handle reads only the file it indexed: each public lazy
    call first checks that the path still names that file with the
    device, inode, size, modification time and change time it had at
    open, and raises FormatError once it does not.
    """

    def __init__(self, path: str):
        self.path = path
        self.stats = HydrationStats()
        self._hydrated_props: set[tuple[NodeId, str]] = set()
        self._hydrated_scripts: set[NodeId] = set()
        self._loaded_nodes: set[NodeId] = set()
        self._fh = io.open(path, "rb")
        try:
            self._identity = _identity(os.fstat(self._fh.fileno()))
            data = self._fh.read()
            self.index, self.props, self.scripts, self.isa = _read(data, False)
        except BaseException:
            self._fh.close()
            raise
        self.stats.bytes_read += len(data)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StoreHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reads --

    def _check_unchanged(self) -> None:
        """Refuse to read once closed or once the path no longer names the file as indexed."""
        if self._fh.closed:
            raise FormatError(f"{self.path} handle is closed", None)
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

    def _read_at(self, offset: int, nid: NodeId, name: str | None):
        """Property `name` of node `nid`, decoded from the record at a byte
        offset, or with `name` None the text of action `nid`'s script.

        A same-size rewrite within one clock tick passes the identity check,
        so any record there but that PROP/SIG or SCRIPT raises
        FormatError("indexed record missing"). A FormatError carries the
        record's real line, counted only then.
        """
        self._fh.seek(offset)
        try:
            toks = _tokens(self._fh.readline(), 1)
            tags = ("SCRIPT",) if name is None else ("PROP", "SIG")
            if (toks is None or toks[0] not in tags or _int(toks[1], 1) != nid
                    or name is not None and toks[2] != name):
                raise FormatError("indexed record missing", 1)
            if name is None:
                kept = _utf8_text(b"".join(_script_block(self._fh, 1)[1:-1])[:-1], 3)
            else:
                value, prov = _decode_prop(toks, 1)
                kept = PropertyRecord(name, value, prov, PROP_HYDRATED, self._identity)
            self.stats.bytes_read += self._fh.tell() - offset
            return kept
        except FormatError as exc:
            raise FormatError(exc.message, self._line_at(offset) - 1 + exc.line) from None

    # -- lazy loading --

    def load_stub(self, nid: NodeId, net: Net) -> None:
        """Materialize a node skeleton: names and endpoints, no values.

        Idempotent; a second call reads nothing. Action endpoints are
        stubbed in automatically so symmetry lists stay consistent. A node
        held inside a collapsed subnet is refused: `expand` brings it back.
        So is an id the net holds as the other kind (BipartiteViolation).
        """
        self._check_unchanged()
        self._stub(nid, net)

    def _held(self, nid: NodeId, net: Net) -> ObjectRecord | ActionRecord | None:
        """The net's record of store node `nid` when the kinds agree, None if
        it lacks the node. UnknownNode for an id the file lacks; for a kind
        clash or a node inside a collapse, BipartiteViolation or NodeCollapsed."""
        node = self.index.get(nid)
        if node is None:
            raise UnknownNode(f"store has no node {nid}")
        rec = (net.objects if node[0] == "OBJ" else net.actions).get(nid)
        if rec is None:
            if nid in net.objects or nid in net.actions:
                held = "an action" if node[0] == "OBJ" else "an object"
                raise BipartiteViolation(f"the net holds store node {nid} ({node[0]}) as {held}")
            if nid in net.collapsed:
                raise NodeCollapsed(f"node {nid} is inside a collapsed subnet")
        return rec

    def _stub(self, nid: NodeId, net: Net) -> ObjectRecord | ActionRecord:
        """The net's record of node `nid` (`_held`), or else a new stub that
        carries this file's mark, an action's endpoints checked first."""
        rec = self._held(nid, net)
        if rec is not None:
            return rec
        tag, prov, subject, target, _ = self.index[nid]
        props = {name: PropertyRecord(name, _UNSET, None, PROP_STUB, self._identity)
                 for name in sorted(self.props.get(nid, ()))}
        if tag == "OBJ":
            rec = ObjectRecord(id=nid, properties=props, provenance=prov)
        else:   # both endpoints are checked before either is stubbed in
            for end in [e for e in (subject, target) if e is not None and self._held(e, net) is None]:
                self._stub(end, net)
            script = ScriptRef(from_store=self._identity if nid in self.scripts else None)
            rec = ActionRecord(nid, subject, target, script, props, prov)
        net.insert(rec)
        if nid not in self._loaded_nodes:
            self._loaded_nodes.add(nid)
            self.stats.objects_hydrated += 1
        return rec

    def hydrate_property(self, nid: NodeId, name: str, net: Net) -> Value:
        """Load one property value; everything else on the node stays put.
        Only a stub this file gave is filled, never a property the net's
        record lacks; a refused call changes nothing."""
        self._check_unchanged()
        named = self.props.get(nid)
        if named is None or name not in named:
            self._held(nid, net)   # an unknown node or a clash first
            raise UnknownProperty(f"store has no property {name!r} on {nid}")
        rec = self._stub(nid, net)
        prop = rec.properties.get(name)
        if prop is None:
            raise UnknownProperty(f"the net's node {nid} has no property {name!r}")
        if prop.load_state is PROP_HYDRATED:
            return prop.value
        if prop.from_store != self._identity:
            raise UnknownProperty(f"property {name!r} of {nid} is a stub of another file")
        read = self._read_at(named[name], nid, name)
        net.note(nid, name, prop)
        rec.properties[name] = read
        if (nid, name) not in self._hydrated_props:
            self._hydrated_props.add((nid, name))
            self.stats.properties_hydrated += 1
        return read.value

    def hydrate_script(self, action_id: NodeId, net: Net):
        """Read, parse, and cache an action's script; later runs reuse it.
        Only a stub this file gave is filled; a refused call changes nothing."""
        self._check_unchanged()
        offset = self.scripts.get(action_id)   # only an action has one
        if offset is None and action_id in self.index and self.index[action_id][0] == "OBJ":
            raise UnknownScript(f"node {action_id} is not an action")
        act = self._held(action_id, net) if offset is None else self._stub(action_id, net)
        if act is not None and act.script.state == "hydrated":
            return act.script.ast or parse_script(act.script.text)
        if offset is None or act.script.from_store != self._identity:   # none, or another's
            raise UnknownScript(f"action {action_id} has no script stub from {self.path}")
        text = self._read_at(offset, action_id, None)
        try:
            ast = parse_script(text)
        except ScriptParseError as exc:
            raise _in_file(exc, action_id, self._line_at(offset)) from None
        act.script = ScriptRef(text, ast, self._identity)
        if action_id not in self._hydrated_scripts:
            self._hydrated_scripts.add(action_id)
            self.stats.scripts_hydrated += 1
        return ast

    def evict(self, nid: NodeId, net: Net) -> None:
        """Demote a store-backed node to a stub, freeing hydrated values.

        Only what this file gave is dropped: values and a script read through
        this handle, or by `load` from the same unchanged file. Refused while
        a script is executing against the net, and for a node the net lacks
        or holds as the other kind.
        """
        rec = self._held(nid, net)
        if net._executing:
            raise EvictionBlocked("cannot evict while a script is executing")
        if rec is None:
            raise UnknownNode(f"no node {nid}")
        mark = self._identity
        for name in self.props.get(nid, ()):
            prop = rec.properties.get(name)
            if prop is not None and prop.load_state is PROP_HYDRATED and prop.from_store == mark:
                net.note(nid, name, prop)
                rec.properties[name] = PropertyRecord(name, _UNSET, None, PROP_STUB, mark)
        net.touch(nid)
        if nid in self.scripts and rec.script.from_store == mark:   # an action's own script
            rec.script = ScriptRef(from_store=mark)

    def load_full(self) -> tuple[Net, Lexicon]:
        """Read everything into a fresh net plus its labels, as `load` does."""
        self._check_unchanged()
        self._fh.seek(0)
        data = self._fh.read()
        self.stats.bytes_read += len(data)
        decode, scripts = _read(data, True)
        return _build(decode, data, FileMark(self._identity), scripts)


def _identity(st: os.stat_result) -> tuple[tuple[int, int], tuple[int, int, int]]:
    """Which file a path names (device, inode) and the state it is in (size,
    modification time, change time). Every write, `chmod` or new link moves
    the change time, and no call can set it back, so a rewrite whose
    modification time is put back still shows."""
    return (st.st_dev, st.st_ino), (st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def open(path: str) -> StoreHandle:  # noqa: A001 - deliberate name
    return StoreHandle(path)
