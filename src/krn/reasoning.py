"""Structural intelligence over nets.

Four capabilities live here:

* collapse/expand: replace a subnet with one complex node and restore
  it later, the "zooming" abstraction;
* concepts: mine value-free structural patterns that repeat, and
  register one as ordinary nodes that is-a edges point at;
* shaping: instantiate a concept's missing structure onto an instance
  that carries an is-a edge, marking everything created as inferred;
* structural queries: does this instance have that fragment, and is the
  answer asserted, inferred, or unknown. A fragment is a condition read
  off its anchor (a property test, or a part carrying a name), not a
  pattern searched for.

Pattern matching compares node kinds, link shape, and property names;
property values never participate. A pattern node's names, bookkeeping
aside, must be among its image's, so more specific patterns match fewer
nodes, and a pattern action with a blank subject leaves the image's
subject unconstrained. Both searches, `find_matches` (every injective
match) and shaping's `_max_anchored_match` (the largest partial match
around a pinned root), draw a pattern node's candidates from one rule,
`_images`: the target nodes that every mapped neighbour allows by role.
Mining counts exact-structure occurrences (the
extracted pattern of the image is isomorphic to the template); a mined
template is kept only if no other sufficiently supported template
properly contains it.
"""

from __future__ import annotations

import enum
import itertools
import re
from collections import Counter
from dataclasses import dataclass

from .core import (
    _NAME_RE,
    INFERRED,
    KIND_NUM,
    ORDERINGS,
    ActionRecord,
    CollapsePayload,
    Net,
    NodeId,
    ObjectRecord,
    PropertyRecord,
    Provenance,
    Value,
    values_equal,
)
from .errors import (
    AmbiguousEndpoints,
    BoundaryViolation,
    KrnError,
    MalformedCondition,
    NotCollapsed,
    ScriptParseError,
    UnknownConcept,
    UnknownNode,
)
from .script import _lex

# Property names used for template bookkeeping on registered concept
# roots; they are stripped from extracted patterns. Only the support is
# written; a `concept-parent` that a file carries is bookkeeping all the same.
SUPPORT_PROP = "concept-support"
PARENT_PROP = "concept-parent"
_BOOKKEEPING = {SUPPORT_PROP, PARENT_PROP}


def _neighbors(net: Net, nid: NodeId) -> list[NodeId]:
    rec = net.node(nid)
    if isinstance(rec, ObjectRecord):
        return sorted({*rec.outgoing, *rec.incoming})
    return [rec.target] if rec.subject is None else sorted({rec.target, rec.subject})


def _bfs_order(net: Net, start: NodeId, within=None) -> list[NodeId]:
    """Nodes reachable from start, breadth-first, neighbours in id order;
    with `within`, only through nodes in that set."""
    order = [start]
    seen = {start}
    for nid in order:   # the list grows while it is read: a FIFO queue
        for nb in _neighbors(net, nid):
            if nb not in seen and (within is None or nb in within):
                seen.add(nb)
                order.append(nb)
    return order


def _copy_structure(src: Net, nodes, dst: Net, idmap: dict | None = None, *,
                    provenance: Provenance = Provenance.ASSERTED) -> dict:
    """Copy the value-free structure of `nodes` from src into dst.

    Objects, then actions, each in the order given, get fresh dst ids,
    sorted names minus bookkeeping and one shared unset value; a valid
    src needs no check, so each record enters by `Net.insert`. `idmap`,
    src id to dst id, may be seeded with nodes that have an image; it is
    returned with the copies added. A subject with no image is blank.
    """
    if idmap is None:
        idmap = {}
    unset = Value.unset()

    def props(rec) -> dict:
        return {n: PropertyRecord(n, unset, provenance)
                for n in sorted(rec.properties.keys() - _BOOKKEEPING)}

    for nid in nodes:
        rec = src.objects.get(nid)
        if rec is not None:
            idmap[nid] = dst.insert(ObjectRecord(dst.next_id, props(rec), provenance=provenance))
    for nid in nodes:
        rec = src.actions.get(nid)
        if rec is not None:
            idmap[nid] = dst.insert(ActionRecord(dst.next_id, idmap.get(rec.subject),
                                                 idmap[rec.target], properties=props(rec),
                                                 provenance=provenance))
    return idmap


# ------------------------------------------------------------- boundaries

@dataclass(frozen=True)
class CutLink:
    """One structural link crossing a boundary.

    `role` names the object's role in the action link; `via` is the kind
    of the outside endpoint.
    """

    inside: NodeId
    outside: NodeId
    via: str   # "action" | "object"
    role: str  # "subject" | "target"


@dataclass(frozen=True)
class Boundary:
    inside: frozenset
    cut: tuple


def compute_boundary(net: Net, inside) -> Boundary:
    inside = set(inside)
    if not inside:
        raise BoundaryViolation("inside set is empty")
    cut: list[CutLink] = []
    for nid in sorted(inside):
        rec = net.node(nid)  # raises UnknownNode
        if isinstance(rec, ObjectRecord):
            for aid in rec.outgoing:
                if aid not in inside:
                    cut.append(CutLink(nid, aid, "action", "subject"))
            for aid in rec.incoming:
                if aid not in inside:
                    cut.append(CutLink(nid, aid, "action", "target"))
        else:
            if rec.subject is not None and rec.subject not in inside:
                cut.append(CutLink(nid, rec.subject, "object", "subject"))
            if rec.target not in inside:
                cut.append(CutLink(nid, rec.target, "object", "target"))
    if len(_bfs_order(net, min(inside), within=inside)) != len(inside):
        raise BoundaryViolation("inside set is not connected")
    return Boundary(frozenset(inside), tuple(cut))


def _bounded(net: Net, inside, kind: str) -> Boundary:
    """The boundary of a subnet that collapses to one `kind` node, which
    must meet the rest of the net only through nodes of the other kind."""
    boundary = compute_boundary(net, inside)
    bad = next((cl for cl in boundary.cut if cl.via == kind), None)
    if bad is not None:
        other = "action" if kind == "object" else "object"
        raise BoundaryViolation(
            f"boundary crossed via {kind} at {bad.inside}->{bad.outside}; "
            f"a complex {kind} must meet the rest of the net through {other}s"
        )
    return boundary


def _take_inside(net: Net, inside, rewired: list) -> CollapsePayload:
    """Move the inside records, as they are, out of the net into a payload,
    with the is-a edges that touch them.

    No copy is made: `expand` puts the same records back under the same ids.
    """
    objects, actions = {}, {}
    for nid in sorted(inside):
        if nid in net.objects:
            rec = objects[nid] = net.objects.pop(nid)
        else:
            rec = actions[nid] = net.actions.pop(nid)
        net.touch(nid, rec, gone=True)
    net.collapsed = net.collapsed.union(inside)
    return CollapsePayload(objects, actions, net._drop_isa(inside), rewired)


def collapse_to_object(net: Net, inside) -> NodeId:
    """Replace a subnet bounded only by actions with one complex object.

    Crossing actions are rewired to the new object; the removed subnet
    is kept on the complex node for expansion.
    """
    boundary = _bounded(net, inside, "object")
    rewired = [(cl.outside, cl.role, cl.inside)
               for cl in sorted(boundary.cut, key=lambda c: (c.outside, c.role))]
    payload = _take_inside(net, boundary.inside, rewired)
    record = ObjectRecord(id=net.next_id, collapse_payload=payload)
    new_id = net.insert(record)
    for aid, role, _orig in rewired:
        act = net.actions[aid]
        if role == "subject":
            act.subject = new_id
            record.outgoing.append(aid)
        else:
            act.target = new_id
            record.incoming.append(aid)
        net.touch(aid)
    return new_id


def collapse_to_action(net: Net, inside, *, subject_hint: NodeId | None = None,
                       target_hint: NodeId | None = None) -> NodeId:
    """Replace a subnet bounded only by objects with one complex action.

    The complex action's subject is the unique outside initiator and its
    target the unique outside recipient, candidates taken in order of
    the inside actions' ids. More than one candidate on a side without a
    hint raises AmbiguousEndpoints. A single action collapses to itself.
    """
    inside = set(inside)
    if len(inside) == 1 and net.is_action(min(inside)):
        return min(inside)
    boundary = _bounded(net, inside, "action")
    # every crossing link starts at an inside action: subject, then target
    initiators = list(dict.fromkeys(cl.outside for cl in boundary.cut if cl.role == "subject"))
    recipients = list(dict.fromkeys(cl.outside for cl in boundary.cut if cl.role == "target"))

    def pick(candidates, hint, side):
        if hint is not None:
            if hint not in candidates:
                raise AmbiguousEndpoints(f"{side} hint {hint} is not a boundary candidate")
            return hint
        if len(candidates) > 1:
            raise AmbiguousEndpoints(f"{len(candidates)} {side} candidates: {candidates}")
        return candidates[0] if candidates else None

    subject = pick(initiators, subject_hint, "subject")
    target = pick(recipients, target_hint, "target")
    if target is None:
        raise AmbiguousEndpoints("no outside recipient to serve as the complex action's target")
    payload = _take_inside(net, boundary.inside, [])
    # detach every crossing link from the outside objects' lists, keeping
    # each one's place in the list as it was
    for cl in boundary.cut:
        obj = net.objects[cl.outside]
        lst = obj.outgoing if cl.role == "subject" else obj.incoming
        payload.slots.append((cl.outside, cl.role, lst.index(cl.inside), cl.inside))
    for outside, role, _, aid in payload.slots:
        obj = net.objects[outside]
        (obj.outgoing if role == "subject" else obj.incoming).remove(aid)
    return net.insert(ActionRecord(id=net.next_id, subject=subject, target=target,
                                   collapse_payload=payload))


def expand(net: Net, complex_id: NodeId) -> set:
    """Put a collapsed subnet back under its own ids and remove the complex node.

    Ids are never reallocated, so the restored nodes take their
    pre-collapse ids: names, labels, goal anchors and the ids of nested
    complex nodes stay valid. Every check runs before the net changes,
    so a refused expansion leaves the net as it was. The net's tables end
    in id order, as a load gives them. Returns the restored ids.
    """
    rec = net.node(complex_id)
    payload = rec.collapse_payload
    if payload is None:
        raise NotCollapsed(f"node {complex_id} holds no collapsed subnet")
    # no restored id can be in use: ids are never reallocated, and a store
    # handle refuses to stub one in (`net.collapsed`)
    restored = payload.objects.keys() | payload.actions.keys()
    if complex_id in net.objects:
        covered = {(aid, role) for aid, role, _ in payload.rewired}
        attached = {(aid, "subject") for aid in rec.outgoing} | \
                   {(aid, "target") for aid in rec.incoming}
        extra, missing = sorted(attached - covered), sorted(covered - attached)
        if extra:
            raise NotCollapsed(f"action {extra[0][0]} attached after collapse blocks expansion")
        if missing:
            raise UnknownNode(f"crossing action {missing[0][0]} vanished before expansion")
    else:
        for act in payload.actions.values():
            for end in (act.subject, act.target):
                if end is not None and end not in restored and end not in net.objects:
                    raise UnknownNode(f"outside object {end} vanished before expansion")
    for inst, concept in payload.isa:
        for end in (inst, concept):
            if end not in payload.objects and end not in net.objects:
                raise UnknownNode(f"is-a end {end} vanished before expansion")

    for records in (payload.objects, payload.actions):
        for nid, record in records.items():
            net.touch(nid, record)
    net.objects.update(payload.objects)
    net.actions.update(payload.actions)
    if complex_id in net.objects:
        # outside crossing actions point at the complex object; point them back
        for aid, role, orig in payload.rewired:
            setattr(net.actions[aid], role, orig)
            net.touch(aid)
        net.touch(complex_id, rec, gone=True)
        del net.objects[complex_id]
        net._drop_isa({complex_id})
    else:
        # wire restored actions back into the outside objects' lists, each
        # at its old index: in ascending order, every earlier one is back
        for outside, role, index, aid in sorted(payload.slots, key=lambda s: s[2]):
            obj = net.objects[outside]
            (obj.outgoing if role == "subject" else obj.incoming).insert(index, aid)
        net._erase_action(complex_id)
    net.isa_edges.extend(payload.isa)
    net.collapsed = net.collapsed.difference(restored)
    net.sort_tables()
    return restored


# ------------------------------------------------------------- matching

def _compat(pattern: Net, target: Net, p: NodeId, t: NodeId) -> bool:
    """Whether t, looked up in target, can be p's image: a node of p's kind,
    with a subject if p is an action with one, and every name of p's but
    bookkeeping ones, which concept roots carry."""
    if p in pattern.objects:
        prec, trec = pattern.objects[p], target.objects.get(t)
    else:
        prec, trec = pattern.actions[p], target.actions.get(t)
        if trec is not None and trec.subject is None and prec.subject is not None:
            return False
    names = prec.properties.keys()
    return trec is not None and (names <= trec.properties.keys()
                                 or names - _BOOKKEEPING <= trec.properties.keys())


def _images(pattern: Net, target: Net, mapping: dict, p: NodeId) -> list | None:
    """The target nodes, in id order, that every mapped neighbour of p
    allows by role, or None when no neighbour of p is mapped.

    An action's image lies in the incoming list of its target's image and
    the outgoing list of its subject's image; an object's image is the
    subject or target, as p is, of each mapped incident action's image.
    """
    if p in pattern.actions:
        prec = pattern.actions[p]
        pools = [target.objects[mapping[prec.target]].incoming] if prec.target in mapping else []
        if prec.subject in mapping:
            pools.append(target.objects[mapping[prec.subject]].outgoing)
    else:
        prec = pattern.objects[p]
        pools = [[target.actions[mapping[q]].subject] for q in prec.outgoing if q in mapping]
        pools += [[target.actions[mapping[q]].target] for q in prec.incoming if q in mapping]
    if not pools:
        return None
    return sorted(set(pools[0]).intersection(*pools[1:]))


def find_matches(pattern: Net, target: Net, *, limit: int | None = None) -> list[dict]:
    """All injective structure-preserving mappings of pattern into target,
    at most `limit` of them.

    Pattern nodes are taken breadth-first from the lowest object (or the
    lowest action), then the unreached ones by id.
    """
    ids = pattern.node_ids()
    if not ids:
        return [{}]
    order = _bfs_order(pattern, min(pattern.objects, default=ids[0]))
    order += sorted(set(ids).difference(order))  # disconnected: full scans

    results: list[dict] = []
    mapping: dict = {}
    used: set = set()
    target_ids = target.node_ids()

    def extend(k: int) -> None:
        if limit is not None and len(results) >= limit:
            return
        if k == len(order):
            results.append(dict(mapping))
            return
        p = order[k]
        pool = _images(pattern, target, mapping, p)
        if pool is None:
            pool = target_ids
        for t in pool:
            if t not in used and _compat(pattern, target, p, t):
                mapping[p] = t
                used.add(t)
                extend(k + 1)
                del mapping[p]
                used.discard(t)

    try:
        extend(0)
    finally:
        del extend   # a nested function that calls itself is a cycle until dropped
    return results


def match_images(pattern: Net, target: Net) -> set:
    """Distinct node sets covered by matches; automorphisms collapse."""
    return {frozenset(m.values()) for m in find_matches(pattern, target)}


# ------------------------------------------------------- canonical form

def _names(rec) -> tuple:
    """A record's names, bookkeeping aside, sorted."""
    return tuple(sorted(rec.properties.keys() - _BOOKKEEPING))


def _shape_table(net: Net, nodes) -> dict:
    """Each node's (kind, sorted names minus bookkeeping): the part of its
    view that does not depend on the node set around it."""
    table = {}
    for nid in nodes:
        rec = net.node(nid)
        table[nid] = ("o" if isinstance(rec, ObjectRecord) else "a", _names(rec))
    return table


def _view(net: Net, nodes) -> dict:
    """What `extract_pattern` copies of a node set, read in place.

    Each node maps to (kind, names, x, y), kind and names as in
    `_shape_table`: for an object, x and y are its outgoing and incoming
    actions inside the set; for an action, its subject (None if blank or
    outside the set) and its target.
    """
    shapes = _shape_table(net, nodes)
    view = {}
    for nid in nodes:
        kind, names = shapes[nid]
        if kind == "o":
            rec = net.objects[nid]
            view[nid] = ("o", names, [a for a in rec.outgoing if a in nodes],
                         [a for a in rec.incoming if a in nodes])
        else:
            rec = net.actions[nid]
            view[nid] = ("a", names, rec.subject if rec.subject in nodes else None, rec.target)
    return view


def _canonical(net: Net, nodes) -> tuple[str, list]:
    """Canonical encoding of a node set's pattern, plus the ordering of
    the set's own ids that produced it."""
    return _canonical_view(_view(net, nodes))


def _canonical_view(view: dict) -> tuple[str, list]:
    """Canonical encoding of a view, plus the ordering of its ids that
    produced it.

    Isomorphic patterns (same kinds, name sets, wiring, blank-subject
    flags) yield identical strings. Node classes come from iterative
    color refinement: a node's class is ranked by its signature (its
    class and its neighbours' classes by role) in sorted order, so the
    classes and their order follow from the structure alone. Refinement
    stops at the first round that splits no class, or once every class
    is one node; then there is one order to encode. Otherwise the
    encoding is minimized over permutations within classes, which is
    exhaustive and fine at pattern scale.
    """
    if not view:
        return "", []
    ids = sorted(view)
    n = len(ids)
    at = {nid: i for i, nid in enumerate(ids)}
    labels, colors, ends, nbrs = [], [], [], []
    # a neighbour is its role's offset plus its rank, so the roles sort
    # in, out, subj, tgt whatever the ranks
    for nid in ids:
        kind, names, x, y = view[nid]
        labels.append(kind + "(" + ",".join(names) + ")")
        if kind == "o":
            colors.append((kind, names))
            ends.append(None)
            nbrs.append([(0, at[a]) for a in y] + [(n, at[a]) for a in x])
        else:
            colors.append((kind, names, x is None))
            ends.append((None if x is None else at[x], at[y]))
            nbrs.append([(3 * n, at[y])] if x is None else [(2 * n, at[x]), (3 * n, at[y])])
    ordered = sorted(set(colors))
    rank_of = {color: r for r, color in enumerate(ordered)}
    ranks = [rank_of[color] for color in colors]
    classes = len(ordered)
    while classes < n:
        sigs = [(ranks[i], *sorted([role + ranks[j] for role, j in nbr]))
                for i, nbr in enumerate(nbrs)]
        ordered = sorted(set(sigs))
        if len(ordered) == classes:
            break
        rank_of = {sig: r for r, sig in enumerate(ordered)}
        ranks = [rank_of[sig] for sig in sigs]
        classes = len(ordered)

    def encode(order: list) -> str:
        pos = [0] * n
        for i, p in enumerate(order):
            pos[p] = i
        edge_parts = [f"{i}:s{'-' if end[0] is None else pos[end[0]]}:t{pos[end[1]]}"
                      for i, end in enumerate(map(ends.__getitem__, order)) if end]
        return "|".join(map(labels.__getitem__, order)) + "#" + ";".join(edge_parts)

    if classes == n:
        order = sorted(range(n), key=ranks.__getitem__)
        return encode(order), [ids[p] for p in order]
    groups = [[] for _ in range(classes)]
    for p in range(n):
        groups[ranks[p]].append(p)
    orders = ([p for group in combo for p in group]
              for combo in itertools.product(*(_twin_orders(group, ends) for group in groups)))
    key, order = min((encode(order), order) for order in orders)
    return key, [ids[p] for p in order]


def _twin_orders(group: list, ends: list):
    """The orders of a class's positions (ascending) that keep twin actions,
    those with equal ends, ascending: swapping twins changes no encoding,
    and the least of equal encodings' orders has them ascending."""
    for i, p in enumerate(group):
        if ends[p] is None or ends[p] not in [ends[q] for q in group[:i]]:
            rest = group[:i] + group[i + 1:]
            for tail in _twin_orders(rest, ends) if rest else [[]]:
                yield [p, *tail]


def canonical_key(pattern: Net) -> str:
    """The canonical form of a whole pattern (bookkeeping names ignored)."""
    return _canonical(pattern, pattern.objects.keys() | pattern.actions.keys())[0]


# ------------------------------------------------------------- mining

# A subset of a net's nodes is an int: bit i stands for the i-th smallest
# node id, since ids themselves reach 10**18.

def _bits(mask: int):
    """The one-bit masks of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _bit_rows(net: Net) -> tuple[list, list]:
    """The net's ids in ascending order, and for each its (kind, names)
    shape, as `_shape_table` gives it, with its subject bit and target
    bit; an object and a blank subject have bit 0."""
    ids = net.node_ids()
    bit = {nid: 1 << i for i, nid in enumerate(ids)}
    rows = []
    for nid in ids:
        rec = net.actions.get(nid)
        rows.append((("o", _names(net.objects[nid])), 0, 0) if rec is None else
                    (("a", _names(rec)), bit.get(rec.subject, 0), bit[rec.target]))
    return ids, rows


def _closed_subsets(rows: list, shape_index: dict, max_nodes: int) -> list:
    """Every closed connected subset of at most max_nodes nodes of a net,
    as a mask over its `_bit_rows`, paired with a cheap isomorphism
    invariant. Closed means that every member action's target is a member,
    which a pattern needs.

    The enumeration is ESU (Wernicke 2006): a subset grows from its
    smallest node, the root, by the nodes of its extension mask, lowest
    bit first, each exactly once; a child's extension is the rest of the
    parent's plus the new node's neighbours above the root that are not
    already in or next to the subset. Subsets come in the order of a
    walk of sorted id lists, so the first subset of each bucket is fixed.
    Closure is carried along the growth as the mask of the targets that
    member actions need; a subset grows only while a closed superset (one
    more node, and every unmet target) fits in max_nodes, so none is lost.

    The invariant is the sorted tuple, over the subset's nodes, of the
    node's shape id (numbered in `shape_index`, which nets whose
    invariants are compared share) packed with two counts of members:
    for an object, the actions naming it as subject and as target; for an
    action, its subject (0 or 1) and 0. It reads only what `_view` reads,
    so isomorphic views have equal invariants.
    """
    n = len(rows)
    outs, ins = [0] * n, [0] * n
    for i, (_, subject, target) in enumerate(rows):
        if target:
            if subject:
                outs[subject.bit_length() - 1] |= 1 << i
            ins[target.bit_length() - 1] |= 1 << i
    nbr = [subject | target | outs[i] | ins[i] for i, (_, subject, target) in enumerate(rows)]
    need = [target for _, _, target in rows]
    base = [shape_index.setdefault(shape, len(shape_index)) << 8 for shape, _, _ in rows]
    one = [subject | outs[i] for i, (_, subject, _) in enumerate(rows)]
    closed = []
    members = []   # the positions in the subset being grown

    def grow(sub: int, ext: int, nbh: int, needed: int) -> None:
        # nbh is sub and its neighbours; ext lies inside it
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            new_sub = sub | low
            new_need = needed | need[w]
            members.append(w)
            unmet = new_need & ~new_sub
            if not unmet:
                # a count is below max_nodes <= 8, so four bits hold it
                inv = []
                for i in members:
                    inv.append(base[i] | (one[i] & new_sub).bit_count() << 4
                               | (ins[i] & new_sub).bit_count())
                inv.sort()
                closed.append((new_sub, tuple(inv)))
            if len(members) < max_nodes and len(members) + unmet.bit_count() <= max_nodes:
                grow(new_sub, ext | nbr[w] & above & ~nbh, nbh | nbr[w], new_need)
            members.pop()

    try:
        for v in range(n):
            members.append(v)
            if not need[v]:   # an action alone lacks its target
                closed.append((1 << v, (base[v],)))
            above = -(2 << v)   # the bits above the root
            if max_nodes > 1:
                grow(1 << v, nbr[v] & above, nbr[v] | 1 << v, need[v])
            members.pop()
    finally:
        del grow   # a nested function that calls itself is a cycle until dropped
    return closed


def _structure(rows: list, sub: int) -> tuple:
    """A subset, given as a mask over `_bit_rows`, as its members in id
    order: an object's kind and names, an action's kind, names, and
    subject (None if blank or outside) and target as positions, each the
    count of members below its bit.

    Equal structures are isomorphic by the map that keeps positions, and
    each fixes its view (`_structure_view`); mining canonicalises one only
    for a template it returns.
    """
    structure = []
    for low in _bits(sub):
        shape, subject, target = rows[low.bit_length() - 1]
        structure.append(shape if not target else
                         (*shape, (sub & (subject - 1)).bit_count() if sub & subject else None,
                          (sub & (target - 1)).bit_count()))
    return tuple(structure)


def _structure_view(structure: tuple) -> dict:
    """The view of a structure's subset, with positions for ids: an
    object's actions inside the subset are the ones naming it as subject
    or target. Numbering by position keeps the id order that
    `_canonical_view` breaks ties by, so its result is `_canonical` on
    the subset's ids, with positions for ids."""
    view = {p: node if len(node) == 4 else (*node, [], []) for p, node in enumerate(structure)}
    for p, node in enumerate(structure):
        if len(node) == 4:
            if node[2] is not None:
                view[node[2]][2].append(p)
            view[node[3]][3].append(p)
    return view


def _structure_of(net: Net, order) -> tuple:
    """The structure, as `_structure` gives one, of the nodes in `order`
    (every action's target among them), numbered by their place in it."""
    at = {nid: p for p, nid in enumerate(order)}
    structure = []
    for nid in order:
        rec = net.actions.get(nid)
        structure.append(("o", _names(net.objects[nid])) if rec is None else
                         ("a", _names(rec), at.get(rec.subject), at[rec.target]))
    return tuple(structure)


def _supported_classes(nets, min_support: int, max_nodes: int) -> list:
    """The isomorphism classes of closed subsets across the nets that at
    least min_support subsets fall in, in the enumeration order of each
    class's first subset, as (support, net, members, structure): the net
    and the ids (ascending) of that first subset, and for a class that
    the one-node proof leaves unproven that subset's `_structure`, whose
    positions index members; None for a proven class.

    Two passes over the same enumeration. The first counts invariants
    (`_closed_subsets`); the second hashes the `_structure` of each subset
    whose invariant min_support subsets share, once, to its head's index.
    Isomorphic structures have equal invariants, so a head is compared
    only with the classes already formed in its invariant's bucket, and
    merges into the one its structure embeds in (`_embeds`): equal
    invariants give equal profiles, so an embedding is an isomorphism.

    The proof: when a subset of a supported class less one node (its mask
    with one bit dropped) is a subset of a supported class, that class
    embeds in the larger subset's class by the identity map, since names
    are equal and a subject that was the removed node is blank, which any
    subject allows. A mask names different nodes in different nets, so
    subsets are looked up per net, each mask mapping to its head index.
    """
    shape_index: dict[tuple, int] = {}
    counted = []
    for net in nets:
        ids, rows = _bit_rows(net)
        counted.append((net, ids, rows, _closed_subsets(rows, shape_index, max_nodes)))
    inv_count = Counter(inv for *_, closed in counted for _, inv in closed)
    index: dict[tuple, int] = {}   # structure -> its head's index
    heads = []   # [count, invariant, net, ids, mask, structure]
    founds = []   # per net: each kept subset's mask -> its head's index
    for net, ids, rows, closed in counted:
        found = {}
        for sub, inv in closed:
            if inv_count[inv] >= min_support:
                structure = _structure(rows, sub)
                h = found[sub] = index.setdefault(structure, len(heads))
                if h == len(heads):
                    heads.append([0, inv, net, ids, sub, structure])
                heads[h][0] += 1
        founds.append(found)

    classes = []   # [support, head index]
    class_of = []   # head index -> class index
    buckets = {}   # invariant -> the indices of its classes
    for h, (count, inv, *_, structure) in enumerate(heads):
        bucket = buckets.setdefault(inv, [])
        c = next((c for c in bucket if _embeds(structure, heads[classes[c][1]][5])), None)
        if c is None:
            c = len(classes)
            bucket.append(c)
            classes.append([0, h])
        classes[c][0] += count
        class_of.append(c)

    supported = [support >= min_support for support, _ in classes]
    proven = set()   # heads of subsets one node short of a supported class's subset
    for found in founds:
        for sub, h in found.items():
            if supported[class_of[h]]:
                proven.update([found.get(sub ^ low) for low in _bits(sub)])
    proven = {class_of[h] for h in proven if h is not None}
    result = []
    for c, (support, h) in enumerate(classes):
        if supported[c]:
            _, _, net, ids, sub, structure = heads[h]
            result.append((support, net, [ids[low.bit_length() - 1] for low in _bits(sub)],
                           None if c in proven else structure))
    return result


def extract_pattern(net: Net, nodes) -> Net:
    """Value-free copy of a subnet: names and shape kept, values wildcarded.

    Subjects pointing outside the subset are blanked; bookkeeping
    property names are dropped. Every node must be in the net
    (UnknownNode), and every action's target in the subset, as in every
    subset mining canonicalises (BoundaryViolation).
    """
    nodes = set(nodes)
    for nid in sorted(nodes):
        rec = net.node(nid)
        if isinstance(rec, ActionRecord) and rec.target not in nodes:
            raise BoundaryViolation(f"action {nid} has its target {rec.target} outside the pattern")
    pattern = Net()
    _copy_structure(net, sorted(nodes), pattern)
    return pattern


def _profile(pattern) -> frozenset:
    """Counts an embedding into another pattern cannot exceed: objects,
    actions, actions with a subject, and nodes of each kind per name; a
    count c of an item is the pairs (item, 1) to (item, c), so one
    profile fits under another exactly when it is a subset of it. It
    reads a structure (`_structure_of`), or a pattern Net's structure."""
    if isinstance(pattern, Net):
        pattern = _structure_of(pattern, pattern.node_ids())
    counts = {}
    pairs = []
    for node in pattern:
        items = [node[0], *[(node[0], name) for name in node[1]]]
        if len(node) == 4 and node[2] is not None:
            items.append("subject")
        for item in items:
            counts[item] = k = counts.get(item, 0) + 1
            pairs.append((item, k))
    return frozenset(pairs)


def _embeds(small: tuple, big: tuple, image: dict | None = None) -> bool:
    """Whether structure `small`'s pattern embeds in `big`'s, as
    `find_matches(..., limit=1)` on their Nets decides. The first action
    that `image` (position to position) lacks, else its first object, goes
    on each big node of its kind, names and subject in turn, an action
    with its ends, so links hold in any order of positions."""
    image = {} if image is None else image
    p = max((p for p in range(len(small)) if p not in image), key=lambda p: len(small[p]),
            default=None)
    if p is None:
        return True
    node = small[p]
    for q, other in enumerate(big):
        if len(other) != len(node) or len(node) == 4 and node[2] is not None and other[2] is None:
            continue   # the other kind, or no subject for node's
        placed = []
        for s, b in [(p, q)] if len(node) == 2 else [(p, q), (node[3], other[3]),
                                                      (node[2], other[2])]:
            if s is None or image.get(s) == b:   # a blank subject, or an end placed
                continue
            if s in image or b in image.values() or not set(small[s][1]).issubset(big[b][1]):
                break
            image[s] = b
            placed.append(s)
        else:
            if _embeds(small, big, image):
                return True
        for s in placed:
            del image[s]
    return False


@dataclass
class ConceptTemplate:
    """A value-free structural pattern with its occurrence count.

    `root` is the pattern node an instance aligns with when shaping;
    `id` is the concept's node id once registered in a net.
    """

    pattern: Net
    root: NodeId
    support: int = 0
    id: NodeId | None = None


def mine_concepts(nets, min_support: int = 2, max_pattern_nodes: int = 4):
    """Repeated value-free patterns across the given nets.

    Returns maximal templates only, ordered by support descending and
    canonical form ascending. Support counts distinct occurrence node
    sets whose extracted structure matches the template exactly.

    Every closed subset's cheap isomorphism invariant is counted first;
    only subsets whose invariant reaches min_support are grouped into
    classes by their id-order structure, structures of one invariant
    merging where one embeds in the other (`_supported_classes`). A
    supported class that a one-node step proves embedded in another is
    dropped; the maximality test runs only among the classes left
    unproven, on their structures (`_embeds`), and only a template
    returned is canonicalised, for its key and node order, and built.
    """
    if min_support < 2:
        raise ValueError("min_support must be at least 2")
    if not 1 <= max_pattern_nodes <= 8:
        raise ValueError("max_pattern_nodes must be between 1 and 8")
    unproven = [cls for cls in _supported_classes(nets, min_support, max_pattern_nodes) if cls[3]]

    # maximal only: drop a class that embeds in another. A proven class
    # does, into a larger class; following proofs upward through ever
    # larger classes ends at an unproven one, so by transitivity a class
    # that embeds in any other embeds in an unproven class other than
    # itself. The search runs on unproven classes' structures, and only
    # where one profile is below the other: an embedding between equal
    # profiles is an isomorphism, which two classes rule out.
    profiles = [_profile(structure) for *_, structure in unproven]
    kept = []   # (-support, key, net, canonical order)
    for (support, net, members, structure), profile in zip(unproven, profiles):
        if not any(profile < other and _embeds(structure, bigger[3])
                   for bigger, other in zip(unproven, profiles)):
            key, positions = _canonical_view(_structure_view(structure))
            kept.append((-support, key, net, [members[p] for p in positions]))

    templates = []   # no two keys are equal: (-support, key) orders them fully
    for support, _, net, order in sorted(kept, key=lambda cls: cls[:2]):
        _copy_structure(net, order, pattern := Net())
        templates.append(ConceptTemplate(pattern=pattern, support=-support,
                                         root=min(pattern.objects or pattern.actions)))
    return templates


def register_concept(net: Net, template: ConceptTemplate) -> NodeId:
    """Insert a template's pattern into a net as ordinary concept nodes.

    The returned root id is what is-a edges point at; support rides along
    as a bookkeeping property of the root, which must be an object of the
    pattern (UnknownConcept otherwise, with the net unchanged).
    """
    pattern = template.pattern
    if template.root not in pattern.objects:
        raise UnknownConcept(f"concept root {template.root} is not an object of its pattern")
    root = _copy_structure(pattern, pattern.node_ids(), net)[template.root]
    net.set_property(root, SUPPORT_PROP, Value.num(template.support))
    template.id = root
    return root


def concept_of(net: Net, concept_id: NodeId) -> ConceptTemplate:
    """Reconstruct a template from its registered subnet.

    The pattern is the structural connected component around the root;
    is-a edges are not structural links, so instances stay outside.
    Shaping reads that component in place and builds no template.
    """
    if concept_id not in net.objects:
        raise UnknownConcept(f"no concept object {concept_id}")
    idmap = _copy_structure(net, sorted(_bfs_order(net, concept_id)), pattern := Net())
    sp = net.objects[concept_id].properties.get(SUPPORT_PROP)
    return ConceptTemplate(
        pattern=pattern, root=idmap[concept_id], id=concept_id,
        support=int(sp.value.data) if sp is not None and sp.value.kind is KIND_NUM else 0,
    )


# ------------------------------------------------------------- shaping

def _max_anchored_match(pattern: Net, root: NodeId, net: Net,
                        instance: NodeId, component: list | None = None) -> dict:
    """Largest partial match of the pattern with root pinned to instance.

    Backtracking over pattern actions: each step decides the first
    undecided action, in breadth-first order from the root, that has a
    mapped endpoint. It maps onto one of its `_images`, and its other
    endpoint, if unmapped, is bound to that image's endpoint in the same
    step, so no object is matched on its own; or it is skipped, which is
    tried last. When no such action is left, the match is complete. So
    every connected partial match is reached, and the largest (the first
    found, candidates tried in id order) is returned. Nothing prunes the
    search: its cost can grow exponentially in the number of actions.
    `component` is the root's `_bfs_order` in the pattern, if the caller
    has walked it already.
    """
    actions = pattern.actions
    order = [p for p in component or _bfs_order(pattern, root) if p in actions]

    best: dict = {}

    def dfs(mapping: dict, used: set, skipped: set) -> None:
        nonlocal best
        for p in order:
            prec = actions[p]
            if p not in mapping and p not in skipped and (
                    prec.target in mapping or prec.subject in mapping):
                break
        else:
            if len(mapping) > len(best):
                best = dict(mapping)
            return
        for t in _images(pattern, net, mapping, p):
            if t in used or not _compat(pattern, net, p, t):
                continue
            trec = net.actions[t]
            bound = {p: t}   # t agrees with every mapped endpoint; bind the other
            for q, w in ((prec.target, trec.target), (prec.subject, trec.subject)):
                if q is not None and q not in mapping:
                    if w in used or not _compat(pattern, net, q, w):
                        break
                    bound[q] = w
            else:
                mapping.update(bound)
                used.update(bound.values())
                dfs(mapping, used, skipped)
                for q, w in bound.items():
                    del mapping[q]
                    used.discard(w)
        skipped.add(p)   # skipping p is always an option
        dfs(mapping, used, skipped)
        skipped.discard(p)

    try:
        dfs({root: instance}, {instance}, set())
    finally:
        del dfs   # a nested function that calls itself is a cycle until dropped
    return best


def shape(net: Net, instance: NodeId, concept) -> list:
    """Give an instance the structure its concept promises.

    The pattern is the registered concept's component, read in place,
    its root pinned to the instance; a `ConceptTemplate` is read through
    its `id`. Pattern nodes with no counterpart around the instance are
    created with inferred provenance and unset values; already present
    structure is never touched, so shaping twice creates nothing.
    """
    cid = concept if isinstance(concept, int) else concept.id
    if cid not in net.objects or (instance, cid) not in net.isa_edges:
        raise UnknownConcept(f"no concept object {cid} with an is-a edge from {instance}")
    if instance not in net.objects:
        raise UnknownNode(f"no object {instance}")
    component = _bfs_order(net, cid)   # walked once, for the match and the nodes it leaves
    mapping = _max_anchored_match(net, cid, net, instance, component)
    missing = [p for p in sorted(component) if p not in mapping]
    _copy_structure(net, missing, net, mapping, provenance=INFERRED)
    return sorted(mapping[p] for p in missing)   # ids rise: creation order


def shape_all(net: Net, instance: NodeId) -> tuple[list, KrnError | None]:
    """Shape an instance from each of its is-a edges, in edge order.

    A failing edge does not stop the others. Returns the created ids
    and the first error met, or None.
    """
    created: list[NodeId] = []
    error = None
    for inst, cid in list(net.isa_edges):
        if inst == instance:
            try:
                created.extend(shape(net, instance, cid))
            except KrnError as exc:
                error = error or exc
    return created, error


# ------------------------------------------------------------- queries

class Answer(enum.Enum):
    YES_ASSERTED = "yes-asserted"
    YES_INFERRED = "yes-inferred"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Fragment:
    """A condition on an anchor: property `name` tested by `op`, a
    comparison operator against `value` or "present", or with `op`
    "part" an outgoing action to another object that carries `name`."""

    name: str
    op: str
    value: Value | None = None


_NUM_TOKEN = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")
# the leftmost operator, the longest at its place
_PREDICATE_OP = re.compile(r"[=!<>]=|[<>]")


def parse_literal(tok: str) -> Value:
    tok = tok.strip()
    if not tok:
        raise MalformedCondition("empty literal")
    if tok[0] in "=!<>":
        raise MalformedCondition(f"second operator in literal {tok!r}")
    if tok[0] == '"':   # exactly one script string: no other token, no comment
        try:
            tokens = _lex(tok)
        except ScriptParseError as exc:
            raise MalformedCondition(f"bad string literal {tok!r}: {exc.message}") from None
        if len(tokens) != 2 or tokens[0].type != "string" or tokens[1].column <= len(tok):
            raise MalformedCondition(f"literal {tok!r} is not one string")
        return Value.text(tokens[0].value)
    if tok == "true":
        return Value.truth(True)
    if tok == "false":
        return Value.truth(False)
    if _NUM_TOKEN.match(tok):
        return Value.num(float(tok))
    return Value.text(tok)


def parse_fragment(text: str) -> Fragment:
    """Parse the fragment mini-language.

    Forms: `name` (property present), `name OP literal` (value
    predicate), `has name` (connected part carrying that name).
    """
    src = text.strip()
    if src.startswith("has ") or src.startswith("has\t"):
        name = src[4:].strip()
        if not _NAME_RE.match(name):
            raise MalformedCondition(f"bad part name {name!r}")
        return Fragment(name, "part")
    op = _PREDICATE_OP.search(src)
    if op:
        name = src[:op.start()].strip()
        if not _NAME_RE.match(name):
            raise MalformedCondition(f"bad property name {name!r}")
        return Fragment(name, op[0], parse_literal(src[op.end():]))
    if not _NAME_RE.match(src):
        raise MalformedCondition(f"bad fragment {text!r}")
    return Fragment(src, "present")


def _compare(op: str, left: Value, right: Value) -> bool:
    if op == "==":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    return left.kind is KIND_NUM and right.kind is KIND_NUM and ORDERINGS[op](left.data, right.data)


def fragment_state(net: Net, anchor: NodeId, frag: Fragment) -> tuple[bool | None, bool]:
    """Judge a fragment at an anchor object: (verdict, inferred).

    None (undetermined) when the net lacks the anchor, or a property test
    meets an absent property or a comparison an unset one (a stub is
    unset); False at an action anchor, on a failed comparison, or when a
    part has no witness: an outgoing action to another object that carries
    the name; else True. `inferred`: the anchor or the property is
    inferred, or every witness has an inferred anchor, action or part.
    """
    rec = net.objects.get(anchor)
    if rec is None:
        return (False if anchor in net.actions else None), False
    if frag.op == "part":
        # one flag per witness: whether its anchor, action or part is inferred
        flags = [INFERRED in (rec.provenance, act.provenance, net.objects[act.target].provenance)
                 for act in (net.actions[aid] for aid in rec.outgoing)
                 if act.target != anchor and frag.name in net.objects[act.target].properties]
        return bool(flags), bool(flags) and all(flags)
    prop = rec.properties.get(frag.name)
    if prop is None or frag.op != "present" and prop.value.is_unset:
        return None, False
    if frag.op != "present" and not _compare(frag.op, prop.value, frag.value):
        return False, False
    return True, INFERRED in (rec.provenance, prop.provenance)


def query_has(net: Net, instance: NodeId, fragment) -> Answer:
    """Tri-state structural query with shaping on demand.

    A string fragment uses the mini-language; a bare name is tried both
    as a direct property and as a connected part. When nothing matches
    but the instance carries is-a edges, shaping runs once and the
    query retries.
    """
    if instance not in net.objects:
        return Answer.UNKNOWN
    frags = [fragment]
    if isinstance(fragment, str):
        frags = [parse_fragment(fragment)]
        if frags[0].op == "present":   # a bare name
            frags.append(Fragment(frags[0].name, "part"))

    def best_answer() -> Answer:
        best = Answer.UNKNOWN
        for frag in frags:
            verdict, inferred = fragment_state(net, instance, frag)
            if verdict is True:
                if not inferred:
                    return Answer.YES_ASSERTED
                best = Answer.YES_INFERRED
        return best

    answer = best_answer()
    if answer is Answer.UNKNOWN and shape_all(net, instance)[0]:
        answer = best_answer()
    return answer
