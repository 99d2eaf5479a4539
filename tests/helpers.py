"""Shared fixture builders and random generators for the test suite."""

from __future__ import annotations

import itertools
import random

from krn import (
    ConceptTemplate,
    Lexicon,
    Net,
    Provenance,
    SensorAddress,
    SensorSignal,
    Value,
    concept_of,
    register_concept,
)
from krn.errors import UnknownConcept
from krn.reasoning import _bit_rows, _closed_subsets, _copy_structure, _max_anchored_match


# ------------------------------------------------------------ vignettes

def wall_net():
    """A green wall and somebody painting it black."""
    net = Net()
    man = net.add_object([])
    wall = net.add_object([("colour", Value.text("green"))])
    paint = net.add_action(man, wall, 'set object.colour = "black";')
    return net, man, wall, paint


def person_net(leg_length: float, arm_length: float) -> Net:
    """A person with a head, arms, and legs; part sizes vary per person."""
    net = Net()
    person = net.add_object([])
    head = net.add_object([("head", Value.truth(True))])
    arms = net.add_object([("arm", Value.truth(True)), ("length", Value.num(arm_length))])
    legs = net.add_object([("leg", Value.truth(True)), ("length", Value.num(leg_length))])
    net.add_action(person, head)
    net.add_action(person, arms)
    net.add_action(person, legs)
    return net


def person_pattern() -> tuple[Net, int]:
    """The value-free person structure; returns (pattern, root id)."""
    pattern = Net()
    person = pattern.add_object([])
    head = pattern.add_object([("head", Value.unset())])
    arms = pattern.add_object([("arm", Value.unset()), ("length", Value.unset())])
    legs = pattern.add_object([("leg", Value.unset()), ("length", Value.unset())])
    pattern.add_action(person, head)
    pattern.add_action(person, arms)
    pattern.add_action(person, legs)
    return pattern, person


def peter_net():
    """A bare Peter plus a registered man concept; returns (net, peter, concept id)."""
    net = Net()
    peter = net.add_object([])
    pattern, root = person_pattern()
    template = ConceptTemplate(pattern=pattern, root=root, support=2)
    concept_id = register_concept(net, template)
    net.add_isa(peter, concept_id)
    return net, peter, concept_id


def tv_net():
    """A person wired to a 7-node television subnet through press and show.

    Returns (net, inside set, press id, show id, person id).
    """
    net = Net()
    person = net.add_object([("alive", Value.truth(True))])
    button = net.add_object([("button", Value.truth(True))])
    circuit1 = net.add_object([("circuit", Value.num(1))])
    circuit2 = net.add_object([("circuit", Value.num(2))])
    screen = net.add_object([("screen", Value.truth(True))])
    conducts = net.add_action(button, circuit1)
    powers = net.add_action(circuit1, circuit2)
    drives = net.add_action(circuit2, screen)
    press = net.add_action(person, button)
    show = net.add_action(screen, person)
    inside = {button, circuit1, circuit2, screen, conducts, powers, drives}
    return net, inside, press, show, person


def chameleon_signals():
    grey = SensorSignal(SensorAddress.of("eye", "ch1"), b"\x80\x80\x80")
    green = SensorSignal(SensorAddress.of("eye", "ch1"), b"\x00\xff\x00")
    return grey, green


# ------------------------------------------------------- random material

_WORDS = [
    "colour", "position", "length", "width", "mass", "shade", "grip",
    "edge", "leg", "arm", "head", "wing", "tail", "speed", "warmth",
]

_TEXT_POOL = [
    "green", "black", "wood", "leather", 'quo"te', "multi\nline",
    "tab\tseparated", "back\\slash", "émeraude", "緑", "",
]


def structure_net(rng: random.Random, objects: int, actions: int, names) -> Net:
    """A value-free net for matching: blank subjects, self-loops, and
    subsets of `names` on objects and actions."""
    net = Net()
    objs = [net.add_object([(n, Value.unset()) for n in names if rng.random() < 0.4])
            for _ in range(objects)]
    for _ in range(actions):
        target = rng.choice(objs)
        roll = rng.random()
        subject = None if roll < 0.25 else target if roll < 0.4 else rng.choice(objs)
        net.add_action(subject, target, None,
                       [(n, Value.unset()) for n in names if rng.random() < 0.25])
    return net


def closed_subsets(net: Net, max_nodes: int, shape_index: dict | None = None) -> list:
    """The miner's closed subsets of net, in its order, each as the
    frozenset of its node ids with its invariant."""
    ids, rows = _bit_rows(net)
    found = _closed_subsets(rows, {} if shape_index is None else shape_index, max_nodes)
    return [(frozenset(nid for i, nid in enumerate(ids) if sub >> i & 1), inv)
            for sub, inv in found]


def closed_subsets_unpruned(rows: list, shape_index: dict, max_nodes: int) -> list:
    """`reasoning._closed_subsets` as it was before it learned to stop
    growing a subset that can no longer close within max_nodes: ESU grows
    every connected subset up to max_nodes and keeps the closed ones."""
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

    def grow(members: list, sub: int, ext: int, nbh: int, needed: int, above: int) -> None:
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            new_sub, new_need, new_members = sub | low, needed | need[w], members + [w]
            if not new_need & ~new_sub:
                closed.append((new_sub, tuple(sorted(
                    base[i] | (one[i] & new_sub).bit_count() << 4 | (ins[i] & new_sub).bit_count()
                    for i in new_members))))
            if len(new_members) < max_nodes:
                grow(new_members, new_sub, ext | nbr[w] & above & ~nbh, nbh | nbr[w],
                     new_need, above)

    for v in range(n):
        if not need[v]:
            closed.append((1 << v, (base[v],)))
        if max_nodes > 1:
            grow([v], 1 << v, nbr[v] & -(2 << v), nbr[v] | 1 << v, need[v], -(2 << v))
    return closed


def shape_by_template(net: Net, instance: int, concept_id: int) -> list:
    """Shaping as it was done from a rebuilt template: `concept_of`, the
    largest anchored match of its value-free pattern, and a copy of what
    the match leaves out."""
    template = concept_of(net, concept_id)
    if (instance, concept_id) not in net.isa_edges:
        raise UnknownConcept(f"no is-a edge from {instance} to concept {concept_id}")
    pattern = template.pattern
    mapping = _max_anchored_match(pattern, template.root, net, instance)
    missing = [p for p in pattern.node_ids() if p not in mapping]
    _copy_structure(pattern, missing, net, mapping, provenance=Provenance.INFERRED)
    return sorted(mapping[p] for p in missing)


def star_net(legs: int) -> Net:
    """A hub object with an action to each of `legs` bare part objects."""
    net = Net()
    hub = net.add_object([])
    for _ in range(legs):
        net.add_action(hub, net.add_object([]))
    return net


def chain_net(links: int) -> Net:
    """Objects o0 .. o_links, each acting on the next."""
    net = Net()
    prev = net.add_object([])
    for _ in range(links):
        nxt = net.add_object([])
        net.add_action(prev, nxt)
        prev = nxt
    return net


def refined_classes_reference(view: dict) -> dict:
    """Each node's class rank under colour refinement run until a round
    leaves every rank as it was: the loop the miner's certificate
    stopped with before it learned to stop early."""
    def rank(colors: dict) -> dict:
        index = {c: i for i, c in enumerate(sorted(set(colors.values())))}
        return {nid: index[c] for nid, c in colors.items()}

    ranks = rank({nid: node[:2] if node[0] == "o" else node[:2] + (node[2] is None,)
                  for nid, node in view.items()})
    for _ in range(len(view)):
        sig = {}
        for nid, (kind, _names, x, y) in view.items():
            if kind == "o":
                nb = [("out", ranks[a]) for a in x] + [("in", ranks[a]) for a in y]
            else:
                nb = [("tgt", ranks[y])] if x is None else [("subj", ranks[x]), ("tgt", ranks[y])]
            sig[nid] = (ranks[nid], tuple(sorted(nb)))
        new_ranks = rank(sig)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    return ranks


def canonical_view_reference(view: dict) -> tuple[str, list]:
    """The canonical (key, order) of a view by full refinement and a
    search over every order within the classes, single-node ones too."""
    if not view:
        return "", []
    ranks = refined_classes_reference(view)
    classes: dict[int, list] = {}
    for nid in sorted(view):
        classes.setdefault(ranks[nid], []).append(nid)

    def encode(order: list) -> str:
        pos = {nid: i for i, nid in enumerate(order)}
        node_parts, edge_parts = [], []
        for i, nid in enumerate(order):
            kind, names, subject, target = view[nid]
            node_parts.append(kind + "(" + ",".join(names) + ")")
            if kind == "a":
                subj = "-" if subject is None else str(pos[subject])
                edge_parts.append(f"{i}:s{subj}:t{pos[target]}")
        return "|".join(node_parts) + "#" + ";".join(edge_parts)

    orders = ([nid for group in combo for nid in group]
              for combo in itertools.product(*(itertools.permutations(classes[r])
                                                for r in sorted(classes))))
    return min((encode(order), order) for order in orders)


def rand_name(rng: random.Random, used=None) -> str:
    while True:
        name = rng.choice(_WORDS)
        if rng.random() < 0.4:
            name = f"{name}-{rng.randrange(100)}"
        if used is None or name not in used:
            return name


def rand_value(rng: random.Random, net: Net) -> Value:
    roll = rng.random()
    if roll < 0.35:
        return Value.num(round(rng.uniform(-100, 100), 3))
    if roll < 0.6:
        return Value.text(rng.choice(_TEXT_POOL))
    if roll < 0.75:
        return Value.truth(rng.random() < 0.5)
    if roll < 0.85 and net.objects:
        return Value.ref(rng.choice(sorted(net.objects)))
    if roll < 0.95:
        segs = tuple(rng.choice(["skin", "eye", "ear themal", "p7"])
                     for _ in range(rng.randrange(1, 4)))
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 6)))
        return Value.signal(SensorSignal(SensorAddress(segs), payload,
                                         rng.randrange(1000)))
    return Value.unset()


_SCRIPT_POOL = [
    'set object.colour = "black";',
    "set object.position = 1 + 2 * 3;",
    'if object.ready == true { set object.state = "go"; } else { set object.state = "wait"; }',
    "set self.speed = 2.5;\nset object.mass = 10 / 4;",
    "",
    "# only a comment\n",
]


def random_net(rng: random.Random, *, max_objects: int = 8,
               with_labels: bool = True) -> tuple[Net, Lexicon]:
    """A randomized net exercising every serializable feature."""
    net = Net()
    lexicon = Lexicon()
    n_objects = rng.randrange(1, max_objects + 1)
    for _ in range(n_objects):
        names: set[str] = set()
        props = []
        for _ in range(rng.randrange(0, 4)):
            name = rand_name(rng, names)
            names.add(name)
            props.append((name, rand_value(rng, net)))
        prov = Provenance.INFERRED if rng.random() < 0.15 else Provenance.ASSERTED
        net.add_object(props, provenance=prov)
    objects = sorted(net.objects)
    for _ in range(rng.randrange(0, max(2, n_objects))):
        target = rng.choice(objects)
        subject = rng.choice(objects) if rng.random() < 0.7 else None
        script = rng.choice(_SCRIPT_POOL) if rng.random() < 0.6 else None
        props = []
        if rng.random() < 0.3:
            props.append((rand_name(rng), rand_value(rng, net)))
        net.add_action(subject, target, script, props)
    # sensed signals through the public path
    for _ in range(rng.randrange(0, 3)):
        oid = rng.choice(objects)
        segs = tuple(rng.choice(["skin", "eye", "nerve-9"]) for _ in range(2))
        net.ingest_signal(oid, rand_name(rng),
                          SensorSignal(SensorAddress(segs), bytes([rng.randrange(256)])))
    # a goal-style reserved property
    if rng.random() < 0.4:
        net.set_property(rng.choice(objects), "goal:1",
                         Value.text("1 colour == black"))
    # occasional erasure so ids are not contiguous
    if len(net.objects) > 2 and rng.random() < 0.5:
        victim = rng.choice(sorted(net.objects))
        net.erase_node(victim)
    live = sorted(net.objects)
    for a, b in zip(live, live[1:]):
        if rng.random() < 0.3:
            net.add_isa(a, b)
    if with_labels and live:
        for _ in range(rng.randrange(0, 4)):
            node = rng.choice(live)
            lang = rng.choice(["en", "fr", "de", "zh-Hant"])
            lexicon.set_label(node, lang, rng.choice(_TEXT_POOL) or "thing")
    return net, lexicon


def kept_nets(memo) -> dict:
    """The nets a `store.ValueMemo` keeps, by source: {bytes: (net,
    lexicon, charge)}, in the order their sizes were first kept."""
    return {held[0].source: held for nets in memo.nets.values() for held in nets}
