"""`fragment_state` and `query_has` against a reference that judges each
fragment the way a pattern search does: it builds the fragment as a
pattern net, a nameless root alone or with one part that carries the
name, and keeps the unanchored `find_matches` results whose root is the
anchor. Since the root has no names, those are exactly the anchored
matches."""

import random

import pytest

from krn import (
    Answer,
    ConceptTemplate,
    Fragment,
    Net,
    Provenance,
    Value,
    find_matches,
    nets_equal,
    parse_fragment,
    query_has,
    register_concept,
)
from krn.core import ORDERINGS, Kind, PropertyRecord, PropLoad, values_equal
from krn.reasoning import fragment_state, shape_all

INFERRED = Provenance.INFERRED

_FORMS = [
    ("a", Fragment("a", "present")),
    ("c", Fragment("c", "present")),
    ("has a", Fragment("a", "part")),
    ("has b", Fragment("b", "part")),
    ("a == 1", Fragment("a", "==", Value.num(1))),
    ("a != 1", Fragment("a", "!=", Value.num(1))),
    ("a < 2", Fragment("a", "<", Value.num(2))),
    ("b >= 1", Fragment("b", ">=", Value.num(1))),
    ('b == "x"', Fragment("b", "==", Value.text("x"))),
    ("c != x", Fragment("c", "!=", Value.text("x"))),
]


def _value(rng: random.Random) -> Value:
    roll = rng.random()
    if roll < 0.4:
        return Value.num(rng.randint(0, 3))
    if roll < 0.6:
        return Value.text(rng.choice(["x", "y"]))
    return Value.truth(True) if roll < 0.7 else Value.unset()


def _net(rng: random.Random) -> tuple[Net, list]:
    """A net with inferred and asserted nodes and values, unset and stub
    values, blank subjects and self-loops, a concept some objects are
    instances of, and maybe an erased object; and the ids to judge at."""
    net = Net()

    def provenance():
        return INFERRED if rng.random() < 0.3 else Provenance.ASSERTED

    def names():
        return [(n, _value(rng)) for n in "abc" if rng.random() < 0.4]

    objects = [net.add_object(names(), provenance=provenance()) for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 8)):
        target = rng.choice(objects)
        roll = rng.random()
        subject = None if roll < 0.2 else target if roll < 0.4 else rng.choice(objects)
        net.add_action(subject, target, None, names()[:1], provenance=provenance())
    for nid in net.node_ids():
        properties = net.node(nid).properties
        for name, prop in list(properties.items()):
            if rng.random() < 0.2:
                properties[name] = PropertyRecord(name, Value.unset(), None, PropLoad.STUB)
            elif rng.random() < 0.3:
                net.set_property(nid, name, prop.value, provenance=INFERRED)
    if rng.random() < 0.5:
        pattern = Net()
        root = pattern.add_object([])
        pattern.add_action(root, pattern.add_object([(rng.choice("ab"), Value.unset())]))
        concept = register_concept(net, ConceptTemplate(pattern, root))
        for obj in objects:
            if rng.random() < 0.5:
                net.add_isa(obj, concept)
    if len(objects) > 1 and rng.random() < 0.4:
        net.erase_node(rng.choice(objects))
    return net, sorted({*net.node_ids(), *objects, 0, 999})


def _reference_state(net: Net, anchor, frag: Fragment):
    if anchor not in net.objects and anchor not in net.actions:
        return None, False
    pattern = Net()
    root = pattern.add_object([])
    if frag.op == "part":
        pattern.add_action(root, pattern.add_object([(frag.name, Value.unset())]))
    verdict = False
    for m in find_matches(pattern, net):
        if m[root] != anchor:
            continue
        inferred = any(net.node(t).provenance is INFERRED for t in m.values())
        if frag.op != "part":
            prop = net.objects[anchor].properties.get(frag.name)
            if prop is None or frag.op != "present" and prop.value.is_unset:
                verdict = None if verdict is False else verdict
                continue
            left, right = prop.value, frag.value
            if frag.op == "==" and not values_equal(left, right) \
                    or frag.op == "!=" and values_equal(left, right) \
                    or frag.op in ORDERINGS and not (
                        left.kind is Kind.NUM and right.kind is Kind.NUM
                        and ORDERINGS[frag.op](left.data, right.data)):
                continue
            inferred = inferred or prop.provenance is INFERRED
        if not inferred:
            return True, False
        verdict = True
    return verdict, verdict is True


def _reference_has(net: Net, instance, frag: Fragment) -> Answer:
    if instance not in net.objects:
        return Answer.UNKNOWN
    frags = [frag] + ([Fragment(frag.name, "part")] if frag.op == "present" else [])

    def best() -> Answer:
        states = [_reference_state(net, instance, f) for f in frags]
        if (True, False) in states:
            return Answer.YES_ASSERTED
        return Answer.YES_INFERRED if (True, True) in states else Answer.UNKNOWN

    answer = best()
    if answer is Answer.UNKNOWN and shape_all(net, instance)[0]:
        answer = best()
    return answer


@pytest.mark.parametrize("text, frag", _FORMS)
def test_a_fragment_reads_as_its_condition(text, frag):
    assert parse_fragment(text) == frag


def test_fragments_judge_as_the_pattern_search_does():
    rng = random.Random(2929)
    seen = set()
    for _ in range(80):
        seed = rng.randrange(2**32)
        net, ids = _net(random.Random(seed))
        for text, frag in _FORMS:
            for anchor in ids:
                state = fragment_state(net, anchor, frag)
                assert state == _reference_state(net, anchor, frag), (text, anchor)
                seen.add(state)
                if any(anchor == inst for inst, _ in net.isa_edges):   # it may be shaped
                    mine, theirs = _net(random.Random(seed))[0], _net(random.Random(seed))[0]
                else:
                    mine = theirs = net
                answer = query_has(mine, anchor, text)
                assert answer is _reference_has(theirs, anchor, frag), (text, anchor)
                seen.add(answer)
                assert mine is theirs or nets_equal(mine, theirs)
    assert seen == {(True, False), (True, True), (False, False), (None, False), *Answer}
