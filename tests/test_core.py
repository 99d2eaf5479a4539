import copy
import dataclasses
import random

import pytest

from krn import Net, PropLoad, Provenance, ScriptRef, SensorAddress, SensorSignal, Value, nets_equal
from krn.core import ObjectRecord, PropertyRecord
from krn.errors import (
    BipartiteViolation,
    DuplicatePropertyName,
    InvalidName,
    UnknownNode,
    UnknownProperty,
)


def test_create_net_empty():
    net = Net()
    assert len(net.objects) == 0
    assert len(net.actions) == 0
    assert net.validate_bipartite().ok


def test_sequential_id_allocation():
    net = Net()
    ids = [net.add_object([]) for _ in range(3)]
    assert ids == [1, 2, 3]


def test_add_object_with_properties():
    net = Net()
    wall = net.add_object([("colour", Value.text("green"))])
    assert net.get_property(wall, "colour") == Value.text("green")
    prop = net.objects[wall].properties["colour"]
    assert prop.provenance is Provenance.ASSERTED


def test_identical_objects_get_distinct_ids():
    net = Net()
    props = [("seat", Value.text("wood")), ("legs", Value.num(4))]
    a = net.add_object(props)
    b = net.add_object(props)
    assert a != b
    assert net.objects[a].properties.keys() == net.objects[b].properties.keys()


def test_duplicate_property_name_rejected():
    net = Net()
    with pytest.raises(DuplicatePropertyName):
        net.add_object([("x", Value.num(1)), ("x", Value.num(2))])


def test_bad_property_name_rejected():
    net = Net()
    oid = net.add_object([])
    for bad in ("Colour", "9lives", "", "white space", "semi;colon"):
        with pytest.raises(InvalidName):
            net.set_property(oid, bad, Value.num(1))
    # reserved goal prefix is allowed
    net.set_property(oid, "goal:1", Value.text("1 colour == black"))
    net.set_property(oid, "antigoal:2", Value.text("1 broken == true"))


def test_add_action_wires_symmetry():
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    paint = net.add_action(man, wall)
    assert net.objects[man].outgoing == [paint]
    assert net.objects[wall].incoming == [paint]
    assert net.actions[paint].subject == man
    assert net.actions[paint].target == wall
    assert net.validate_bipartite().ok


def test_blank_subject_action():
    net = Net()
    chair = net.add_object([])
    act = net.add_action(None, chair)
    assert net.actions[act].subject is None
    assert net.objects[chair].incoming == [act]
    assert net.validate_bipartite().ok


def test_action_endpoints_must_be_objects():
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    paint = net.add_action(man, wall)
    with pytest.raises(BipartiteViolation):
        net.add_action(paint, wall)
    with pytest.raises(BipartiteViolation):
        net.add_action(man, paint)
    with pytest.raises(UnknownNode):
        net.add_action(man, 999)


def test_action_properties():
    net = Net()
    snail = net.add_object([])
    act = net.add_action(None, snail, None, [("speed", Value.num(2.0))])
    assert net.get_property(act, "speed") == Value.num(2.0)


def test_set_property_overwrites():
    net = Net()
    wall = net.add_object([])
    net.set_property(wall, "colour", Value.text("green"))
    net.set_property(wall, "colour", Value.text("black"))
    assert net.get_property(wall, "colour") == Value.text("black")
    assert len(net.objects[wall].properties) == 1


def test_erase_property_and_re_add():
    net = Net()
    wall = net.add_object([("colour", Value.text("green"))])
    net.erase_property(wall, "colour")
    with pytest.raises(UnknownProperty):
        net.get_property(wall, "colour")
    with pytest.raises(UnknownProperty):
        net.erase_property(wall, "colour")
    net.set_property(wall, "colour", Value.text("red"))
    assert net.get_property(wall, "colour") == Value.text("red")


def test_erase_object_cascades_to_actions():
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    paint = net.add_action(man, wall)
    net.erase_node(wall)
    assert paint not in net.actions
    assert net.objects[man].outgoing == []
    assert net.validate_bipartite().ok


def test_erase_action_is_local():
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    paint = net.add_action(man, wall)
    net.erase_node(paint)
    assert man in net.objects and wall in net.objects
    assert net.objects[man].outgoing == []
    assert net.objects[wall].incoming == []
    assert net.validate_bipartite().ok


def test_erase_unknown_node():
    net = Net()
    with pytest.raises(UnknownNode):
        net.erase_node(42)


def test_erased_ids_never_reused():
    net = Net()
    a = net.add_object([])
    net.erase_node(a)
    b = net.add_object([])
    assert b > a


def test_ingest_signal_sets_sensed_property():
    net = Net()
    chameleon = net.add_object([])
    sig = SensorSignal(SensorAddress.of("eye", "ch1"), b"\x80")
    net.ingest_signal(chameleon, "colour", sig)
    prop = net.objects[chameleon].properties["colour"]
    assert prop.provenance is Provenance.SENSED
    assert prop.value.data.captured_at > 0


def test_signal_identity_is_origin_plus_payload():
    same = b"\xff\x01"
    s1 = SensorSignal(SensorAddress.of("skin", "p7"), same)
    s2 = SensorSignal(SensorAddress.of("skin", "p8"), same)
    s3 = SensorSignal(SensorAddress.of("skin", "p7"), same, captured_at=99)
    assert s1 != s2
    assert s1 == s3  # capture time does not participate
    assert s1 != SensorSignal(SensorAddress.of("skin", "p7"), b"\xff\x02")


def test_same_payload_different_origins_distinct_values():
    net = Net()
    a = net.add_object([])
    b = net.add_object([])
    net.ingest_signal(a, "warmth", SensorSignal(SensorAddress.of("skin", "p7"), b"hot"))
    net.ingest_signal(b, "warmth", SensorSignal(SensorAddress.of("skin", "p8"), b"hot"))
    va = net.get_property(a, "warmth")
    vb = net.get_property(b, "warmth")
    assert va != vb


def test_empty_payload_is_legal():
    net = Net()
    a = net.add_object([])
    net.ingest_signal(a, "silence", SensorSignal(SensorAddress.of("ear"), b""))
    assert net.get_property(a, "silence").data.payload == b""


def test_sensed_provenance_requires_signal_kind():
    net = Net()
    a = net.add_object([])
    with pytest.raises(InvalidName):
        net.set_property(a, "colour", Value.text("green"), Provenance.SENSED)


def test_sensor_address_validation():
    with pytest.raises(InvalidName):
        SensorAddress(())
    with pytest.raises(InvalidName):
        SensorAddress(("", "x"))
    with pytest.raises(InvalidName):
        SensorAddress(("a" * 1025,))


def test_validate_detects_backdoor_bipartite_violation():
    net = Net()
    wall = net.add_object([])
    a1 = net.add_action(None, wall)
    a2 = net.add_action(None, wall)
    net.actions[a2].subject = a1  # test-only corruption
    report = net.validate_bipartite()
    assert not report.ok
    assert any(v.kind == "bipartite-violation" for v in report.violations)


def test_validate_detects_symmetry_break():
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    a = net.add_action(man, wall)
    net.objects[man].outgoing.append(a)  # duplicate entry, no matching action
    report = net.validate_bipartite()
    assert any(v.kind == "symmetry-break" for v in report.violations)

    net2 = Net()
    m2 = net2.add_object([])
    w2 = net2.add_object([])
    a2 = net2.add_action(m2, w2)
    net2.objects[m2].outgoing.remove(a2)
    report2 = net2.validate_bipartite()
    assert any(v.kind == "symmetry-break" for v in report2.violations)


def test_validate_detects_dangling_reference():
    net = Net()
    wall = net.add_object([])
    a = net.add_action(None, wall)
    net.actions[a].target = 777
    report = net.validate_bipartite()
    assert any(v.kind == "dangling-ref" for v in report.violations)


@pytest.mark.parametrize("corrupt, kind, names", [
    # an id both object and action
    (lambda net, man, act, wall: net.objects.update({act: ObjectRecord(act)}),
     "bipartite-violation", ("act",)),
    # a target whose incoming list names the action twice
    (lambda net, man, act, wall: net.objects[wall].incoming.append(act),
     "symmetry-break", ("wall", "act")),
    # an object list that names an object
    (lambda net, man, act, wall: net.objects[man].outgoing.append(wall),
     "bipartite-violation", ("man", "wall")),
    # an object list that names a missing action
    (lambda net, man, act, wall: net.objects[wall].incoming.append(9),
     "dangling-ref", ("wall", 9)),
    # a sensed property that holds no signal
    (lambda net, man, act, wall: net.objects[wall].properties.update(
        x=PropertyRecord("x", Value.num(1), Provenance.SENSED)),
     "bad-provenance", ("wall",)),
    # an is-a edge with a missing end
    (lambda net, man, act, wall: net.isa_edges.append((man, 9)),
     "dangling-ref", ("man", 9)),
    # an action's sensed property that holds no signal
    (lambda net, man, act, wall: net.actions[act].properties.update(
        w=PropertyRecord("w", Value.num(1), Provenance.SENSED)),
     "bad-provenance", ("act",)),
])
def test_validate_reports_each_corruption_by_kind_and_nodes(corrupt, kind, names):
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    act = net.add_action(man, wall)
    corrupt(net, man, act, wall)
    ids = {"man": man, "act": act, "wall": wall}
    first = net.validate_bipartite().violations[0]
    assert (first.kind, first.nodes) == (kind, tuple(ids.get(n, n) for n in names))


def run_fuzz(seed: int, steps: int, net: Net | None = None) -> Net:
    """Random public-API mutations; invariants checked along the way."""
    rng = random.Random(seed)
    if net is None:
        net = Net()
    rejected = 0
    for step in range(steps):
        objects = sorted(net.objects)
        actions = sorted(net.actions)
        op = rng.random()
        if op < 0.3 or not objects:
            net.add_object([(f"p{rng.randrange(5)}", Value.num(rng.random()))]
                           if rng.random() < 0.5 else [])
        elif op < 0.5:
            target = rng.choice(objects)
            subject = rng.choice(objects) if rng.random() < 0.6 else None
            if actions and rng.random() < 0.25:
                # action-to-action wiring must always be rejected
                with pytest.raises((BipartiteViolation, UnknownNode)):
                    net.add_action(rng.choice(actions), target)
                rejected += 1
            else:
                net.add_action(subject, target)
        elif op < 0.7:
            nid = rng.choice(objects + actions)
            net.set_property(nid, f"p{rng.randrange(5)}", Value.num(rng.random()))
        elif op < 0.8:
            nid = rng.choice(objects + actions)
            rec = net.node(nid)
            if rec.properties:
                net.erase_property(nid, rng.choice(sorted(rec.properties)))
        elif op < 0.9:
            nid = rng.choice(objects + actions)
            net.erase_node(nid)
        else:
            oid = rng.choice(objects)
            net.ingest_signal(oid, "sense", SensorSignal(
                SensorAddress.of("skin", str(rng.randrange(4))),
                bytes([rng.randrange(256)]),
            ))
        if step % 1000 == 0:
            assert net.validate_bipartite().ok
    assert rejected > 0
    assert net.validate_bipartite().ok
    return net


def test_fuzz_public_api_preserves_invariants():
    net = run_fuzz(20260809, 3000)
    # explicit symmetry spot-check on the final net
    for oid, obj in net.objects.items():
        for aid in obj.outgoing:
            assert net.actions[aid].subject == oid
        for aid in obj.incoming:
            assert net.actions[aid].target == oid


def test_nets_equal_detects_differences():
    net = Net()
    wall = net.add_object([("colour", Value.text("green"))])
    other = Net()
    other.add_object([("colour", Value.text("green"))])
    assert nets_equal(net, other)
    other.set_property(wall, "colour", Value.text("black"))
    assert not nets_equal(net, other)


def _replaced(net, nid, name, **fields):
    props = net.node(nid).properties
    props[name] = dataclasses.replace(props[name], **fields)


def _ticked(net, nid, name):
    sig = net.node(nid).properties[name].value.data
    _replaced(net, nid, name,
              value=Value.signal(dataclasses.replace(sig, captured_at=sig.captured_at + 1)))


# each changes one field that nets_equal compares, and only that field, even
# where that leaves the net inconsistent: objects 1-3, actions 4 (1 -> 2,
# scripted, with a property), 5 (1 -> 3, scripted) and 6 (- -> 3)
_ONE_FIELD_CHANGED = {
    "object id": lambda net: net.add_object([]),
    "action id": lambda net: net.add_action(None, 2),
    "outgoing order": lambda net: net.objects[1].outgoing.reverse(),
    "incoming order": lambda net: net.objects[3].incoming.reverse(),
    "object load state": lambda net: _replaced(net, 1, "colour", load_state=PropLoad.STUB),
    "object provenance": lambda net: setattr(net.objects[2], "provenance", Provenance.INFERRED),
    "action load state": lambda net: setattr(net.actions[6], "script", ScriptRef(from_store=((1, 2), ()))),
    "action provenance": lambda net: setattr(net.actions[4], "provenance", Provenance.INFERRED),
    "action subject": lambda net: setattr(net.actions[5], "subject", None),
    "action target": lambda net: setattr(net.actions[4], "target", 3),
    "script text": lambda net: setattr(net.actions[5], "script", ScriptRef("set object.x = 3;")),
    "property name": lambda net: net.set_property(2, "mass", Value.num(1)),
    "property value": lambda net: _replaced(net, 4, "speed", value=Value.num(2.0)),
    "property provenance": lambda net: _replaced(net, 4, "speed", provenance=Provenance.INFERRED),
    "property load state": lambda net: _replaced(net, 4, "speed", load_state=PropLoad.STUB),
    "signal capture tick": lambda net: _ticked(net, 1, "touch"),
    "is-a edges": lambda net: net.add_isa(3, 1),
}


@pytest.mark.parametrize("change", sorted(_ONE_FIELD_CHANGED))
def test_nets_equal_tells_apart_nets_that_differ_in_one_field(change):
    net = Net()
    one = net.add_object([("colour", Value.text("green"))])
    two, three = net.add_object([]), net.add_object([])
    net.add_action(one, two, "set object.x = 1;", [("speed", Value.num(1.0))])
    net.add_action(one, three, "set object.x = 2;")
    net.add_action(None, three)
    net.ingest_signal(one, "touch", SensorSignal(SensorAddress.of("skin"), b"\x01"))
    net.add_isa(two, one)
    other = copy.deepcopy(net)
    assert nets_equal(net, other) and nets_equal(other, net)
    _ONE_FIELD_CHANGED[change](other)
    assert not nets_equal(net, other) and not nets_equal(other, net)
