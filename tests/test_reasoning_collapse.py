import copy

import pytest

from krn import (
    Net,
    Value,
    collapse_to_action,
    collapse_to_object,
    compute_boundary,
    expand,
)
from krn.errors import AmbiguousEndpoints, BoundaryViolation, NotCollapsed, UnknownNode

from helpers import tv_net
from oracle_iso import nets_isomorphic


def test_boundary_computation():
    net, inside, press, show, person = tv_net()
    boundary = compute_boundary(net, inside)
    assert boundary.inside == frozenset(inside)
    assert {(cl.outside, cl.via) for cl in boundary.cut} == {(press, "action"), (show, "action")}


def test_boundary_requires_connected_inside():
    net = Net()
    a = net.add_object([])
    b = net.add_object([])
    with pytest.raises(BoundaryViolation):
        compute_boundary(net, {a, b})
    with pytest.raises(BoundaryViolation):
        compute_boundary(net, set())
    with pytest.raises(UnknownNode):
        compute_boundary(net, {99})


def test_tv_set_collapse_preserves_crossing_actions():
    net, inside, press, show, person = tv_net()
    tv = collapse_to_object(net, inside)
    assert net.actions[press].target == tv
    assert net.actions[show].subject == tv
    assert set(net.objects[tv].incoming) == {press}
    assert set(net.objects[tv].outgoing) == {show}
    assert all(nid not in net.objects and nid not in net.actions for nid in inside)
    assert net.validate_bipartite().ok


def test_tv_set_expand_restores_isomorphic_net():
    net, inside, press, show, person = tv_net()
    original = copy.deepcopy(net)
    tv = collapse_to_object(net, inside)
    restored_ids = expand(net, tv)
    assert len(restored_ids) == len(inside)
    assert tv not in net.objects
    assert net.validate_bipartite().ok
    assert nets_isomorphic(net, original)


def test_nested_collapse_expand_round_trip():
    net, inside, press, show, person = tv_net()
    original = copy.deepcopy(net)
    # first collapse the two circuits, then the whole tv including the capsule
    circuits = {nid for nid in inside
                if nid in net.objects and "circuit" in net.objects[nid].properties}
    powers = next(a for a in net.actions
                  if net.actions[a].subject in circuits
                  and net.actions[a].target in circuits)
    capsule = collapse_to_object(net, circuits | {powers})
    assert net.validate_bipartite().ok
    remaining = {nid for nid in inside
                 if nid in net.objects or nid in net.actions}
    tv = collapse_to_object(net, remaining | {capsule})
    assert net.validate_bipartite().ok
    expand(net, tv)
    nested = next(nid for nid in net.objects
                  if net.objects[nid].collapse_payload is not None)
    expand(net, nested)
    assert net.validate_bipartite().ok
    assert nets_isomorphic(net, original)


def test_collapse_whole_net_to_object():
    net, inside, press, show, person = tv_net()
    everything = set(net.objects) | set(net.actions)
    single = collapse_to_object(net, everything)
    assert set(net.objects) == {single}
    assert net.actions == {}
    assert net.objects[single].outgoing == []
    assert net.validate_bipartite().ok


def test_collapse_to_object_rejects_object_cut():
    net, inside, press, show, person = tv_net()
    # include press but not its subject: the person link crosses via object
    with pytest.raises(BoundaryViolation):
        collapse_to_object(net, inside | {press})


def test_fortress_grouping():
    net = Net()
    king = net.add_object([("king", Value.truth(True))])
    castle = net.add_object([("castle", Value.truth(True))])
    pawn = net.add_object([("pawn", Value.truth(True))])
    queen = net.add_object([("queen", Value.truth(True))])
    guards1 = net.add_action(castle, king)
    guards2 = net.add_action(pawn, castle)
    attack = net.add_action(queen, king)
    threat = net.add_action(queen, pawn)
    fortress = collapse_to_object(net, {king, castle, pawn, guards1, guards2})
    assert net.actions[attack].target == fortress
    assert net.actions[threat].target == fortress
    assert net.validate_bipartite().ok
    assert set(net.objects[fortress].incoming) == {attack, threat}


def test_collapse_chain_to_action():
    net = Net()
    man = net.add_object([])
    button = net.add_object([])
    circuit = net.add_object([])
    press = net.add_action(man, button)
    closes = net.add_action(button, circuit)
    turn_on = collapse_to_action(net, {press, button, closes})
    act = net.actions[turn_on]
    assert act.subject == man
    assert act.target == circuit
    assert net.objects[man].outgoing == [turn_on]
    assert net.objects[circuit].incoming == [turn_on]
    assert net.validate_bipartite().ok


def test_collapse_chain_round_trip():
    net = Net()
    man = net.add_object([("alive", Value.truth(True))])
    button = net.add_object([("button", Value.truth(True))])
    circuit = net.add_object([("circuit", Value.num(1))])
    press = net.add_action(man, button, 'set object.pressed = true;')
    closes = net.add_action(button, circuit)
    original = copy.deepcopy(net)
    turn_on = collapse_to_action(net, {press, button, closes})
    expand(net, turn_on)
    assert net.validate_bipartite().ok
    assert nets_isomorphic(net, original)


def test_single_action_collapse_is_identity():
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    paint = net.add_action(man, wall)
    assert collapse_to_action(net, {paint}) == paint
    assert paint in net.actions
    with pytest.raises(NotCollapsed):
        expand(net, paint)


def test_collapse_to_action_rejects_action_cut():
    net = Net()
    man = net.add_object([])
    button = net.add_object([])
    circuit = net.add_object([])
    press = net.add_action(man, button)
    closes = net.add_action(button, circuit)
    # button alone: its links cross via the actions press and closes
    with pytest.raises(BoundaryViolation):
        collapse_to_action(net, {button})


def test_collapse_to_action_ambiguity_and_hints():
    net = Net()
    alice = net.add_object([])
    bob = net.add_object([])
    door = net.add_object([])
    room = net.add_object([])
    push1 = net.add_action(alice, door)
    push2 = net.add_action(bob, door)
    opens = net.add_action(door, room)
    with pytest.raises(AmbiguousEndpoints):
        collapse_to_action(net, {push1, push2, door, opens})
    nid = collapse_to_action(net, {push1, push2, door, opens}, subject_hint=bob)
    assert net.actions[nid].subject == bob
    assert net.actions[nid].target == room
    assert net.validate_bipartite().ok


def test_collapse_to_action_requires_recipient():
    net = Net()
    man = net.add_object([])
    ball = net.add_object([])
    kick = net.add_action(man, ball)
    with pytest.raises(AmbiguousEndpoints):
        collapse_to_action(net, {kick, ball})


def test_expand_plain_node_fails():
    net = Net()
    wall = net.add_object([])
    with pytest.raises(NotCollapsed):
        expand(net, wall)


def test_expand_blocked_by_later_attachment():
    net, inside, press, show, person = tv_net()
    tv = collapse_to_object(net, inside)
    kick = net.add_action(person, tv)
    with pytest.raises(NotCollapsed):
        expand(net, tv)
    net.erase_node(kick)
    expand(net, tv)
    assert net.validate_bipartite().ok


def test_collapse_payload_keeps_scripts_verbatim():
    net = Net()
    wall = net.add_object([])
    inner = net.add_object([])
    act = net.add_action(inner, wall, 'set object.colour = "black";')
    outside = net.add_object([])
    net.add_action(outside, inner)
    complex_id = collapse_to_object(net, {wall, inner, act})
    payload = net.objects[complex_id].collapse_payload
    assert payload.actions[act].script.text == 'set object.colour = "black";'
    restored = expand(net, complex_id)
    restored_act = next(a for a in restored if a in net.actions)
    assert net.actions[restored_act].script.text == 'set object.colour = "black";'


def test_expand_drops_isa_edges_of_the_complex_node():
    net = Net()
    a = net.add_object([])
    b = net.add_object([])
    act = net.add_action(a, b)
    concept = net.add_object([])
    cid = collapse_to_object(net, {a, b, act})
    net.add_isa(cid, concept)
    expand(net, cid)
    assert net.isa_edges == []
    assert net.validate_bipartite().ok
