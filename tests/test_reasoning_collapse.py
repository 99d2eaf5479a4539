import copy
import random

import pytest

from krn import (
    Net,
    Value,
    collapse_to_action,
    collapse_to_object,
    compute_boundary,
    expand,
    nets_equal,
    store,
)
from krn.errors import (
    AmbiguousEndpoints,
    BoundaryViolation,
    KrnError,
    NodeCollapsed,
    NotCollapsed,
    UnknownNode,
)
from krn.reasoning import _neighbors

from helpers import random_net, tv_net
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


# ------------------------------------------------- expansion keeps the ids

def _chain_net():
    net = Net()
    man = net.add_object([("alive", Value.truth(True))])
    button = net.add_object([("button", Value.truth(True))])
    circuit = net.add_object([("circuit", Value.num(1))])
    press = net.add_action(man, button, 'set object.pressed = true;')
    closes = net.add_action(button, circuit)
    return net, man, button, circuit, press, closes


def test_tv_round_trip_restores_the_original_ids():
    net, inside, press, show, person = tv_net()
    net.add_isa(min(inside), person)
    original = copy.deepcopy(net)
    tv = collapse_to_object(net, inside)
    assert expand(net, tv) == inside
    assert nets_equal(net, original)
    assert net.validate_bipartite().ok


def test_chain_round_trip_restores_the_original_ids():
    net, man, button, circuit, press, closes = _chain_net()
    original = copy.deepcopy(net)
    turn_on = collapse_to_action(net, {press, button, closes})
    assert expand(net, turn_on) == {press, button, closes}
    assert nets_equal(net, original)
    assert net.validate_bipartite().ok


def test_action_round_trip_keeps_the_order_of_endpoint_lists():
    net = Net()
    one, two, three = (net.add_object([]) for _ in range(3))
    net.add_action(one, two)
    via_three = net.add_action(one, three)
    three_two = net.add_action(three, two)
    last = net.add_action(one, two)
    original = copy.deepcopy(net)
    complex_id = collapse_to_action(net, {via_three, three, three_two})
    assert net.objects[one].outgoing[1:2] == [last]
    expand(net, complex_id)
    assert net.objects[one].outgoing == [via_three - 1, via_three, last]
    assert nets_equal(net, original)


def test_nested_round_trip_and_the_held_nested_id_still_expands():
    net, inside, press, show, person = tv_net()
    original = copy.deepcopy(net)
    circuits = {nid for nid in inside
                if nid in net.objects and "circuit" in net.objects[nid].properties}
    powers = next(a for a in net.actions
                  if net.actions[a].subject in circuits
                  and net.actions[a].target in circuits)
    capsule = collapse_to_object(net, circuits | {powers})
    tv = collapse_to_object(net, (inside - circuits - {powers}) | {capsule})
    assert capsule in expand(net, tv)
    assert expand(net, capsule) == circuits | {powers}
    assert nets_equal(net, original)
    assert net.validate_bipartite().ok


def _refused(net, complex_id, error):
    before = copy.deepcopy(net)
    with pytest.raises(error):
        expand(net, complex_id)
    assert nets_equal(net, before)
    assert net.node(complex_id).collapse_payload is not None
    assert net.validate_bipartite().ok


def test_expand_refuses_when_a_crossing_action_was_erased():
    net, inside, press, show, person = tv_net()
    tv = collapse_to_object(net, inside)
    net.erase_node(press)
    _refused(net, tv, UnknownNode)


def test_expand_refuses_when_an_outside_initiator_was_erased():
    net = Net()
    alice = net.add_object([])
    bob = net.add_object([])
    door = net.add_object([])
    room = net.add_object([])
    push1 = net.add_action(alice, door)
    push2 = net.add_action(bob, door)
    opens = net.add_action(door, room)
    nid = collapse_to_action(net, {push1, push2, door, opens}, subject_hint=bob)
    net.erase_node(alice)    # an initiator the complex action does not name
    _refused(net, nid, UnknownNode)


def test_load_stub_refuses_a_node_inside_a_collapsed_subnet(tmp_path):
    net, inside, press, show, person = tv_net()
    original = copy.deepcopy(net)
    path = str(tmp_path / "tv.krn")
    store.save(net, None, path)
    tv = collapse_to_object(net, inside)
    before = copy.deepcopy(net)
    with store.open(path) as handle:
        with pytest.raises(NodeCollapsed):
            handle.load_stub(min(inside), net)
        with pytest.raises(NodeCollapsed):
            handle.hydrate_property(min(inside), "button", net)
    assert nets_equal(net, before)
    assert expand(net, tv) == inside     # no detached copy blocks the expansion
    assert nets_equal(net, original)


def test_load_stub_refuses_an_action_whose_endpoint_is_collapsed(tmp_path):
    net, inside, press, show, person = tv_net()
    path = str(tmp_path / "tv.krn")
    store.save(net, None, path)
    collapse_to_object(net, inside)
    net.erase_node(person)    # takes press with it
    before = copy.deepcopy(net)
    with store.open(path) as handle:
        with pytest.raises(NodeCollapsed):
            handle.load_stub(press, net)   # person -> button, button collapsed
    assert nets_equal(net, before)         # person was not stubbed in either


def test_expand_refuses_when_an_is_a_end_was_erased():
    net, inside, press, show, person = tv_net()
    concept = net.add_object([])
    net.add_isa(min(inside), concept)
    tv = collapse_to_object(net, inside)
    net.erase_node(concept)
    _refused(net, tv, UnknownNode)


def _random_collapse(rng, net):
    obj = rng.choice(sorted(net.objects))
    links = _neighbors(net, obj)
    if rng.random() < 0.5:
        inside = {obj}
        for _ in range(rng.randrange(3)):
            grow = sorted({n for m in inside for n in _neighbors(net, m)} - inside)
            if grow:
                inside.add(rng.choice(grow))
        collapse_to_object(net, inside)
    else:
        # an object with all its actions is bounded by objects
        acts = [net.actions[a] for a in links]
        subjects = sorted({a.subject for a in acts} - {obj, None})
        targets = sorted({a.target for a in acts} - {obj})
        collapse_to_action(net, {obj, *links}, subject_hint=(subjects or [None])[0],
                           target_hint=(targets or [None])[0])


def _complex_nodes(net):
    return [n for n in net.node_ids() if net.node(n).collapse_payload is not None]


def test_seeded_collapse_and_expand_keep_the_net_valid(tmp_path):
    """Valid after every call; a refused expansion changes nothing; with no
    erasure or stub in between, expanding everything gives the original
    back, action lists in their old order."""
    rng = random.Random(4417)
    path = str(tmp_path / "net.krn")
    for _ in range(60):
        net, _ = random_net(rng, with_labels=False)
        original = copy.deepcopy(net)
        store.save(net, None, path)
        hostile = rng.random() < 0.5
        with store.open(path) as handle:
            for _ in range(20):
                before = copy.deepcopy(net)
                roll = rng.random()
                try:
                    if roll < 0.45 and net.objects:
                        _random_collapse(rng, net)
                    elif roll < 0.8 and _complex_nodes(net):
                        try:
                            expand(net, rng.choice(_complex_nodes(net)))
                        except KrnError:
                            assert nets_equal(net, before)
                            raise
                    elif hostile and roll < 0.9 and net.node_ids():
                        net.erase_node(rng.choice(net.node_ids()))
                    elif hostile:
                        handle.load_stub(rng.choice(sorted(handle.index)), net)
                except KrnError:
                    pass
                assert net.validate_bipartite().ok
        if not hostile:
            while _complex_nodes(net):
                for nid in _complex_nodes(net):
                    try:
                        expand(net, nid)
                        break
                    except NotCollapsed:
                        continue
                else:
                    raise AssertionError("no complex node can be expanded")
            assert nets_equal(net, original)
