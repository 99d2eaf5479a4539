import copy
import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

from krn import (
    Answer,
    ConceptTemplate,
    Net,
    Provenance,
    Value,
    canonical_key,
    concept_of,
    mine_concepts,
    query_has,
    register_concept,
    shape,
)
from krn import core, reasoning, store
from krn.errors import UnknownConcept
from krn.reasoning import (
    _BOOKKEEPING,
    _bfs_order,
    _compat,
    _copy_structure,
    _max_anchored_match,
    find_matches,
    shape_all,
)

from helpers import peter_net, person_pattern, shape_by_template, wall_net


def test_shape_instantiates_missing_structure():
    net, peter, concept_id = peter_net()
    created = shape(net, peter, concept_id)
    # three parts and three connecting actions
    assert len(created) == 6
    for nid in created:
        rec = net.node(nid)
        assert rec.provenance is Provenance.INFERRED
        for prop in rec.properties.values():
            assert prop.provenance is Provenance.INFERRED
            assert prop.value.is_unset
    assert net.validate_bipartite().ok
    # peter now reaches a head through an inferred action
    heads = [net.actions[a].target for a in net.objects[peter].outgoing
             if "head" in net.objects[net.actions[a].target].properties]
    assert len(heads) == 1


def test_shape_is_idempotent():
    net, peter, concept_id = peter_net()
    first = shape(net, peter, concept_id)
    assert first
    second = shape(net, peter, concept_id)
    assert second == []
    third = shape(net, peter, concept_id)
    assert third == []


def test_shape_requires_isa_edge():
    net, peter, concept_id = peter_net()
    stranger = net.add_object([])
    with pytest.raises(UnknownConcept):
        shape(net, stranger, concept_id)


def test_shape_all_goes_past_a_failing_edge():
    net, peter, concept_id = peter_net()
    net.isa_edges.insert(0, (peter, 99))
    created, error = shape_all(net, peter)
    assert len(created) == 6
    assert isinstance(error, UnknownConcept)
    assert shape_all(net, peter)[0] == []


def test_partial_instance_keeps_existing_parts():
    net, peter, concept_id = peter_net()
    legs = net.add_object([("leg", Value.truth(True)), ("length", Value.num(77))])
    has_legs = net.add_action(peter, legs)
    created = shape(net, peter, concept_id)
    # legs exist: only head, arms, and their two actions are new
    assert len(created) == 4
    assert legs not in created
    assert has_legs not in created
    assert net.get_property(legs, "length") == Value.num(77)
    created_names = [
        set(net.node(n).properties) for n in created if n in net.objects
    ]
    assert {"leg", "length"} not in created_names
    assert shape(net, peter, concept_id) == []


def test_query_has_inferred_after_isa():
    net, peter, concept_id = peter_net()
    assert query_has(net, peter, "head") is Answer.YES_INFERRED
    # shaping happened on demand; a second shape adds nothing
    assert shape(net, peter, concept_id) == []


def test_query_has_unknown_without_isa():
    net = Net()
    peter = net.add_object([])
    assert query_has(net, peter, "head") is Answer.UNKNOWN
    assert query_has(net, peter, "tail") is Answer.UNKNOWN


def test_query_has_asserted_property_value():
    net, man, wall, paint = wall_net()
    from krn import run_action

    run_action(net, paint)
    assert query_has(net, wall, "colour==black") is Answer.YES_ASSERTED
    assert query_has(net, wall, "colour==green") is Answer.UNKNOWN
    assert query_has(net, wall, "colour") is Answer.YES_ASSERTED


def test_query_has_part_vs_property_duality():
    net = Net()
    cat = net.add_object([("tail", Value.truth(True))])
    assert query_has(net, cat, "tail") is Answer.YES_ASSERTED
    dog = net.add_object([])
    tail = net.add_object([("tail", Value.truth(True))])
    net.add_action(dog, tail)
    assert query_has(net, dog, "tail") is Answer.YES_ASSERTED


def test_query_has_predicate_on_unset_is_unknown():
    net, peter, concept_id = peter_net()
    shape(net, peter, concept_id)
    # inferred parts carry unset lengths: the predicate cannot be confirmed
    legs = next(n for n in net.objects
                if "leg" in net.objects[n].properties)
    assert query_has(net, legs, "length==80") is Answer.UNKNOWN


def test_query_has_prefers_asserted_over_inferred():
    net, peter, concept_id = peter_net()
    shape(net, peter, concept_id)
    real_head = net.add_object([("head", Value.truth(True))])
    net.add_action(peter, real_head)
    assert query_has(net, peter, "head") is Answer.YES_ASSERTED


def test_concept_round_trip_through_net():
    net, peter, concept_id = peter_net()
    template = concept_of(net, concept_id)
    assert template.id == concept_id
    assert template.support == 2
    assert len(template.pattern.node_ids()) == 7
    # bookkeeping properties stay out of the pattern
    root_names = set(template.pattern.objects[template.root].properties)
    assert "concept-support" not in root_names


def test_a_concept_parent_a_file_carries_stays_bookkeeping(tmp_path):
    """`concept-parent` is no longer written, but a file that carries one
    on a concept's root still loads, keeps it, and reads, matches and
    shapes as the same file without it: the property stays out of the
    template's pattern and out of what shaping compares or copies."""
    (plain, peter, concept_id), (carrying, _, _) = peter_net(), peter_net()
    for net in (plain, carrying):
        other = register_concept(net, ConceptTemplate(*person_pattern(), support=1))
    carrying.set_property(concept_id, "concept-parent", Value.ref(other))
    path = str(tmp_path / "parent.krn")
    store.save(carrying, None, path)
    carrying, _ = store.load(path)
    assert carrying.objects[concept_id].properties["concept-parent"].value == Value.ref(other)
    read = concept_of(carrying, concept_id)
    assert "concept-parent" not in read.pattern.objects[read.root].properties
    assert canonical_key(read.pattern) == canonical_key(concept_of(plain, concept_id).pattern)
    assert read.support == 2
    created = shape(carrying, peter, concept_id)
    assert created == shape(plain, peter, concept_id) and len(created) == 6
    assert all("concept-parent" not in carrying.node(n).properties for n in created)
    assert query_has(carrying, peter, "head") is query_has(plain, peter, "head")
    assert carrying.validate_bipartite().ok


def test_shaping_from_a_large_concept_keeps_its_result():
    """Instance 1 shaped from concept 10, a 22-node concept with 18
    actions in a 71-node net: the largest case the reasoning fuzz once
    shaped. The match search is exponential in actions (ROADMAP items 10
    and 26); this pins what it returns."""
    net, _ = store.load(str(Path(__file__).resolve().parent / "shape_large_concept.krn"))
    component = _bfs_order(net, 10)
    assert (len(net.node_ids()), len(component), len(net.actions.keys() & component)) == (71, 22, 18)
    assert shape(net, 1, 10) == list(range(72, 79))
    assert all(net.node(n).provenance is Provenance.INFERRED for n in range(72, 79))
    assert net.validate_bipartite().ok


def test_shape_accepts_template_object():
    net, peter, concept_id = peter_net()
    template = concept_of(net, concept_id)
    created = shape(net, peter, template)
    assert len(created) == 6


def _self_loop_concept(net: Net) -> int:
    """A root with a self-loop and a part, the part with a self-loop too."""
    pattern = Net()
    root = pattern.add_object([])
    part = pattern.add_object([("spin", Value.unset())])
    pattern.add_action(root, root)
    pattern.add_action(root, part)
    pattern.add_action(part, part)
    return register_concept(net, ConceptTemplate(pattern=pattern, root=root, support=2))


def test_a_self_loop_concept_shapes_its_object_once():
    net = Net()
    concept_id = _self_loop_concept(net)
    bare = net.add_object([])
    # an action into an instance is not a self-loop of it
    fed = net.add_object([])
    net.add_action(net.add_object([]), fed)
    for inst in (bare, fed):
        net.add_isa(inst, concept_id)
        created = shape(net, inst, concept_id)
        (part,) = [n for n in created if n in net.objects]
        ends = sorted((net.actions[a].subject, net.actions[a].target)
                      for a in created if a in net.actions)
        assert ends == sorted([(inst, inst), (inst, part), (part, part)])
        assert shape(net, inst, concept_id) == []
    assert net.validate_bipartite().ok


def _small_net(rng: random.Random, objects: int, actions: int, names) -> tuple[Net, list]:
    net = Net()
    objs = [net.add_object([(n, Value.unset()) for n in names if rng.random() < 0.5])
            for _ in range(objects)]
    for _ in range(actions):
        target = rng.choice(objs)
        roll = rng.random()
        subject = None if roll < 0.2 else target if roll < 0.4 else rng.choice(objs)
        net.add_action(subject, target)
    return net, objs


def test_the_shaping_match_keeps_structure():
    """Seeded small nets: the largest anchored match pins the root, is
    injective, keeps property names, and wires every mapped action's
    endpoints onto its image's endpoints."""
    rng = random.Random(5)
    mapped_actions = mapped_loops = 0
    for _ in range(1500):
        pattern, pobjs = _small_net(rng, rng.randint(1, 4), rng.randint(0, 5), ["a"])
        net, nobjs = _small_net(rng, rng.randint(1, 5), rng.randint(0, 9), ["a", "b"])
        root, inst = rng.choice(pobjs), rng.choice(nobjs)
        mapping = _max_anchored_match(pattern, root, net, inst)
        assert mapping[root] == inst
        assert len(set(mapping.values())) == len(mapping)
        assert all(_compat(pattern, net, p, t) for p, t in mapping.items() if p != root)
        for p in mapping.keys() & pattern.actions.keys():
            prec, trec = pattern.actions[p], net.actions[mapping[p]]
            assert mapping[prec.target] == trec.target
            if prec.subject is not None:
                assert mapping[prec.subject] == trec.subject
            mapped_actions += 1
            mapped_loops += prec.subject == prec.target
    assert mapped_actions > 600 and mapped_loops > 300   # the cases reach both


def test_matching_and_shaping_leave_no_cycle_holding_the_net():
    # reference counting alone frees a searched net, as it must once
    # gc.freeze holds whatever a cycle would keep
    gc.disable()
    try:
        net, peter, concept_id = peter_net()
        pattern, root = person_pattern()
        assert find_matches(pattern, net)
        assert _max_anchored_match(pattern, root, net, peter)[root] == peter
        assert shape(net, peter, concept_id)
        assert query_has(net, peter, "head") is Answer.YES_INFERRED
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        gc.enable()


def test_shape_matches_structure_reached_through_a_later_action():
    # a 4-cycle concept R→A→B→C→R and an instance r that already ends the
    # chain x→y→z→r: A is reached only through B→C, which comes after A→B
    # breadth-first, yet x is its image, so only r→x is missing
    pattern = Net()
    R, A, B, C = (pattern.add_object([]) for _ in range(4))
    for subject, target in ((R, A), (A, B), (B, C), (C, R)):
        pattern.add_action(subject, target)
    net = Net()
    concept_id = register_concept(net, ConceptTemplate(pattern=pattern, root=R, support=2))
    x, y, z, r = (net.add_object([]) for _ in range(4))
    for subject, target in ((x, y), (y, z), (z, r)):
        net.add_action(subject, target)
    net.add_isa(r, concept_id)
    template = concept_of(net, concept_id)
    assert len(_max_anchored_match(template.pattern, template.root, net, r)) == 7
    created = shape(net, r, concept_id)
    assert len(created) == 1
    act = net.actions[created[0]]
    assert (act.subject, act.target, act.provenance) == (r, x, Provenance.INFERRED)


# ------------------------------------------- shaping reads the concept in place

_PARTS = ["head", "arm", "leg", "seat", "door"]


def _scene(rng: random.Random) -> Net:
    """Hubs with one or two named parts, and a cross link or two."""
    net = Net()
    objs = []
    for _ in range(rng.randrange(2, 5)):
        hub = net.add_object([("colour", Value.text("red"))] if rng.random() < 0.5 else [])
        objs.append(hub)
        for _ in range(rng.randrange(1, 3)):
            names = sorted(rng.sample(_PARTS, rng.randrange(1, 3)))
            part = net.add_object([(n, Value.truth(True)) for n in names])
            objs.append(part)
            net.add_action(hub if rng.random() < 0.85 else None, part)
    for _ in range(rng.randrange(1, 3)):
        a, b = rng.sample(objs, 2)
        net.add_action(a if rng.random() < 0.7 else None, b)
    return net


def _concept_world(rng: random.Random, linked: bool) -> tuple[Net, list]:
    """Mined concepts registered in a world, their parts' values set, and
    per concept an instance that holds a random part of its structure;
    with `linked`, an action joins each concept root to the next one's,
    so a component holds another concept's root and its bookkeeping."""
    world = Net()
    templates = mine_concepts([_scene(rng) for _ in range(3)], 2, 5)[:3]
    cids = [register_concept(world, t) for t in templates]
    if linked:
        for a, b in zip(cids, cids[1:]):
            world.add_action(a, b)
    for cid in cids:
        for nid in _bfs_order(world, cid):
            for name in sorted(world.node(nid).properties.keys() - _BOOKKEEPING):
                if rng.random() < 0.7:
                    world.set_property(nid, name, Value.num(rng.randrange(9)))
    pairs = []
    for cid in cids:
        component = sorted(_bfs_order(world, cid))
        kept = [n for n in component if n == cid or n in world.objects and rng.random() < 0.6]
        kept += [a for a in component if a in world.actions
                 and world.actions[a].target in kept and rng.random() < 0.7]
        instance = _copy_structure(world, kept, world)[cid]
        world.add_isa(instance, cid)
        pairs.append((instance, cid))
        bare = world.add_object([("colour", Value.text("blue"))])
        world.add_isa(bare, cid)
        pairs.append((bare, cid))
    return world, pairs


@pytest.mark.parametrize("linked", [False, True])
def test_shaping_in_place_agrees_with_the_template_path(linked):
    """Seeded worlds of mined, registered concepts: shaping from the
    registered subnet creates the same ids, records and provenance, and
    leaves the same next id, as shaping from a template rebuilt by
    `concept_of` (`helpers.shape_by_template`)."""
    rng = random.Random(4040 + linked)
    shapes = partial = held_roots = 0
    for i in range(40):
        world, pairs = _concept_world(rng, linked)
        ours, ref = copy.deepcopy(world), copy.deepcopy(world)
        for k, (inst, cid) in enumerate(pairs):
            held_roots += any(_BOOKKEEPING & world.node(n).properties.keys()
                              for n in _bfs_order(world, cid) if n != cid)
            concept = concept_of(ours, cid) if k % 3 == 0 else cid   # a template reads its id
            created = shape(ours, inst, concept)
            assert created == shape_by_template(ref, inst, cid), (i, k)
            assert ours.objects == ref.objects and ours.actions == ref.actions, (i, k)
            assert ours.next_id == ref.next_id and ours.isa_edges == ref.isa_edges
            assert shape(ours, inst, cid) == [] == shape_by_template(ref, inst, cid)
            shapes += bool(created)
            partial += 0 < len(created) < len(_bfs_order(world, cid)) - 1
        assert ours.validate_bipartite().ok
    assert shapes > 150 and partial > (50 if linked else 10)
    assert (held_roots > 40) if linked else held_roots == 0


def test_a_shaping_query_builds_no_template_and_checks_no_name(monkeypatch):
    net, peter, concept_id = peter_net()
    far = Net()
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def stand_in(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, stand_in)

    for owner, name in ((reasoning, "concept_of"), (Net, "__init__"), (Net, "add_object"),
                        (Net, "add_action"), (core, "_check_name")):
        counted(owner, name)
    assert query_has(net, peter, "head") is Answer.YES_INFERRED
    assert len(net.node_ids()) == 1 + 7 + 6   # peter, the concept, what shaping made
    copied = _copy_structure(net, net.node_ids(), far)
    assert len(copied) == len(far.node_ids()) == 14
    assert calls == Counter()
