"""The miner's in-place shortcuts against the public routines they replace.

`mine_concepts` keeps only subsets whose cheap invariant reaches the
minimum support, groups those by their id-order structure, and merges
two structures of one invariant where one embeds in the other. It drops
unbuilt a class that a one-node step proves embedded in another,
searches maximality only among the classes left unproven, skips the
search for a pair whose profiles already rule an embedding out, and
canonicalises and builds only the templates it returns; the certificate
stops refining as soon as a round splits no class, and never permutes
twin actions. Each shortcut must agree with the slow path it stands for,
and the subset enumeration keeps the order that decides which subset of
a class comes first.
"""

import gc
import itertools
import random
from collections import Counter

import pytest

from krn import (
    ConceptTemplate,
    Net,
    Value,
    canonical_key,
    concept_of,
    find_matches,
    mine_concepts,
    nets_equal,
    register_concept,
)
from krn import reasoning
from krn.reasoning import (
    _BOOKKEEPING,
    _bit_rows,
    _canonical,
    _canonical_view,
    _closed_subsets,
    _copy_structure,
    _embeds,
    _neighbors,
    _profile,
    _shape_table,
    _structure,
    _structure_view,
    _supported_classes,
    _twin_orders,
    _view,
    extract_pattern,
)

from helpers import canonical_view_reference, closed_subsets, refined_classes_reference, structure_net

_VOCAB = ["leg", "arm", "head"]


def _vocab_net(rng: random.Random) -> Net:
    """Objects and actions over a three-name vocabulary, plus a registered
    concept whose root carries the bookkeeping names."""
    net = Net()
    objs = [net.add_object([(n, Value.unset()) for n in rng.sample(_VOCAB, rng.randrange(3))])
            for _ in range(rng.randrange(2, 6))]
    for _ in range(rng.randrange(1, 6)):
        subject = rng.choice(objs) if rng.random() < 0.7 else None
        names = [("push", Value.unset())] if rng.random() < 0.3 else []
        net.add_action(subject, rng.choice(objs), None, names)
    pattern = Net()
    root = pattern.add_object([("head", Value.unset())])
    pattern.add_action(root, pattern.add_object([(rng.choice(_VOCAB), Value.unset())]))
    concept = register_concept(net, ConceptTemplate(
        pattern=pattern, root=root, support=rng.randrange(2, 5)))
    parent = rng.choice([None, objs[0]])
    if parent is not None:
        net.set_property(concept, "concept-parent", Value.ref(parent))
    net.add_action(concept, rng.choice(objs))
    return net


def test_in_place_canonical_form_and_profile_filter_agree_with_the_slow_path():
    rng = random.Random(606)
    patterns = []
    blanked = bookkept = 0
    for _ in range(40):
        net = _vocab_net(rng)
        for sub, _ in closed_subsets(net, 4):
            blanked += any(net.actions[a].subject not in sub | {None}
                           for a in sub if a in net.actions)
            bookkept += any(_BOOKKEEPING & net.node(n).properties.keys() for n in sub)
            key, order = _canonical(net, sub)
            assert key == canonical_key(extract_pattern(net, sub))
            assert sorted(order) == sorted(sub)
            _copy_structure(net, order, rebuilt := Net())
            assert canonical_key(rebuilt) == key
            assert rebuilt.validate_bipartite().ok
            patterns.append(rebuilt)
    assert blanked > 50 and bookkept > 50     # both cases were exercised

    sample = rng.sample(patterns, 70)
    matched = rejected = 0
    for small in sample:
        for big in sample:
            fits = _profile(small) <= _profile(big)
            rejected += not fits
            if find_matches(small, big, limit=1):
                matched += 1
                assert fits, (canonical_key(small), canonical_key(big))
    assert matched > len(sample) and rejected > len(sample)


def _relabelled(net: Net, rng: random.Random) -> tuple[Net, dict]:
    """A copy of net, bookkeeping names and values included, whose nodes
    are added in a shuffled order; returns it with the id map."""
    twin = Net()
    idmap = {}
    objs = list(net.objects)
    acts = list(net.actions)
    rng.shuffle(objs)
    rng.shuffle(acts)
    for nid in objs:
        props = net.objects[nid].properties.values()
        idmap[nid] = twin.add_object([(p.name, p.value) for p in props])
    for nid in acts:
        rec = net.actions[nid]
        idmap[nid] = twin.add_action(idmap.get(rec.subject), idmap[rec.target], None,
                                     [(p.name, p.value) for p in rec.properties.values()])
    return twin, idmap


def _structure_form(structure: tuple | None, members: list) -> tuple | None:
    """The canonical key of a class's structure, with the order of its
    members that produced it; None for a proven class."""
    if structure is None:
        return None
    key, positions = _canonical_view(_structure_view(structure))
    return key, [members[p] for p in positions]


def test_invariant_filter_keeps_every_bucket_that_reaches_min_support():
    rng = random.Random(909)
    skipped = {2: 0, 3: 0}
    for _ in range(12):
        nets = [_vocab_net(rng) for _ in range(4)]
        # the reference: every closed subset canonicalised, no filter
        support = Counter()
        first = {}
        invariants = {}
        inv_count = Counter()
        shape_index = {}
        for net in nets:
            invariant = dict(closed_subsets(net, 4, shape_index))
            closed = [sub for sub in _connected_subsets_reference(net, 4) if _is_closed(net, sub)]
            assert list(invariant) == closed
            for sub in closed:
                key, order = _canonical(net, sub)
                support[key] += 1
                first.setdefault(key, (id(net), order))
                inv_count[invariant[sub]] += 1
                # isomorphic views never split across invariants
                assert invariants.setdefault(key, invariant[sub]) == invariant[sub]
        for min_support in (2, 3):
            want = {key: (count, *first[key])
                    for key, count in support.items() if count >= min_support}
            classes = _supported_classes(nets, min_support, 4)
            got = {}
            for count, net, members, structure in classes:
                assert members == sorted(members)
                key, order = _canonical(net, members)
                # an unproven class's own structure, in id order
                assert structure in (None, _id_structure(net, members))
                assert _structure_form(structure, members) in (None, (key, order))
                got[key] = (count, id(net), order)
            assert got == want and len(classes) == len(want)
            skipped[min_support] += sum(n for n in inv_count.values() if n < min_support)
    assert skipped[2] > 200 and skipped[3] > 200    # the filter had subsets to skip


def test_relabelled_copies_have_equal_invariants():
    rng = random.Random(717)
    for _ in range(20):
        net = _vocab_net(rng)
        twin, idmap = _relabelled(net, rng)
        shape_index = {}
        closed = closed_subsets(net, 4, shape_index)
        relabelled = closed_subsets(twin, 4, shape_index)
        assert {frozenset(idmap[n] for n in sub): inv for sub, inv in closed} == dict(relabelled)


def test_a_mined_template_survives_registration_unchanged():
    """A mined pattern numbers its objects, then its actions, as a
    registered concept read back does, so the round trip keeps every id."""
    rng = random.Random(1111)
    templates = mixed = 0
    for _ in range(12):
        for template in mine_concepts([_vocab_net(rng) for _ in range(3)], 2, 4):
            host = Net()
            back = concept_of(host, register_concept(host, template))
            assert nets_equal(back.pattern, template.pattern)
            assert back.pattern.node_ids() == template.pattern.node_ids()
            assert (back.root, back.support) == (template.root, template.support)
            nodes = canonical_key(template.pattern).split("#")[0].split("|")
            kinds = "".join(node[0] for node in nodes)   # "o" or "a", canonical order
            templates += 1
            mixed += "ao" in kinds   # an action comes before an object in canonical order
    assert templates >= 30 and mixed >= 1


def _every_subset_reference(nets, max_nodes: int) -> dict:
    """Every closed subset of the nets canonicalised, no filter and no
    grouping: key -> [support, net of the first subset, its canonical order]."""
    found = {}
    for net in nets:
        for sub, _ in closed_subsets(net, max_nodes):
            key, order = _canonical(net, sub)
            if key in found:
                found[key][0] += 1
            else:
                found[key] = [1, net, order]
    return found


def _mined_over_every_class(reference: dict, min_support: int) -> list:
    """The reference maximality pass: every supported key of
    `_every_subset_reference` is built and searched against every other,
    profile test first; returns (key, pattern, support) in
    `mine_concepts` order."""
    patterns = {}
    for key, (count, net, order) in reference.items():
        if count >= min_support:
            _copy_structure(net, order, patterns.setdefault(key, Net()))
    kept = [key for key in sorted(patterns)
            if not any(other != key and _profile(patterns[key]) <= _profile(patterns[other])
                       and find_matches(patterns[key], patterns[other], limit=1)
                       for other in patterns)]
    kept.sort(key=lambda key: (-reference[key][0], key))
    return [(key, patterns[key], reference[key][0]) for key in kept]


def test_structure_classes_proofs_and_unproven_search_agree_with_the_slow_path():
    rng = random.Random(1313)
    repeats = proofs = searched = 0
    for _ in range(10):
        nets = [_vocab_net(rng) for _ in range(4)]
        seen = set()
        for net in nets:
            ids, rows = _bit_rows(net)
            for mask, _ in _closed_subsets(rows, {}, 6):
                members = [nid for i, nid in enumerate(ids) if mask >> i & 1]
                structure = _structure(rows, mask)
                key, positions = _canonical_view(_structure_view(structure))
                assert (key, [members[p] for p in positions]) == _canonical(net, members)
                repeats += structure in seen
                seen.add(structure)
        for max_nodes in (3, 4, 5, 6):
            reference = _every_subset_reference(nets, max_nodes)
            for min_support in (2, 3):
                classes = _supported_classes(nets, min_support, max_nodes)
                patterns = [extract_pattern(net, members) for _, net, members, _ in classes]
                for (support, net, members, structure), pattern in zip(classes, patterns):
                    key = canonical_key(pattern)
                    assert support == reference[key][0] and net is reference[key][1]
                    if structure is None:   # proven: embeds in another class
                        assert any(find_matches(pattern, other, limit=1)
                                   for other in patterns if other is not pattern), key
                        proofs += 1
                    else:
                        assert _structure_form(structure, members) == (key, reference[key][2])
                        searched += 1
                want = _mined_over_every_class(reference, min_support)
                got = mine_concepts(nets, min_support, max_nodes)
                assert [canonical_key(t.pattern) for t in got] == [key for key, _, _ in want]
                for template, (_, pattern, support) in zip(got, want):
                    assert nets_equal(template.pattern, pattern)
                    assert template.support == support
                    assert template.root == min(pattern.objects or pattern.actions)
    assert repeats > 300 and proofs > 500 and searched > 400   # every shortcut was taken


def _connected_subsets_reference(net: Net, max_nodes: int) -> list:
    """Every connected subset in the enumeration order the miner must
    keep, as a plain queue walk: each subset is grown by its extension
    nodes in id order, and each child's extension is recomputed as a
    sorted set."""
    ids = sorted(net.node_ids())
    nbrs = {nid: set(_neighbors(net, nid)) for nid in ids}
    results = []

    def grow(sub, ext, root, sub_nbh):
        if len(sub) >= max_nodes:
            return
        remaining = list(ext)
        while remaining:
            w = remaining.pop(0)
            fresh = {u for u in nbrs[w]
                     if u > root and u not in sub_nbh and u != w}
            new_ext = sorted(set(remaining) | fresh)
            new_sub = sub + [w]
            results.append(frozenset(new_sub))
            grow(new_sub, new_ext, root, sub_nbh | nbrs[w] | {w})

    for v in ids:
        results.append(frozenset([v]))
        grow([v], sorted(u for u in nbrs[v] if u > v), v, nbrs[v] | {v})
    return results


def _is_closed(net: Net, sub) -> bool:
    return all(net.actions[a].target in sub for a in sub if a in net.actions)


def _id_variants(net: Net, i: int):
    """net, a copy whose ids start past 10**15, and net with every third
    node erased: a bit stands for an id's rank, never for the id."""
    yield net
    far = Net()
    far.bump_id(10**15 + i)
    _copy_structure(net, net.node_ids(), far)
    yield far
    for nid in net.node_ids()[::3]:
        if nid in net.objects or nid in net.actions:
            net.erase_node(nid)
    yield net


def _hub(arms: int) -> Net:
    net = Net()
    hub = net.add_object([("hub", Value.unset())])
    for _ in range(arms):
        net.add_action(hub, net.add_object([("arm", Value.unset())]))
    return net


def test_connected_subsets_keep_the_reference_order():
    # the miner's closed subsets are exactly the closed ones among the
    # reference's connected subsets, in the reference's order
    rng = random.Random(1414)
    emitted = closed = far = 0
    for i in range(60):
        net = (_vocab_net(rng) if i % 2 else
               structure_net(rng, rng.randint(1, 7), rng.randint(0, 8), ["a", "b"]))
        for variant in _id_variants(net, i):
            far += min(variant.node_ids(), default=0) > 10**15
            for max_nodes in range(1, 9):
                want = _connected_subsets_reference(variant, max_nodes)
                assert len(set(want)) == len(want)
                got = [sub for sub, _ in closed_subsets(variant, max_nodes)]
                assert got == [sub for sub in want if _is_closed(variant, sub)]
                emitted += len(want)
                closed += len(got)
    hub = _hub(7)
    want = _connected_subsets_reference(hub, 8)
    got = [sub for sub, _ in closed_subsets(hub, 8)]
    assert got == [sub for sub in want if _is_closed(hub, sub)]
    # closed: the 8 objects, the 7 arms with their actions, and the hub
    # with 1 to 3 whole arms (63), which stops it at 7 nodes
    assert max(map(len, want)) == 8 and len(got) == 78 and max(map(len, got)) == 7
    assert emitted > 10000 and closed > 10000 and far == 60


def test_mining_leaves_no_reference_cycle():
    # reference counting alone frees what a mining call made, so no
    # collector pass is owed for it
    nets = [_vocab_net(random.Random(seed)) for seed in range(3)]
    gc.disable()
    try:
        gc.collect()
        assert mine_concepts(nets, 2, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cycle(length: int) -> Net:
    """Unnamed objects joined in one directed cycle by unnamed actions."""
    net = Net()
    objs = [net.add_object([]) for _ in range(length)]
    for a, b in zip(objs, objs[1:] + objs[:1]):
        net.add_action(a, b)
    return net


def _marked_cycle() -> Net:
    """Three objects in a cycle, one also the target of a blank act: the
    refinement takes three splitting rounds."""
    net = _cycle(3)
    net.add_action(None, max(net.objects))
    return net


def _fan(k: int) -> Net:
    """One unnamed object that k blank-subject actions act on: k twins."""
    net = Net()
    target = net.add_object([])
    for _ in range(k):
        net.add_action(None, target)
    return net


def _two_fans(k: int) -> Net:
    """A hub acting on two arms that k blank-subject actions each act on:
    the arms are equivalent, and each is the target of k twins."""
    net = _hub(2)
    for arm in list(net.objects)[1:]:
        for _ in range(k):
            net.add_action(None, arm)
    return net


def _loops_and_crossings() -> Net:
    """Two objects, each acting on itself and on the other: refinement
    leaves all four actions in one class, and no two of them are twins,
    though two share a target."""
    net = Net()
    a, b = net.add_object([]), net.add_object([])
    for subject, target in ((b, b), (a, a), (a, b), (b, a)):
        net.add_action(subject, target)
    return net


_WHOLE_NETS = {"marked-cycle": _marked_cycle,
               "four-cycle": lambda: _cycle(4),
               "three-part-hub": lambda: _hub(3),
               **{f"fan-{k}": lambda k=k: _fan(k) for k in range(2, 8)},
               "two-fans": lambda: _two_fans(3),
               "loops-and-crossings": _loops_and_crossings}


@pytest.mark.parametrize("case", ["vocab-subsets", *_WHOLE_NETS])
def test_the_early_stopping_certificate_agrees_with_full_refinement(case):
    """`_canonical_view` stops refining at the first round that splits no
    class and encodes a discrete refinement's one order unsearched; the
    reference refines until the ranks stand still and searches every
    order within the classes."""
    if case == "vocab-subsets":
        rng = random.Random(2626)
        views = []
        for _ in range(100):
            net = _vocab_net(rng)
            views += [_view(net, sub) for sub, _ in closed_subsets(net, 6)]
    else:
        net = _WHOLE_NETS[case]()
        views = [_view(net, set(net.node_ids()))]
    tied = 0
    for view in views:
        assert _canonical_view(view) == canonical_view_reference(view)
        tied += len(set(refined_classes_reference(view).values())) < len(view)
    if case == "vocab-subsets":
        assert len(views) > 3000 and 400 < tied < len(views)   # both ways were taken
    elif case == "marked-cycle":
        assert tied == 0        # every class split: the one order, unsearched
    else:
        assert tied == 1        # refinement leaves classes tied: the search ran


def test_twin_actions_keep_ascending_order():
    """Twin actions (equal names and ends) are never permuted among
    themselves: a class of k twins has one order, not k!, and two sets of
    three twins in one class have C(6, 3) = 20; objects are never twins."""
    for k in range(1, 8):
        assert list(_twin_orders(list(range(k)), [(None, k)] * k)) == [list(range(k))]
    ends = [(None, 6)] * 3 + [(None, 7)] * 3
    orders = list(_twin_orders(list(range(6)), ends))
    assert len(orders) == len({tuple(o) for o in orders}) == 20
    assert all(o.index(0) < o.index(1) < o.index(2) and o.index(3) < o.index(4) < o.index(5)
               for o in orders)
    assert len(list(_twin_orders([0, 1, 2], [None] * 3))) == 6


def _profile_counts(pattern: Net) -> Counter:
    """The profile as the multiset of counts it encodes."""
    counts = Counter(o=len(pattern.objects), a=len(pattern.actions))
    counts["subject"] = sum(a.subject is not None for a in pattern.actions.values())
    for kind, records in (("o", pattern.objects), ("a", pattern.actions)):
        for rec in records.values():
            counts.update((kind, name) for name in rec.properties)
    return counts


def test_profile_subset_test_is_inclusion_of_the_counts():
    """The maximality filter's `<=` on two profiles says what `<=` on the
    counts they encode says, and equal profiles are equal counts."""
    rng = random.Random(2828)
    patterns = []
    for _ in range(30):
        net = _vocab_net(rng)
        patterns += [extract_pattern(net, sub) for sub, _ in closed_subsets(net, 5)]
    sample = rng.sample(patterns, 120)
    fits = equal = 0
    for small in sample:
        for big in sample:
            want = _profile_counts(small) <= _profile_counts(big)
            assert (_profile(small) <= _profile(big)) == want
            assert (_profile(small) == _profile(big)) == (
                _profile_counts(small) == _profile_counts(big))
            fits += want
            equal += _profile(small) == _profile(big)
    assert len(sample) < equal < fits < len(sample) ** 2 - len(sample)   # every way was taken


def _id_structure(net: Net, sub) -> tuple:
    """A subset's structure read from ids: its members in id order, an
    action's subject (None if blank or outside) and target as positions."""
    members = sorted(sub)
    at = {nid: i for i, nid in enumerate(members)}
    shapes = _shape_table(net, members)
    return tuple(shapes[nid] if nid in net.objects else
                 (*shapes[nid], at.get(net.actions[nid].subject), at[net.actions[nid].target])
                 for nid in members)


def _push_to(part: str) -> Net:
    """A hub acting on a leg and an arm, the act on `part` named push: the
    two choices of part have equal invariants and are not isomorphic."""
    net = Net()
    hub = net.add_object([])
    for name in ("leg", "arm"):
        net.add_action(hub, net.add_object([(name, Value.unset())]), None,
                       [("push", Value.unset())] if name == part else [])
    return net


def test_mining_canonicalises_the_templates_it_returns_only(monkeypatch):
    """A count, not a timing: one `mine_concepts` call makes one
    `_canonical_view` call per template it returns, though structures
    share invariants and unproven classes are dropped."""
    rng = random.Random(2727)
    hand = [_push_to("leg"), _push_to("arm"), _push_to("leg"), _push_to("arm")]
    sharing_seen = dropped = 0
    for round_ in range(12):
        nets = [_vocab_net(rng) for _ in range(6)] + (hand if round_ < 2 else [])
        min_support, max_nodes = 2 + round_ % 2, 4 + round_ % 3
        shape_index = {}
        closed = [(net, sub, inv) for net in nets
                  for sub, inv in closed_subsets(net, max_nodes, shape_index)]
        inv_count = Counter(inv for _, _, inv in closed)
        invariant = {_id_structure(net, sub): inv for net, sub, inv in closed
                     if inv_count[inv] >= min_support}
        sharing = Counter(invariant.values())
        unproven = sum(structure is not None for *_, structure
                       in _supported_classes(nets, min_support, max_nodes))
        calls = []

        def counted(view, _real=reasoning._canonical_view):
            calls.append(len(view))
            return _real(view)
        monkeypatch.setattr(reasoning, "_canonical_view", counted)
        templates = mine_concepts(nets, min_support, max_nodes)
        monkeypatch.undo()
        assert len(calls) == len(templates)
        sharing_seen += sum(sharing[inv] > 1 for inv in invariant.values())
        dropped += unproven - len(templates)
    assert sharing_seen > 60 and dropped > 20   # merges were decided, classes dropped


def test_structures_of_one_invariant_embed_exactly_when_their_keys_are_equal():
    """The merge rule: two structures with equal invariants have equal
    profiles, so `_embeds` either way says what equal canonical keys say.
    Every pair in every invariant bucket of seeded nets is checked."""
    rng = random.Random(3030)
    seen = Counter()
    for _ in range(30):
        nets = [_vocab_net(rng) for _ in range(4)]
        for max_nodes in (3, 4, 5, 6):
            shape_index = {}
            buckets = {}
            for net in nets:
                _, rows = _bit_rows(net)
                for mask, inv in _closed_subsets(rows, shape_index, max_nodes):
                    buckets.setdefault(inv, {}).setdefault(_structure(rows, mask))
            for bucket in buckets.values():
                keys = {s: _canonical_view(_structure_view(s))[0] for s in bucket}
                for a, b in itertools.combinations(bucket, 2):
                    assert _profile(a) == _profile(b)
                    same = keys[a] == keys[b]
                    assert _embeds(a, b) == _embeds(b, a) == same, (a, b)
                    seen[same] += 1
    assert seen[True] > 300 and seen[False] > 20, seen   # both ways were taken

    # equal invariants, different keys: two classes of support 2, both kept
    hand = [_push_to("leg"), _push_to("arm"), _push_to("leg"), _push_to("arm")]
    structures = [_id_structure(net, net.node_ids()) for net in hand[:2]]
    shape_index = {}
    invariants = [dict(closed_subsets(net, 5, shape_index))[frozenset(net.node_ids())]
                  for net in hand[:2]]
    assert structures[0] != structures[1] and invariants[0] == invariants[1]
    classes = {frozenset(members): support for support, _, members, _
               in _supported_classes(hand, 2, 5)}
    assert classes[frozenset(hand[0].node_ids())] == classes[frozenset(hand[1].node_ids())] == 2
    templates = mine_concepts(hand, 2, 5)
    assert len(templates) == 2 and {t.support for t in templates} == {2}
    assert len({canonical_key(t.pattern) for t in templates}) == 2
