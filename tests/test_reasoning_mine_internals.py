"""The miner's in-place shortcuts against the public routines they replace.

`mine_concepts` canonicalises a subset straight from the source net,
canonicalises only subsets whose cheap invariant reaches the minimum
support, and each subset structure only once per call. It drops unbuilt
a key that a one-node step proves embedded in another, builds a
template only for a surviving bucket left unproven, searches maximality
only among those, and skips the search for a pair whose profiles already
rule an embedding out. Each shortcut must agree with the slow path it
stands for, and the subset enumeration keeps the order that decides
which subset of a bucket comes first.
"""

import gc
import random
from collections import Counter

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
from krn.reasoning import (
    _BOOKKEEPING,
    _bit_rows,
    _canonical,
    _closed_subsets,
    _copy_structure,
    _memo_canonical,
    _neighbors,
    _profile,
    _supported_buckets,
    extract_pattern,
)

from helpers import closed_subsets, structure_net

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
        pattern=pattern, root=root, support=rng.randrange(2, 5),
        parent=rng.choice([None, objs[0]])))
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
            buckets, _ = _supported_buckets(nets, min_support, 4)
            got = {key: (count, id(net), order)
                   for key, (count, net, order) in buckets.items()}
            assert got == want
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


def _mined_over_every_bucket(nets, min_support: int, max_nodes: int) -> list:
    """The reference maximality pass: every supported bucket is built and
    searched against every other, profile test first; returns (key,
    pattern, support) in `mine_concepts` order."""
    buckets, _ = _supported_buckets(nets, min_support, max_nodes)
    patterns = {}
    for key, (_, net, order) in buckets.items():
        _copy_structure(net, order, patterns.setdefault(key, Net()))
    kept = [key for key in sorted(patterns)
            if not any(other != key and _profile(patterns[key]) <= _profile(patterns[other])
                       and find_matches(patterns[key], patterns[other], limit=1)
                       for other in patterns)]
    kept.sort(key=lambda key: (-buckets[key][0], key))
    return [(key, patterns[key], buckets[key][0]) for key in kept]


def test_memo_proofs_and_unproven_search_agree_with_the_slow_path():
    rng = random.Random(1313)
    hits = proofs = searched = 0
    for _ in range(10):
        nets = [_vocab_net(rng) for _ in range(4)]
        memo = {}
        for net in nets:
            ids, rows = _bit_rows(net)
            for mask, _ in _closed_subsets(rows, {}, 6):
                members = [nid for i, nid in enumerate(ids) if mask >> i & 1]
                known = len(memo)
                key, positions = _memo_canonical(rows, mask, memo)
                assert (key, [members[p] for p in positions]) == _canonical(net, members)
                hits += len(memo) == known
        for min_support in (2, 3):
            for max_nodes in (3, 4, 5, 6):
                buckets, proven = _supported_buckets(nets, min_support, max_nodes)
                patterns = {}
                for key, (_, net, order) in buckets.items():
                    _copy_structure(net, order, patterns.setdefault(key, Net()))
                for key in proven:
                    assert any(find_matches(patterns[key], patterns[other], limit=1)
                               for other in patterns if other != key), key
                proofs += len(proven)
                searched += len(buckets) - len(proven)
                want = _mined_over_every_bucket(nets, min_support, max_nodes)
                got = mine_concepts(nets, min_support, max_nodes)
                assert [canonical_key(t.pattern) for t in got] == [key for key, _, _ in want]
                for template, (_, pattern, support) in zip(got, want):
                    assert nets_equal(template.pattern, pattern)
                    assert template.support == support
                    assert template.root == min(pattern.objects or pattern.actions)
    assert hits > 300 and proofs > 500 and searched > 400   # every shortcut was taken


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
