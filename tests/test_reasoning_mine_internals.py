"""The miner's in-place shortcuts against the public routines they replace.

`mine_concepts` canonicalises a subset straight from the source net,
canonicalises only subsets whose cheap invariant reaches the minimum
support, builds a template only for a surviving bucket, and skips the
maximality search for a pair whose profiles already rule an embedding
out. Each shortcut must agree with the slow path it stands for.
"""

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
    _canonical,
    _closed_subsets,
    _connected_subsets,
    _copy_structure,
    _pattern_closed,
    _profile,
    _shape_table,
    _supported_buckets,
    extract_pattern,
)

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
        for sub in _connected_subsets(net, 4):
            if not _pattern_closed(net, sub):
                continue
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
            invariant = dict(_closed_subsets(net, _shape_table(net, net.node_ids()), shape_index, 4))
            closed = [sub for sub in _connected_subsets(net, 4) if _pattern_closed(net, sub)]
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
            got = {key: (count, id(net), order)
                   for key, (count, net, order) in _supported_buckets(nets, min_support, 4).items()}
            assert got == want
            skipped[min_support] += sum(n for n in inv_count.values() if n < min_support)
    assert skipped[2] > 200 and skipped[3] > 200    # the filter had subsets to skip


def test_relabelled_copies_have_equal_invariants():
    rng = random.Random(717)
    for _ in range(20):
        net = _vocab_net(rng)
        twin, idmap = _relabelled(net, rng)
        shape_index = {}
        closed = _closed_subsets(net, _shape_table(net, net.node_ids()), shape_index, 4)
        relabelled = _closed_subsets(twin, _shape_table(twin, twin.node_ids()), shape_index, 4)
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
