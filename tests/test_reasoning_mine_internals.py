"""The miner's in-place shortcuts against the public routines they replace.

`mine_concepts` canonicalises a subset straight from the source net,
builds a template only for a surviving bucket, and skips the maximality
search for a pair whose profiles already rule an embedding out. Each
shortcut must agree with the slow path it stands for.
"""

import random

from krn import ConceptTemplate, Net, Value, canonical_key, find_matches, register_concept
from krn.reasoning import (
    _BOOKKEEPING,
    _canonical,
    _connected_subsets,
    _pattern_closed,
    _profile,
    _rebuild_in_order,
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
            rebuilt = _rebuild_in_order(net, order)
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
