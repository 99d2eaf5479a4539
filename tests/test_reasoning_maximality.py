"""The miner's maximality test on structures against the Net routines.

`mine_concepts` reads each unproven class's structure in canonical order
from its net, compares count profiles, and asks `_embeds` whether one
structure's pattern embeds in another's; it builds a pattern Net only for
a template it returns. `_embeds` must decide what `find_matches` decides
on the two patterns, and `_profile` of a structure must be `_profile` of
the Net `_copy_structure` builds from it.
"""

import random

from krn import Net, Value, find_matches, mine_concepts
from krn import reasoning
from krn.reasoning import (
    _canonical,
    _copy_structure,
    _embeds,
    _profile,
    _structure_of,
    _supported_classes,
)

from helpers import closed_subsets, star_net, structure_net


def _named_hub(rng: random.Random, arms: int) -> Net:
    """A hub acting on arms that share their names, so that a pattern of
    it maps onto itself in more than one way."""
    net = Net()
    hub = net.add_object([("hub", Value.unset())])
    names = [("arm", Value.unset())] + ([("leg", Value.unset())] if rng.random() < 0.5 else [])
    for _ in range(arms):
        net.add_action(hub if rng.random() < 0.8 else None, net.add_object(names))
    return net


def _patterns(rng: random.Random) -> list:
    """(canonical key, structure in canonical order, the pattern Net) of
    each distinct closed subset of up to five nodes of nets with blank
    subjects, self-loops, names in subsets of one another, and hubs."""
    nets = [structure_net(rng, rng.randint(2, 5), rng.randint(1, 6), ["leg", "arm"])
            for _ in range(40)]
    nets += [star_net(legs) for legs in (2, 3, 4)] + [_named_hub(rng, 4) for _ in range(6)]
    found = {}
    for net in nets:
        for sub, _ in closed_subsets(net, 5):
            key, order = _canonical(net, sub)
            if key not in found:
                _copy_structure(net, order, pattern := Net())
                found[key] = (key, _structure_of(net, order), pattern)
    return list(found.values())


def _hub(structure: tuple) -> bool:
    """Whether an object acts on two objects of one shape: swapping the
    two maps the pattern onto itself."""
    acts = [(node[2], structure[node[3]]) for node in structure
            if len(node) == 4 and node[2] is not None]
    return len(acts) > len(set(acts))


def test_the_structure_embedding_decides_what_find_matches_decides():
    rng = random.Random(4646)
    patterns = _patterns(rng)
    hubs = [entry for entry in patterns if _hub(entry[1])]
    sample = hubs + rng.sample([entry for entry in patterns if not _hub(entry[1])], 150 - len(hubs))
    seen = dict.fromkeys(["yes", "no", "equal profiles", "blank onto subject", "names below",
                          "hub", "id order"], 0)
    for _, small, small_net in sample:
        for _, big, big_net in sample:
            want = bool(find_matches(small_net, big_net, limit=1))
            assert _embeds(small, big) == want, (small, big)
            seen["yes" if want else "no"] += 1
            seen["equal profiles"] += _profile(small) == _profile(big) and small != big
            if want and len(small) == len(big):
                seen["blank onto subject"] += (sum(len(n) == 4 and n[2] is None for n in small)
                                               > sum(len(n) == 4 and n[2] is None for n in big))
                seen["names below"] += sum(len(n[1]) for n in small) < sum(len(n[1]) for n in big)
            seen["hub"] += _hub(small) and _hub(big)
    # the same pairs in id order, objects first, as a pattern Net's structure reads
    for _, _, small_net in sample[:60]:
        for _, _, big_net in sample:
            small, big = (_structure_of(p, p.node_ids()) for p in (small_net, big_net))
            assert _embeds(small, big) == bool(find_matches(small_net, big_net, limit=1))
            seen["id order"] += 1
    assert seen["yes"] > 1000 and seen["no"] > 5000, seen
    assert min(seen.values()) > 20, seen   # every case came up


def test_a_structure_profile_is_its_pattern_profile():
    rng = random.Random(4747)
    patterns = _patterns(rng)
    for _, structure, pattern in patterns:
        assert _profile(structure) == _profile(pattern)
    assert len(patterns) > 300


def test_mining_builds_one_pattern_per_template_and_matches_none(monkeypatch):
    """A count, not a timing: one `mine_concepts` call copies a structure
    once per template it returns, and never calls `find_matches`, though
    it drops unproven classes that embed in others."""
    rng = random.Random(4848)
    dropped = 0
    for round_ in range(12):
        nets = [structure_net(rng, rng.randint(3, 6), rng.randint(2, 7), ["leg", "arm"])
                for _ in range(4)]
        min_support, max_nodes = 2 + round_ % 2, 3 + round_ % 3
        unproven = sum(canonical is not None for *_, canonical
                       in _supported_classes(nets, min_support, max_nodes))
        calls = {"_copy_structure": 0, "find_matches": 0}
        for name in calls:
            def counted(*args, _real=getattr(reasoning, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(reasoning, name, counted)
        templates = mine_concepts(nets, min_support, max_nodes)
        monkeypatch.undo()
        assert calls == {"_copy_structure": len(templates), "find_matches": 0}
        dropped += unproven - len(templates)
    assert dropped > 20   # the search dropped classes it never built
