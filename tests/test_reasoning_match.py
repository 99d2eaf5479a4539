"""The two structural searches against brute-force enumeration.

`find_matches` must return exactly the injective maps that keep kinds,
names and wiring; `_max_anchored_match` must return a valid partial
match that no other is larger than. Both enumerations below read only
records, never the searches' adjacency-driven candidates.
"""

import itertools
import random

from krn import Net, Value
from krn.reasoning import _max_anchored_match, find_matches

from helpers import structure_net


def _pair(rng: random.Random) -> tuple[Net, Net]:
    """A pattern of at most 4 nodes, often disconnected, and a target of at most 8."""
    objects = rng.randint(1, 3)
    pattern = structure_net(rng, objects, rng.randint(0, 4 - objects), ["a", "b"])
    objects = rng.randint(1, 4)
    target = structure_net(rng, objects, rng.randint(0, 8 - objects), ["a", "b", "c"])
    return pattern, target


def _records(net: Net, nid):
    return net.objects if nid in net.objects else net.actions


def _wired(pattern: Net, target: Net, m: dict, a) -> bool:
    """Whether action a's image has a's target's image as its target and,
    unless a's subject is blank, a's subject's image as its subject."""
    prec, trec = pattern.actions[a], target.actions[m[a]]
    return m[prec.target] == trec.target and (
        prec.subject is None or m[prec.subject] == trec.subject)


def _every_match(pattern: Net, target: Net) -> set:
    """Every injective map that keeps kinds, names and wiring."""
    def options(p):
        kind = target.objects if p in pattern.objects else target.actions
        names = _records(pattern, p)[p].properties.keys()
        return [t for t in sorted(kind) if names <= kind[t].properties.keys()]

    pids = pattern.node_ids()
    found = set()
    for images in itertools.product(*map(options, pids)):
        m = dict(zip(pids, images))
        if len(set(images)) == len(images) and all(_wired(pattern, target, m, a)
                                                   for a in pattern.actions):
            found.add(frozenset(m.items()))
    return found


def test_find_matches_returns_every_match_and_no_other():
    rng = random.Random(11)
    full = 0
    for _ in range(1000):
        pattern, target = _pair(rng)
        doomed = rng.choice(target.node_ids())
        if rng.random() < 0.2:
            target.erase_node(doomed)
        results = find_matches(pattern, target)
        assert len({frozenset(m.items()) for m in results}) == len(results)
        assert {frozenset(m.items()) for m in results} == _every_match(pattern, target)
        assert find_matches(pattern, target, limit=1) == results[:1]
        full += bool(results)
    assert full > 150   # the cases reach matches


def _connected(pattern: Net, m: dict, root) -> bool:
    """Whether every mapped pattern node reaches the root through mapped nodes."""
    reached, frontier = {root}, [root]
    while frontier:
        nid = frontier.pop()
        if nid in pattern.objects:
            rec = pattern.objects[nid]
            links = [*rec.outgoing, *rec.incoming]
        else:
            rec = pattern.actions[nid]
            links = [rec.target, rec.subject]
        for nb in links:
            if nb in m and nb not in reached:
                reached.add(nb)
                frontier.append(nb)
    return reached == m.keys()


def _valid_partial(pattern: Net, net: Net, root, instance, m: dict) -> bool:
    """Root pinned, injective, kinds and names kept (but the root's), every
    mapped action wired, and every mapped node connected to the root."""
    if m.get(root) != instance or len(set(m.values())) != len(m):
        return False
    for p, t in m.items():
        kind = net.objects if p in pattern.objects else net.actions
        if p != root and (t not in kind or not _records(pattern, p)[p].properties.keys()
                          <= kind[t].properties.keys()):
            return False
    for a in m.keys() & pattern.actions.keys():
        prec = pattern.actions[a]
        if prec.target not in m or prec.subject is not None and prec.subject not in m:
            return False
        if not _wired(pattern, net, m, a):
            return False
    return _connected(pattern, m, root)


def _largest_partial(pattern: Net, net: Net, root, instance) -> int:
    """The size of the largest valid partial match: every choice of image
    or none for each pattern action, endpoints taken from the images."""
    best = 1
    actions = sorted(pattern.actions)
    for images in itertools.product([None, *sorted(net.actions)], repeat=len(actions)):
        m = {root: instance}
        for a, t in zip(actions, images):
            if t is None:
                continue
            prec, trec = pattern.actions[a], net.actions[t]
            m[a] = t
            for q, w in ((prec.target, trec.target), (prec.subject, trec.subject)):
                if q is not None:
                    m[q] = w if m.get(q, w) == w else None   # None: two images disagree
        if None not in m.values() and _valid_partial(pattern, net, root, instance, m):
            best = max(best, len(m))
    return best


def test_the_shaping_match_is_valid_and_no_valid_partial_match_is_larger():
    rng = random.Random(12)
    grown = branched = 0
    for _ in range(1000):
        pattern, net = _pair(rng)
        root, instance = rng.choice(sorted(pattern.objects)), rng.choice(sorted(net.objects))
        m = _max_anchored_match(pattern, root, net, instance)
        assert _valid_partial(pattern, net, root, instance, m)
        assert len(m) == _largest_partial(pattern, net, root, instance)
        grown += len(m) > 1
        branched += len(m.keys() & pattern.actions.keys()) > 1
    assert grown > 120 and branched > 25


def test_a_bookkeeping_name_on_a_pattern_node_is_not_required():
    # a registered concept root carries its support; matching it, as
    # shaping does in place, asks the image only for the real names
    pattern = Net()
    root = pattern.add_object([("head", Value.unset()), ("concept-support", Value.num(2))])
    limb = pattern.add_object([])
    holds = pattern.add_action(root, limb)
    target = Net()
    bare = target.add_object([])
    head = target.add_object([("head", Value.truth(True))])
    part = target.add_object([])
    target.add_action(bare, part)
    act = target.add_action(head, part)
    assert find_matches(pattern, target) == [{root: head, holds: act, limb: part}]
