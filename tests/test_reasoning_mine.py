import operator
import random

import pytest

from krn import (
    Net,
    Value,
    canonical_key,
    find_matches,
    mine_concepts,
)
from krn.reasoning import _bit_rows, _closed_subsets, extract_pattern

from helpers import (
    chain_net,
    closed_subsets,
    closed_subsets_unpruned,
    person_net,
    random_net,
    star_net,
)
from test_reasoning_mine_internals import _vocab_net
from oracle_mining import oracle_mine, same_result


def test_mike_jack_single_maximal_template():
    mike = person_net(leg_length=80, arm_length=70)
    jack = person_net(leg_length=95, arm_length=77)
    templates = mine_concepts([mike, jack], min_support=2, max_pattern_nodes=7)
    assert len(templates) == 1
    template = templates[0]
    assert template.support == 2
    assert len(template.pattern.node_ids()) == 7
    # the template matches each person net (value-free)
    assert find_matches(template.pattern, mike, limit=1)
    assert find_matches(template.pattern, jack, limit=1)


def test_single_net_without_repetition_yields_nothing():
    net = Net()
    a = net.add_object([("seat", Value.text("wood"))])
    b = net.add_object([("wing", Value.num(2))])
    net.add_action(a, b)
    assert mine_concepts([net], min_support=2, max_pattern_nodes=3) == []


def test_two_identical_chairs_in_one_net():
    net = Net()
    for colour in ("red", "blue"):
        net.add_object([("seat", Value.text(colour)), ("legs", Value.num(4))])
    net.add_object([("unrelated", Value.truth(True))])
    templates = mine_concepts([net], min_support=2, max_pattern_nodes=2)
    assert len(templates) == 1
    chair = templates[0]
    assert chair.support == 2
    names = set(chair.pattern.objects[chair.root].properties)
    assert names == {"seat", "legs"}
    assert same_result(templates, oracle_mine([net], 2, 2))


def test_miner_agrees_with_oracle_on_mike_jack():
    mike = person_net(80, 70)
    jack = person_net(95, 77)
    templates = mine_concepts([mike, jack], min_support=2, max_pattern_nodes=4)
    oracle = oracle_mine([mike, jack], 2, 4)
    assert same_result(templates, oracle)


def test_miner_agrees_with_oracle_on_random_nets():
    rng = random.Random(31337)
    cases = 0
    for _ in range(8):
        nets = []
        for _ in range(rng.randrange(1, 3)):
            net, _ = random_net(rng, max_objects=5, with_labels=False)
            if len(net.node_ids()) <= 12:
                nets.append(net)
        if not nets:
            continue
        templates = mine_concepts(nets, min_support=2, max_pattern_nodes=3)
        oracle = oracle_mine(nets, 2, 3)
        assert same_result(templates, oracle)
        cases += 1
    assert cases >= 5


def test_mining_deterministic_order():
    mike = person_net(80, 70)
    jack = person_net(95, 77)
    first = mine_concepts([mike, jack], 2, 3)
    second = mine_concepts([mike, jack], 2, 3)
    assert [canonical_key(t.pattern) for t in first] == \
        [canonical_key(t.pattern) for t in second]
    assert [t.support for t in first] == [t.support for t in second]
    supports = [t.support for t in first]
    assert supports == sorted(supports, reverse=True)


def test_mining_parameter_validation():
    with pytest.raises(ValueError):
        mine_concepts([], min_support=1)
    with pytest.raises(ValueError):
        mine_concepts([], min_support=2, max_pattern_nodes=9)


def test_connected_subset_enumeration_is_exact():
    net = person_net(80, 70)
    subsets = [sub for sub, _ in closed_subsets(net, 3)]
    assert len(subsets) == len(set(subsets))
    # cross-check with itertools enumeration
    import itertools

    ids = net.node_ids()
    expected = set()
    for size in (1, 2, 3):
        for combo in itertools.combinations(ids, size):
            sub = frozenset(combo)
            seen = {min(sub)}
            frontier = [min(sub)]
            while frontier:
                nid = frontier.pop()
                rec = net.node(nid)
                if net.is_object(nid):
                    nbrs = set(rec.outgoing) | set(rec.incoming)
                else:
                    nbrs = {rec.target} | ({rec.subject} if rec.subject is not None else set())
                for nb in nbrs & sub:
                    if nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            # the miner keeps only closed subsets: every action's target inside
            closed = all(net.actions[a].target in sub for a in sub if net.is_action(a))
            if seen == sub and closed:
                expected.add(sub)
    assert set(subsets) == expected


def test_canonical_key_invariant_under_relabeling():
    net1 = person_net(80, 70)
    # same structure built in a different id order
    net2 = Net()
    legs = net2.add_object([("leg", Value.truth(True)), ("length", Value.num(1))])
    arms = net2.add_object([("arm", Value.truth(True)), ("length", Value.num(2))])
    head = net2.add_object([("head", Value.truth(True))])
    person = net2.add_object([])
    net2.add_action(person, legs)
    net2.add_action(person, head)
    net2.add_action(person, arms)
    p1 = extract_pattern(net1, set(net1.node_ids()))
    p2 = extract_pattern(net2, set(net2.node_ids()))
    assert canonical_key(p1) == canonical_key(p2)
    # and a genuinely different structure gets a different key
    net3 = person_net(80, 70)
    net3.erase_node(2)  # drop the head
    p3 = extract_pattern(net3, set(net3.node_ids()))
    assert canonical_key(p1) != canonical_key(p3)


def test_blanked_subject_patterns_close_over_targets():
    net = person_net(80, 70)
    head_action = min(net.actions)
    head = net.actions[head_action].target
    sub = frozenset({head_action, head})
    closed = {found for found, _ in closed_subsets(net, 2)}
    assert sub in closed
    pattern = extract_pattern(net, sub)
    aid = next(iter(pattern.actions))
    assert pattern.actions[aid].subject is None
    # subject-less pattern action still matches the subjected occurrence
    assert find_matches(pattern, net, limit=1)
    # but an action subset without its target is not a valid pattern
    assert frozenset({head_action}) not in closed


def test_exact_matching_pins_names_and_blank_subjects():
    net = Net()
    wall = net.add_object([("colour", Value.text("g")), ("height", Value.num(2))])
    net.add_action(None, wall)
    subjected = Net()
    painter = subjected.add_object([])
    wall2 = subjected.add_object([("colour", Value.text("b")), ("height", Value.num(3))])
    subjected.add_action(painter, wall2)

    loose = Net()
    r = loose.add_object([("colour", Value.unset())])
    loose.add_action(None, r)
    # loose semantics: extra names and present subjects are fine
    assert find_matches(loose, net, limit=1)
    assert find_matches(loose, subjected, limit=1)


class _CountingLimit(int):
    """A max_nodes that counts the order comparisons made against it:
    the enumeration makes one per root and one or two per subset it
    visits."""

    def _counting(op):
        def compare(self, other):
            self.compared += 1
            return op(int(self), other)
        return compare

    compared = 0
    __lt__, __le__, __gt__, __ge__ = map(_counting, (operator.lt, operator.le,
                                                     operator.gt, operator.ge))
    del _counting


def test_mining_a_hub_visits_subsets_quadratic_in_its_legs():
    # the hub with two of its actions lacks two targets, which leave no
    # room for a third action at max_nodes 4; unpruned, the visits grow
    # cubically (6 to 7 times per doubling of the legs)
    visited = []
    for legs in (10, 20, 40, 80):
        limit = _CountingLimit(4)
        _closed_subsets(_bit_rows(star_net(legs))[1], {}, limit)
        visited.append(limit.compared)
    assert visited[0] > 100
    assert all(more <= 4.5 * fewer for fewer, more in zip(visited, visited[1:])), visited


def test_pruned_enumeration_keeps_every_closed_subset():
    rng = random.Random(2021)
    nets = ([_vocab_net(rng) for _ in range(30)] + [star_net(k) for k in range(1, 7)]
            + [chain_net(k) for k in range(1, 8)])
    for net in nets:
        rows = _bit_rows(net)[1]
        for max_nodes in range(1, 9):
            assert _closed_subsets(rows, {}, max_nodes) == \
                closed_subsets_unpruned(rows, {}, max_nodes)
