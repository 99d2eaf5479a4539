"""The public reasoning calls under hostile arguments: each refuses with a
typed error before it changes anything, and leaves a valid net."""

import copy
import random

import pytest

from krn import (
    ConceptTemplate,
    Net,
    Value,
    collapse_to_action,
    collapse_to_object,
    compute_boundary,
    concept_of,
    expand,
    find_matches,
    mine_concepts,
    nets_equal,
    parse_fragment,
    query_has,
    register_concept,
    shape,
)
from krn.errors import BoundaryViolation, KrnError, UnknownConcept, UnknownNode
from krn.reasoning import extract_pattern, fragment_state, shape_all

from helpers import person_pattern, structure_net


def test_extract_pattern_refuses_an_unknown_id_and_an_open_action():
    net = Net()
    man, hat = net.add_object([]), net.add_object([("hat", Value.unset())])
    wears = net.add_action(man, hat)
    with pytest.raises(UnknownNode):
        extract_pattern(net, {man, 99})
    with pytest.raises(BoundaryViolation, match=f"action {wears} has its target {hat}"):
        extract_pattern(net, {man, wears})
    assert sorted(extract_pattern(net, {man, hat, wears}).node_ids()) == [1, 2, 3]


@pytest.mark.parametrize("root", [5, 99])   # an action of the pattern, no node of it
def test_register_concept_refuses_a_root_that_is_not_a_pattern_object(root):
    pattern, _ = person_pattern()
    net = Net()
    net.add_object([])
    before = copy.deepcopy(net)
    with pytest.raises(UnknownConcept):
        register_concept(net, ConceptTemplate(pattern, root))
    assert nets_equal(net, before) and net.next_id == before.next_id


_FRAGMENTS = ["a", "b", "has a", "has b", "a == 1", "b != x", "a >", "has", "=="]


def _small_net(rng: random.Random) -> Net:
    return structure_net(rng, rng.randint(1, 5), rng.randint(0, 5), ["a", "b"])


def _part_pattern() -> Net:
    """A whole (1) with one part that carries `a`."""
    pattern = Net()
    pattern.add_action(pattern.add_object([]), pattern.add_object([("a", Value.unset())]))
    return pattern


class _World:
    """A net under fuzzing, with the patterns and templates earlier calls made."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.net = _small_net(rng)
        instances = list(self.net.objects)
        self.patterns = [_small_net(rng)]
        self.templates = []
        self.complex = []   # the collapses' complex nodes
        self.concepts = [register_concept(self.net, ConceptTemplate(_part_pattern(), 1))]
        for inst in rng.sample(instances, rng.randint(0, len(instances))):
            self.net.add_isa(inst, self.concepts[0])

    def nid(self, net=None):
        return self.rng.choice((net or self.net).node_ids() + [0, -1, 999])

    def subset(self):
        return {self.nid() for _ in range(self.rng.randint(1, 3))}

    def edge(self):
        """An is-a edge of the net, more often than not, or two drawn ids."""
        if self.net.isa_edges and self.rng.random() < 0.7:
            return self.rng.choice(self.net.isa_edges)
        return self.nid(), self.nid()

    def template(self):
        if self.templates and self.rng.random() < 0.7:
            return self.rng.choice(self.templates)
        pattern = self.rng.choice(self.patterns)
        return ConceptTemplate(pattern, self.nid(pattern))

    def keep(self, name: str, result):
        if name.startswith("collapse"):
            self.complex.append(result)
        elif name == "register_concept":
            self.concepts.append(result)
        elif isinstance(result, Net) and result.node_ids():
            self.patterns.append(result)
        elif isinstance(result, ConceptTemplate):
            self.templates.append(result)
        elif isinstance(result, list):
            self.templates += [t for t in result if isinstance(t, ConceptTemplate)]

    def calls(self):
        """One call of each public reasoning entry, its arguments drawn now."""
        rng, net = self.rng, self.net
        pattern = rng.choice(self.patterns)
        return {
            "extract_pattern": lambda: extract_pattern(net, self.subset()),
            "compute_boundary": lambda: compute_boundary(net, self.subset()),
            "collapse_to_object": lambda: collapse_to_object(net, self.subset()),
            "collapse_to_action": lambda: collapse_to_action(net, self.subset()),
            "expand": lambda: expand(net, rng.choice(self.complex + [self.nid()])),
            "find_matches": lambda: find_matches(pattern, net),
            "concept_of": lambda: concept_of(net, self.nid()),
            "register_concept": lambda: register_concept(net, self.template()),
            "add_isa": lambda: net.add_isa(self.nid(), rng.choice(self.concepts + [self.nid()])),
            "shape": lambda: shape(net, *self.edge()),
            "shape_all": lambda: shape_all(net, self.edge()[0]),
            "query_has": lambda: query_has(net, self.edge()[0], rng.choice(_FRAGMENTS)),
            "fragment_state": lambda: fragment_state(
                net, self.nid(), parse_fragment(rng.choice(_FRAGMENTS))),
            "mine_concepts": lambda: mine_concepts([net, pattern], 2, rng.randint(1, 3)),
        }


def _step(world: _World, name: str) -> bool:
    """Make one call; True if it was refused. Only a KrnError may escape,
    and a refused call must leave the net as it was."""
    before = copy.deepcopy(world.net)
    try:
        world.keep(name, world.calls()[name]())
    except KrnError:
        assert nets_equal(world.net, before), name
        return True
    return False


def test_reasoning_fuzz_refuses_typed_and_leaves_a_valid_net():
    rng = random.Random(7)
    refused, made = {}, {}
    for _ in range(40):
        world = _World(rng)
        for _ in range(25):
            name = rng.choice(list(world.calls()))
            if _step(world, name):
                refused[name] = refused.get(name, 0) + 1
            else:
                made[name] = made.get(name, 0) + 1
            assert world.net.validate_bipartite().ok, name
    # every call both succeeds and is refused somewhere, but for the calls
    # that never refuse on a live net's own ids
    assert made.keys() == world.calls().keys()
    assert refused.keys() == world.calls().keys() - {"find_matches", "shape_all", "mine_concepts"}
