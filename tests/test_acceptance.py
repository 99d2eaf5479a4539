"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS line when its criterion holds; a failing
criterion fails the test outright.
"""

import copy
import random
from pathlib import Path

from krn import (
    Answer,
    Lexicon,
    Net,
    Value,
    apply_undo,
    collapse_to_object,
    expand,
    mine_concepts,
    nets_equal,
    parse,
    query_has,
    shape,
    store,
)
from krn.script import ExecContext, execute
from krn.sim import classify_change, diff, run_action, snapshot, timeline_of

from helpers import chameleon_signals, peter_net, person_net, random_net, tv_net, wall_net
from oracle_eval import gen_expr, gen_safe_script
from oracle_iso import nets_isomorphic
from oracle_mining import oracle_mine, same_result
from test_core import run_fuzz
from test_script_oracle import _interp_outcome, _oracle_outcome, _seeded_net


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_acceptance_1_bipartite_fuzz():
    # 12k steps keeps successful mutations above the 10^4 bar even though
    # a slice of them are deliberate rejection probes
    net = run_fuzz(0xF00D, 12_000)
    report = net.validate_bipartite()
    assert report.ok, report.violations
    for oid, obj in net.objects.items():
        for aid in obj.outgoing:
            assert net.actions[aid].subject == oid
        for aid in obj.incoming:
            assert net.actions[aid].target == oid
    for aid, act in net.actions.items():
        assert act.subject is None or act.subject in net.objects
        assert act.target in net.objects
    _ok(1, "bipartite-fuzz")


def test_acceptance_2_wall_vignette():
    net, man, wall, paint = wall_net()
    changes = run_action(net, paint)
    tl = timeline_of(net)
    observed = diff(tl.snapshots[-2], tl.snapshots[-1])
    assert [(c.node, c.name, c.before, c.after) for c in observed] == [
        (wall, "colour", Value.text("green"), Value.text("black")),
    ]
    assert [(c.node, c.name, c.before, c.after) for c in changes] == [
        (wall, "colour", Value.text("green"), Value.text("black")),
    ]
    assert query_has(net, wall, "colour==black") is Answer.YES_ASSERTED
    _ok(2, "wall-vignette")


def test_acceptance_3_peter_vignette():
    net, peter, concept_id = peter_net()
    assert query_has(net, peter, "head") is Answer.YES_INFERRED
    assert shape(net, peter, concept_id) == []  # idempotent after on-demand shaping
    again = shape(net, peter, concept_id)
    assert again == []
    _ok(3, "peter-vignette")


def test_acceptance_4_mike_jack_mining():
    mike = person_net(leg_length=80, arm_length=70)
    jack = person_net(leg_length=95, arm_length=77)
    assert len(mike.node_ids()) <= 12 and len(jack.node_ids()) <= 12
    templates = mine_concepts([mike, jack], min_support=2, max_pattern_nodes=7)
    assert len(templates) == 1
    assert templates[0].support == 2
    from krn import find_matches

    assert find_matches(templates[0].pattern, mike, limit=1)
    assert find_matches(templates[0].pattern, jack, limit=1)
    small = mine_concepts([mike, jack], min_support=2, max_pattern_nodes=4)
    assert same_result(small, oracle_mine([mike, jack], 2, 4))
    _ok(4, "mike-jack-mining")


def test_acceptance_5_tv_set_abstraction():
    net, inside, press, show, person = tv_net()
    assert len(inside) >= 6
    original = copy.deepcopy(net)
    tv = collapse_to_object(net, inside)
    assert net.actions[press].target == tv
    assert net.actions[show].subject == tv
    assert set(net.objects[tv].incoming) == {press}
    assert set(net.objects[tv].outgoing) == {show}
    assert net.validate_bipartite().ok
    expand(net, tv)
    assert net.validate_bipartite().ok
    assert nets_isomorphic(net, original)
    _ok(5, "tv-set-abstraction")


def test_acceptance_6_chameleon_memory():
    net = Net()
    chameleon = net.add_object([])
    grey, green = chameleon_signals()
    net.ingest_signal(chameleon, "colour", grey)
    before = snapshot(net)
    net.ingest_signal(chameleon, "colour", green)
    after = snapshot(net)
    changes = diff(before, after)
    assert len(changes) == 1
    assert classify_change(changes[0]) == "changing-colour"
    rng = random.Random(66)
    for _ in range(100):
        rnet, _ = random_net(rng, with_labels=False)
        snap = snapshot(rnet)
        assert diff(snap, snap) == []
    _ok(6, "chameleon-memory")


def test_acceptance_7_lexicon_fallback():
    lex = Lexicon()
    wall = 11
    lex.set_label(wall, "en", "wall")
    assert lex.label_of(wall, "fr") == ("wall", "en")
    fly_bird, fly_human = 21, 22
    lex.set_label(fly_bird, "en", "flying")
    lex.set_label(fly_human, "en", "flying")
    assert lex.lookup("en", "flying") == {fly_bird, fly_human}
    _ok(7, "lexicon-fallback")


def test_acceptance_8_lazy_loading(tmp_path):
    net = Net()
    first = net.add_object([("colour", Value.text("green")), ("mass", Value.num(0))])
    for i in range(999):
        net.add_object([("colour", Value.text(f"c{i}")), ("mass", Value.num(i))])
    probe = net.add_action(None, first, "set object.probed = true;")
    path = str(tmp_path / "bulk.krn")
    store.save(net, None, path)
    with store.open(path) as handle:
        lazy = Net()
        handle.load_stub(first, lazy)
        handle.hydrate_property(first, "colour", lazy)
        handle.hydrate_property(first, "mass", lazy)
        # only the one object's properties were ever hydrated
        assert handle.stats.properties_hydrated == 2
        assert all(key[0] == first for key in handle._hydrated_props)
        assert handle.stats.scripts_hydrated == 0
        handle.load_stub(probe, lazy)
        assert handle.stats.scripts_hydrated == 0
        run_action(lazy, probe, handle)
        assert handle.stats.scripts_hydrated == 1
        run_action(lazy, probe, handle)
        assert handle.stats.scripts_hydrated == 1
    _ok(8, "lazy-loading")


def test_acceptance_9_interpreter_oracle():
    rng = random.Random(0xACE)
    net, subject, target, action, env, env_names = _seeded_net()
    for _ in range(1000):
        want = rng.choice(["num", "num", "bool", "bool", "text"])
        source = gen_expr(rng, want, rng.randrange(1, 5), env_names)
        assert _interp_outcome(net, subject, target, action, source) == \
            _oracle_outcome(source, env)
    for _ in range(100):
        net, subject, target, action, env, env_names = _seeded_net()
        script = gen_safe_script(rng, env_names)
        before = copy.deepcopy(net)
        changes = execute(parse(script), ExecContext(net, target, subject, action))
        apply_undo(net, changes)
        assert nets_equal(net, before)
    _ok(9, "interpreter-oracle")


def test_acceptance_10_round_trip_persistence(tmp_path):
    rng = random.Random(0xBEEF)
    for i in range(50):
        net, lexicon = random_net(rng)
        path = str(tmp_path / f"rt{i}.krn")
        store.save(net, lexicon, path)
        with store.open(path) as handle:
            loaded, loaded_lex = handle.load_full()
        assert nets_equal(net, loaded)
        assert loaded_lex.items() == lexicon.items()
        again = str(tmp_path / f"rt{i}b.krn")
        store.save(net, lexicon, again)
        assert Path(path).read_bytes() == Path(again).read_bytes()
    _ok(10, "round-trip-persistence")
