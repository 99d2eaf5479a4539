import gc
import random
import weakref

import pytest

from krn import ConceptTemplate, Net, ScriptRef, Value, reasoning, store
from krn.core import PropLoad, SensorAddress, SensorSignal
from krn.errors import BatchError, FormatError, KrnError, ScriptParseError, UnknownScript
from krn.script import ExecContext, apply_undo, execute, parse
from krn.sim import Snapshot, classify_change, diff, load_verb_table, run_action, run_pending, snapshot, timeline_of

from helpers import chameleon_signals, person_pattern, rand_name, rand_value, random_net, wall_net


def test_snapshot_captures_hydrated_state():
    net = Net()
    chameleon = net.add_object([])
    grey, _ = chameleon_signals()
    net.ingest_signal(chameleon, "colour", grey)
    snap = snapshot(net)
    assert (chameleon, "colour") in snap.state
    assert snap.state[(chameleon, "colour")].data.payload == grey.payload


def test_snapshot_of_empty_net():
    net = Net()
    snap = snapshot(net)
    assert snap.state == {}


def test_two_snapshots_without_mutation_are_equal_states():
    net = Net()
    net.add_object([("x", Value.num(1))])
    a = snapshot(net)
    b = snapshot(net)
    assert a.state == b.state
    assert b.tick > a.tick


def test_timeline_ticks_strictly_increase():
    net = Net()
    tl = timeline_of(net)
    ticks = [snapshot(net).tick for _ in range(5)]
    assert ticks == sorted(ticks)
    assert len(set(ticks)) == 5
    with pytest.raises(ValueError):
        tl.append(Snapshot(ticks[0], {}))


def test_run_action_paints_wall():
    net, man, wall, paint = wall_net()
    changes = run_action(net, paint)
    assert [(c.node, c.name, c.before, c.after) for c in changes] == [
        (wall, "colour", Value.text("green"), Value.text("black")),
    ]
    tl = timeline_of(net)
    assert len(tl) == 2
    pre, post = tl.snapshots
    assert diff(pre, post) == [c for c in diff(pre, post)]
    assert net.get_property(wall, "colour") == Value.text("black")


def test_run_action_with_empty_script():
    net = Net()
    wall = net.add_object([("colour", Value.text("green"))])
    act = net.add_action(None, wall, "")
    changes = run_action(net, act)
    assert changes == []
    tl = timeline_of(net)
    assert tl.snapshots[-2].state == tl.snapshots[-1].state


def test_run_action_without_script():
    net = Net()
    wall = net.add_object([])
    act = net.add_action(None, wall)
    with pytest.raises(UnknownScript):
        run_action(net, act)


def test_changeset_agrees_with_diff():
    net, man, wall, paint = wall_net()
    changes = run_action(net, paint)
    tl = timeline_of(net)
    pre, post = tl.snapshots[-2], tl.snapshots[-1]
    observed = diff(pre, post)
    assert [(c.node, c.name, c.before, c.after) for c in observed] == \
        [(c.node, c.name, c.before, c.after) for c in changes]


def test_run_pending_sequences_effects():
    net = Net()
    snail = net.add_object([("position", Value.num(0))])
    move1 = net.add_action(None, snail, "set object.position = object.position + 1;")
    move2 = net.add_action(None, snail, "set object.position = object.position + 1;")
    results = run_pending(net, [move1, move2])
    assert [c.after for cs in results for c in cs] == [Value.num(1.0), Value.num(2.0)]
    assert net.get_property(snail, "position") == Value.num(2.0)
    # batch snapshots wrap the per-action ones: 2 + 2 per action
    assert len(timeline_of(net)) == 6


def test_batch_composition_equals_sequential_changesets():
    net = Net()
    snail = net.add_object([("position", Value.num(0)), ("colour", Value.text("brown"))])
    moves = [
        net.add_action(None, snail, "set object.position = object.position + 1;"),
        net.add_action(None, snail, 'set object.colour = "amber";'),
        net.add_action(None, snail, "set object.position = object.position * 10;"),
    ]
    pre = snapshot(net)
    results = run_pending(net, moves)
    state = dict(pre.state)
    for changes in results:
        for c in changes:
            if c.after is None:
                state.pop((c.node, c.name), None)
            else:
                state[(c.node, c.name)] = c.after
    assert state == timeline_of(net).latest().state


def test_run_pending_failure_keeps_earlier_effects():
    net = Net()
    snail = net.add_object([("position", Value.num(0))])
    ok = net.add_action(None, snail, "set object.position = 1;")
    broken = net.add_action(None, snail)  # no script
    never = net.add_action(None, snail, "set object.position = 99;")
    with pytest.raises(BatchError) as err:
        run_pending(net, [ok, broken, never])
    assert err.value.index == 1
    assert len(err.value.completed) == 1
    assert net.get_property(snail, "position") == Value.num(1.0)


def test_run_stub_action_hydrates_once(tmp_path):
    net, man, wall, paint = wall_net()
    path = tmp_path / "wall.krn"
    store.save(net, None, str(path))
    with store.open(str(path)) as handle:
        target = Net()
        handle.load_stub(paint, target)
        handle.hydrate_property(wall, "colour", target)
        changes = run_action(target, paint, handle)
        assert handle.stats.scripts_hydrated == 1
        assert changes[0].after == Value.text("black")
        run_action(target, paint, handle)
        assert handle.stats.scripts_hydrated == 1


def test_run_stub_action_without_a_store_is_an_unknown_script(tmp_path):
    net, man, wall, paint = wall_net()
    path = tmp_path / "wall.krn"
    store.save(net, None, str(path))
    with store.open(str(path)) as handle:
        target = Net()
        handle.load_stub(paint, target)
    with pytest.raises(UnknownScript, match="stubbed and no store given"):
        run_action(target, paint)
    assert target.actions[paint].script.state == "stub"


def test_a_script_ref_made_from_text_alone_runs_through_the_parse_memo(tmp_path):
    net = Net()
    wall = net.add_object([("x", Value.num(0))])
    paint = net.add_action(None, wall)
    path = tmp_path / "net.krn"
    store.save(net, None, str(path))
    net.actions[paint].script = ScriptRef("set object.x = 1;")
    run_action(net, paint)
    assert net.get_property(wall, "x") == Value.num(1)
    net.actions[paint].script = ScriptRef("set object.x = ;")
    with pytest.raises(ScriptParseError):
        run_action(net, paint)
    with store.open(str(path)) as handle:
        target = Net()
        handle.load_stub(paint, target)
        target.actions[paint].script = ScriptRef("set object.x = 2;")
        assert handle.hydrate_script(paint, target) is parse("set object.x = 2;")


def test_diff_chameleon():
    net = Net()
    chameleon = net.add_object([])
    grey, green = chameleon_signals()
    net.ingest_signal(chameleon, "colour", grey)
    before = snapshot(net)
    net.ingest_signal(chameleon, "colour", green)
    after = snapshot(net)
    changes = diff(before, after)
    assert len(changes) == 1
    assert changes[0].node == chameleon
    assert changes[0].name == "colour"
    assert classify_change(changes[0]) == "changing-colour"


def test_diff_identity_and_reversal():
    rng = random.Random(4242)
    for _ in range(100):
        net, _ = random_net(rng, with_labels=False)
        snap = snapshot(net)
        assert diff(snap, snap) == []
    for _ in range(30):
        net, _ = random_net(rng, with_labels=False)
        a = snapshot(net)
        if net.objects and rng.random() < 0.8:
            nid = rng.choice(sorted(net.objects))
            net.set_property(nid, "jitter", Value.num(rng.random()))
        b = snapshot(net)
        fwd = diff(a, b)
        rev = diff(b, a)
        assert [(c.node, c.name, c.before, c.after) for c in fwd] == \
            [(c.node, c.name, c.after, c.before) for c in rev]


def test_diff_reports_appear_and_disappear():
    a = Snapshot(1, {(1, "x"): Value.num(1)})
    b = Snapshot(2, {(1, "y"): Value.num(2)})
    changes = diff(a, b)
    assert [(c.name, c.before, c.after) for c in changes] == [
        ("x", Value.num(1), None),
        ("y", None, Value.num(2)),
    ]


def test_classify_change_table():
    move = diff(Snapshot(1, {(1, "position"): Value.num(0)}),
                Snapshot(2, {(1, "position"): Value.num(1)}))[0]
    assert classify_change(move) == "moving"
    unknown = diff(Snapshot(3, {(1, "weight"): Value.num(0)}),
                   Snapshot(4, {(1, "weight"): Value.num(1)}))[0]
    assert classify_change(unknown) is None


def test_verb_table_config(tmp_path):
    cfg = tmp_path / "verbs.cfg"
    cfg.write_text("# custom verbs\nVERB weight gaining-weight\nVERB colour repainting\n")
    table = load_verb_table(str(cfg))
    assert table["weight"] == "gaining-weight"
    assert table["colour"] == "repainting"      # file overrides default
    assert table["position"] == "moving"        # defaults kept
    change = diff(Snapshot(1, {(1, "weight"): Value.num(0)}),
                  Snapshot(2, {(1, "weight"): Value.num(1)}))[0]
    assert classify_change(change, table=table) == "gaining-weight"
    bad = tmp_path / "bad.cfg"
    bad.write_text("VERB only-two\n")
    with pytest.raises(FormatError):
        load_verb_table(str(bad))
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes("VERB weight gaining\nVERB colour r\xe9painting\n".encode("latin-1"))
    with pytest.raises(FormatError, match=r"^undecodable line \(line 2\)$"):
        load_verb_table(str(undecodable))


def test_classify_change_renders_through_lexicon():
    from krn import Lexicon

    net = Net()
    verb_node = net.add_object([])
    lexicon = Lexicon()
    lexicon.set_label(verb_node, "en", "moving")
    lexicon.set_label(verb_node, "fr", "bouger")
    change = diff(Snapshot(1, {(1, "position"): Value.num(0)}),
                  Snapshot(2, {(1, "position"): Value.num(1)}))[0]
    assert classify_change(change, lexicon, "fr") == "bouger"
    # empty lexicon falls back to the verb key itself
    assert classify_change(change, Lexicon(), "fr") == "moving"


def test_snapshot_skips_stub_properties(tmp_path):
    net = Net()
    man = net.add_object([("married", Value.truth(True)), ("hand", Value.text("l"))])
    path = tmp_path / "m.krn"
    store.save(net, None, str(path))
    with store.open(str(path)) as handle:
        target = Net()
        handle.load_stub(man, target)
        handle.hydrate_property(man, "hand", target)
        snap = snapshot(target)
        assert (man, "hand") in snap.state
        assert (man, "married") not in snap.state
        assert handle.stats.properties_hydrated == 1  # snapshot hydrated nothing


# ------------------------------------------------ delta timeline oracle

def _full_scan_state(net):
    """The full-copy snapshot body the delta timeline replaces."""
    state = {}
    for nid in net.node_ids():
        rec = net.node(nid)
        for name, prop in rec.properties.items():
            if prop.load_state is PropLoad.HYDRATED:
                state[(nid, name)] = prop.value
    return state


def _neighbours(net, nid):
    if nid in net.objects:
        return net.objects[nid].outgoing + net.objects[nid].incoming
    act = net.actions[nid]
    return [n for n in (act.subject, act.target) if n is not None]


def _mutate(rng, net, handle, stored, signals, last_run):
    """One random mutation through a public path; engine errors are fine."""
    nodes = net.node_ids()
    objects = sorted(net.objects)
    actions = sorted(net.actions)
    roll = rng.randrange(13)
    if roll == 0 and nodes:
        nid = rng.choice(nodes)
        net.set_property(nid, rand_name(rng), rand_value(rng, net))
    elif roll == 1 and nodes:
        rec = net.node(rng.choice(nodes))
        if rec.properties:
            net.erase_property(rec.id, rng.choice(sorted(rec.properties)))
    elif roll == 2:
        if objects and rng.random() < 0.5:
            subject = rng.choice(objects) if rng.random() < 0.5 else None
            net.add_action(subject, rng.choice(objects), "set object.x = 7;",
                           [("w", rand_value(rng, net))])
        else:
            net.add_object([("x", rand_value(rng, net))])
    elif roll == 3 and nodes:
        net.erase_node(rng.choice(nodes))
    elif roll == 4 and objects:
        # a repeat of an equal signal still replaces the stored value object
        net.ingest_signal(rng.choice(objects), "colour", rng.choice(signals))
    elif roll == 5 and actions:
        last_run[:] = run_action(net, rng.choice(actions), handle)
    elif roll == 6:
        apply_undo(net, last_run)
        last_run.clear()
    elif roll == 7:
        handle.load_stub(rng.choice(stored), net)
    elif roll == 8:
        nid = rng.choice(stored)
        names = sorted(handle.props.get(nid, ()))
        if names:
            handle.hydrate_property(nid, rng.choice(names), net)
    elif roll == 9:
        handle.evict(rng.choice(stored), net)
    elif roll == 10 and objects and rng.random() < 0.5:
        inside = {rng.choice(objects)}
        for _ in range(rng.randrange(3)):
            nbs = [n for m in sorted(inside) for n in _neighbours(net, m)]
            if nbs:
                inside.add(rng.choice(nbs))
        reasoning.collapse_to_object(net, inside)
    elif roll == 10 and objects:
        # an object with all its actions is bounded by objects
        obj = rng.choice(objects)
        acts = [net.actions[a] for a in _neighbours(net, obj)]
        inside = {obj, *(a.id for a in acts)}
        subjects = sorted({a.subject for a in acts} - inside - {None})
        targets = sorted({a.target for a in acts} - inside)
        reasoning.collapse_to_action(net, inside, subject_hint=(subjects or [None])[0],
                                     target_hint=(targets or [None])[0])
    elif roll == 11:
        complex_nodes = [n for n in nodes if net.node(n).collapse_payload is not None]
        if complex_nodes:
            reasoning.expand(net, rng.choice(complex_nodes))
    elif roll == 12 and objects:
        pattern, root = person_pattern()
        concept = reasoning.register_concept(net, ConceptTemplate(pattern, root, support=2))
        instance = rng.choice(objects)
        net.add_isa(instance, concept)
        reasoning.shape(net, instance, concept)


def test_delta_timeline_matches_full_scan_oracle(tmp_path):
    rng = random.Random(9031)
    grey, green = chameleon_signals()
    signals = [grey, green, SensorSignal(SensorAddress.of("eye", "ch1"), grey.payload)]
    for round_no in range(60):
        source, _ = random_net(rng, with_labels=False)
        path = str(tmp_path / f"src{round_no}.krn")
        store.save(source, None, path)
        with store.open(path) as handle:
            stored = sorted(handle.index)
            net = Net()
            net.bump_id(max(stored))    # fresh nodes never collide with stored ids
            for _ in range(rng.randrange(1, 5)):
                net.add_object([(rand_name(rng), rand_value(rng, net))])
            snaps, refs, last_run = [], [], []
            for _ in range(30):
                for _ in range(rng.randrange(4)):
                    try:
                        _mutate(rng, net, handle, stored, signals, last_run)
                    except KrnError:
                        pass
                snap = snapshot(net)
                ref = _full_scan_state(net)
                assert dict(snap.state) == ref
                assert len(snap.state) == len(ref)
                assert all(snap.state[key] is value for key, value in ref.items())
                snaps.append(snap)
                refs.append(ref)
            tl = timeline_of(net)
            for snap, ref in zip(snaps, refs):    # earlier versions are unchanged
                assert tl.by_tick(snap.tick) is snap
                assert dict(snap.state) == ref and len(snap.state) == len(ref)
            for _ in range(30):
                i, j = rng.randrange(len(snaps)), rng.randrange(len(snaps))
                assert diff(snaps[i], snaps[j]) == diff(Snapshot(0, refs[i]), Snapshot(1, refs[j]))


def test_hydration_between_snapshots_shows_as_appearance(tmp_path):
    net, man, wall, paint = wall_net()
    path = str(tmp_path / "wall.krn")
    store.save(net, None, path)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(wall, target)
        before = snapshot(target)
        handle.hydrate_property(wall, "colour", target)
        after = snapshot(target)
    assert [(c.node, c.name, c.before, c.after) for c in diff(before, after)] == [
        (wall, "colour", None, Value.text("green")),
    ]


def test_run_action_records_only_changed_keys():
    net = Net()
    objs = [net.add_object([("x", Value.num(0)), ("y", Value.num(i))]) for i in range(1000)]
    acts = [net.add_action(None, o, "set object.x = object.x + 1;") for o in objs]
    run_action(net, acts[0])
    run_action(net, acts[500])
    tl = timeline_of(net)
    pre, post = tl.snapshots[-2].state, tl.snapshots[-1].state
    assert pre.changed[pre.version] == []
    assert post.changed[post.version] == [(objs[500], "x")]
    # the first scan is the base and records no key; then one entry per change
    assert sum(len(keys) for keys in post.changed) == 2
    assert len(post) == 2000
    assert diff(tl.snapshots[-2], tl.snapshots[-1])[0].after == Value.num(1)


def test_a_key_reads_its_base_value_until_its_first_change():
    net = Net()
    wall = net.add_object([("x", Value.num(1)), ("y", Value.num(7))])
    states = [snapshot(net).state]                      # version 0: the base
    states.append(snapshot(net).state)                  # 1: nothing changed
    net.set_property(wall, "x", Value.num(2))
    states.append(snapshot(net).state)                  # 2: x changes
    net.set_property(wall, "z", Value.num(5))
    states.append(snapshot(net).state)                  # 3: z appears
    net.erase_property(wall, "x")
    states.append(snapshot(net).state)                  # 4: x is erased
    key = (wall, "x")
    assert [s.version for s in states] == [0, 1, 2, 3, 4]
    assert [s.get(key) for s in states] == [Value.num(1)] * 2 + [Value.num(2)] * 2 + [None]
    assert [key in s for s in states] == [True] * 4 + [False]
    assert [s[(wall, "y")] for s in states] == [Value.num(7)] * 5
    assert [s.get((wall, "z")) for s in states] == [None] * 3 + [Value.num(5)] * 2
    # version 0 built no history; x's starts at version 0 once x changes, y has none
    history = states[0].history
    assert history[key] == ([0, 2, 4], [Value.num(1), Value.num(2), None])
    assert (wall, "y") not in history and states[0].changed[0] == []
    # iteration and len agree with get at every version
    for s in states:
        assert len(list(s)) == len(s) == len(set(s))
        assert all(s.get(k) is not None for k in s)
    assert sorted(states[1]) == [(wall, "x"), (wall, "y")]
    assert sorted(states[3]) == [(wall, "x"), (wall, "y"), (wall, "z")]
    assert sorted(states[4]) == [(wall, "y"), (wall, "z")]
    assert diff(Snapshot(0, states[0]), Snapshot(4, states[4])) == diff(
        Snapshot(0, dict(states[0])), Snapshot(4, dict(states[4])))


def test_a_write_put_back_before_the_next_snapshot_starts_no_history():
    """A key whose live value is its first pre-image at a fold keeps one
    value object throughout, so its later first change can start its
    history at version 0 from the journal's pre-image."""
    net = Net()
    wall = net.add_object([("x", Value.num(1)), ("y", Value.num(7))])
    key = (wall, "x")
    snaps = [snapshot(net)]                             # version 0
    apply_undo(net, execute(parse("set object.x = 5;"), ExecContext(net, wall)))
    snaps.append(snapshot(net))                         # 1: x written, then put back
    assert key not in snaps[1].state.history and net.journal == {}
    net.set_property(wall, "x", Value.num(2))
    # the write waits in the journal: both versions read its pre-image
    assert [s.state.get(key) for s in snaps] == [Value.num(1)] * 2
    snaps.append(snapshot(net))                         # 2: x changes
    states = [s.state for s in snaps]
    assert [s.get(key) for s in states] == [Value.num(1), Value.num(1), Value.num(2)]
    assert [len(s) for s in states] == [2, 2, 2]
    assert [sorted(s) for s in states] == [[key, (wall, "y")]] * 3
    assert states[0].changed == [[], [], [key]]
    assert diff(snaps[0], snaps[1]) == []
    assert [(c.node, c.name, c.before, c.after) for c in diff(snaps[1], snaps[2])] == [
        (wall, "x", Value.num(1), Value.num(2))]


# ------------------------------------------------ the change journal

_UNSET_SCRIPTS = [
    "unset object.colour;",
    'unset object.position;\nset object.colour = "grey";',
    "set object.position = 4; unset self.speed;",
]


def test_delta_timeline_over_a_loaded_net_matches_full_scan_oracle(tmp_path):
    """The oracle above starts from an empty net; this one from a loaded
    net, whose version 0 reads the live records until a write journals a
    key. A run's own two snapshots are checked as well."""
    rng = random.Random(5087)
    grey, green = chameleon_signals()
    signals = [grey, green]
    for round_no in range(40):
        source, _ = random_net(rng, with_labels=False)
        for oid in sorted(source.objects):
            if rng.random() < 0.5:
                source.add_action(None, oid, rng.choice(_UNSET_SCRIPTS))
        path = str(tmp_path / f"src{round_no}.krn")
        store.save(source, None, path)
        net, _ = store.load(path)
        with store.open(path) as handle:
            stored = sorted(handle.index)
            snaps, refs, last_run = [], [], []
            for _ in range(25):
                snap = snapshot(net)
                ref = _full_scan_state(net)
                assert dict(snap.state) == ref and len(snap.state) == len(ref)
                assert all(snap.state[key] is value for key, value in ref.items())
                snaps.append(snap)
                refs.append(ref)
                for old, old_ref in zip(snaps, refs):      # earlier versions are unchanged
                    assert dict(old.state) == old_ref and len(old.state) == len(old_ref)
                for _ in range(5):
                    i, j = rng.randrange(len(snaps)), rng.randrange(len(snaps))
                    assert diff(snaps[i], snaps[j]) == diff(Snapshot(0, refs[i]), Snapshot(1, refs[j]))
                tl = net.timeline
                for _ in range(rng.randrange(4)):
                    pre, count = _full_scan_state(net), len(tl)
                    try:
                        _mutate(rng, net, handle, stored, signals, last_run)
                    except KrnError:
                        pass
                    ran = tl.snapshots[count:]      # a run snapshots before and after its script
                    snaps += ran
                    refs += [pre, _full_scan_state(net)][:len(ran)]


class _CountingRecords(dict):
    """A net's record dict that counts the records it hands out."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def items(self):
        self.reads += len(self)
        return super().items()

    def values(self):
        self.reads += len(self)
        return super().values()


def test_first_run_after_a_load_reads_as_many_records_at_any_size(tmp_path):
    reads = []
    for n in (100, 10_000):
        net = Net()
        objs = [net.add_object([("x", Value.num(i)), ("y", Value.text("a"))]) for i in range(n)]
        paint = net.add_action(objs[0], objs[-1], "set object.x = 1;")
        path = str(tmp_path / f"n{n}.krn")
        store.save(net, None, path)
        loaded, _ = store.load(path)
        loaded.objects = _CountingRecords(loaded.objects)
        loaded.actions = _CountingRecords(loaded.actions)
        changes = run_action(loaded, paint)
        assert [(c.node, c.name, c.after) for c in changes] == [(objs[-1], "x", Value.num(1))]
        reads.append(loaded.objects.reads + loaded.actions.reads)
        assert len(timeline_of(loaded).latest().state) == 2 * n
    assert reads[0] == reads[1]


def test_a_net_without_a_snapshot_keeps_no_journal(tmp_path):
    net = Net()
    objs = [net.add_object([("x", Value.num(i))]) for i in range(10_000)]
    for oid in objs:
        net.set_property(oid, "x", Value.num(-1))
    assert net.journal is None
    path = str(tmp_path / "n.krn")
    store.save(net, None, path)
    target = Net()
    with store.open(path) as handle:
        for i in range(10_000):
            oid = objs[i % 100]
            handle.hydrate_property(oid, "x", target)
            handle.evict(oid, target)
    assert handle.stats.properties_hydrated == 100
    assert target.journal is None and target.timeline is None


def test_a_retained_snapshot_keeps_no_net_alive():
    gc.disable()
    try:
        net, man, wall, paint = wall_net()
        first = snapshot(net)
        run_action(net, paint)
        net.set_property(wall, "colour", Value.text("red"))
        last = snapshot(net)
        alive = weakref.ref(net)
        del net
        assert alive() is None
        assert first.state[(wall, "colour")] == Value.text("green")
        assert last.state[(wall, "colour")] == Value.text("red")
        assert [c.after for c in diff(first, last)] == [Value.text("red")]
    finally:
        gc.enable()


def test_a_read_between_a_write_and_the_next_snapshot_sees_the_old_value():
    net = Net()
    wall = net.add_object([("colour", Value.text("green"))])
    base = snapshot(net)
    net.set_property(wall, "colour", Value.text("red"))
    net.erase_node(wall)
    assert base.state[(wall, "colour")] == Value.text("green")
    assert len(base.state) == 1
    later = snapshot(net)
    assert later.state == {} and len(later.state) == 0
    assert base.state[(wall, "colour")] == Value.text("green")
    assert net.journal == {}
