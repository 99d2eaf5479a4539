import copy
import gc
import itertools
import math
import os
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest

from krn import (
    ConceptTemplate, Lexicon, Net, Provenance, SensorAddress, SensorSignal, Value,
    collapse_to_action, collapse_to_object, expand, nets_equal, register_concept, shape,
)
from krn import script, store
from krn.reasoning import parse_fragment
from krn.cli import Session, run_command, split_commands, split_words
from krn.script import apply_undo
from krn import sim
from krn.sim import run_action
from krn.core import ActionRecord, NodeLoad, ObjectRecord, PropertyRecord, PropLoad, ScriptRef
from krn.errors import (
    BipartiteViolation,
    EvictionBlocked,
    FormatError,
    KrnError,
    NoLabel,
    ScriptParseError,
    UnknownProperty,
    UnknownScript,
)

from helpers import kept_nets, person_pattern, rand_name, rand_value, random_net, wall_net


def _saved(tmp_path, net, lexicon=None, name="net.krn"):
    path = tmp_path / name
    store.save(net, lexicon, str(path))
    return str(path)


def _hydrated_lazily(path):
    """Every node stubbed in, every property and script hydrated through a
    handle; a handle keeps no labels."""
    with store.open(path) as handle:
        net = Net()
        for nid in sorted(handle.index):
            handle.load_stub(nid, net)
            for name in sorted(handle.props.get(nid, ())):
                handle.hydrate_property(nid, name, net)
            if nid in handle.scripts:
                handle.hydrate_script(nid, net)
        for inst, concept in sorted(handle.isa):
            net.add_isa(inst, concept)
    return net


def test_save_empty_net_is_header_only(tmp_path):
    path = _saved(tmp_path, Net())
    assert (tmp_path / "net.krn").read_bytes() == b"KRN 1\n"


def test_round_trip_wall(tmp_path):
    net, man, wall, paint = wall_net()
    lexicon = Lexicon()
    lexicon.set_label(wall, "en", "wall")
    lexicon.set_label(paint, "en", "paint")
    path = _saved(tmp_path, net, lexicon)
    with store.open(path) as handle:
        loaded, loaded_lex = handle.load_full()
    assert nets_equal(net, loaded)
    assert loaded_lex.items() == lexicon.items()
    assert loaded.actions[paint].script.text == 'set object.colour = "black";'


def test_save_is_byte_deterministic(tmp_path):
    rng = random.Random(17)
    net, lexicon = random_net(rng)
    p1 = _saved(tmp_path, net, lexicon, "a.krn")
    p2 = _saved(tmp_path, net, lexicon, "b.krn")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_round_trip_fifty_random_nets(tmp_path):
    rng = random.Random(20260809)
    for i in range(50):
        net, lexicon = random_net(rng)
        path = _saved(tmp_path, net, lexicon, f"net{i}.krn")
        with store.open(path) as handle:
            loaded, loaded_lex = handle.load_full()
        assert nets_equal(net, loaded), f"net {i} failed round trip"
        assert loaded_lex.items() == lexicon.items()
        # ticks on stored signals survive exactly
        for nid in net.node_ids():
            for name, prop in net.node(nid).properties.items():
                if prop.value.kind.value == "signal":
                    got = loaded.node(nid).properties[name].value.data
                    assert got.captured_at == prop.value.data.captured_at


def test_open_builds_index_without_hydration(tmp_path):
    saved = Path(_saved(tmp_path, wall_net()[0])).read_bytes()
    # a tokenised SCRIPT record (two spaces) before the last line: the scan
    # reads its block from inside the file, and still counts the whole file
    tokenised = b"KRN 1\nOBJ 1\nACT 2 - 1\nSCRIPT  2\n<<<\nset object.x = 1;\n>>>\nOBJ 3\n"
    for data in (saved, tokenised):
        path = tmp_path / "net.krn"
        path.write_bytes(data)
        with store.open(str(path)) as handle:
            assert handle.stats.bytes_read == len(data)
            assert handle.stats.objects_hydrated == 0
            assert handle.stats.properties_hydrated == 0
            assert handle.stats.scripts_hydrated == 0
            # index covers every OBJ and ACT record
            records = [line for line in data.split(b"\n") if line.startswith((b"OBJ ", b"ACT "))]
            assert len(handle.index) == len(records)


def test_open_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.krn"
    bad.write_text("not a net\n")
    with pytest.raises(FormatError) as err:
        store.open(str(bad))
    assert err.value.line == 1

    truncated = tmp_path / "trunc.krn"
    truncated.write_text("KRN 1\nOBJ 1\nACT 2 - 1\nSCRIPT 2\n<<<\nset object.x = 1;\n")
    with pytest.raises(FormatError) as err2:
        store.open(str(truncated))
    assert err2.value.line == 4

    dangling = tmp_path / "dangling.krn"
    dangling.write_text("KRN 1\nOBJ 1\nISA 1 9\n")
    with pytest.raises(FormatError):
        store.open(str(dangling))


def test_an_interrupted_open_closes_its_file(tmp_path, monkeypatch):
    # a file left open warns when it is collected, and the suite makes
    # that ResourceWarning an error
    path = tmp_path / "net.krn"
    path.write_text("KRN 1\nOBJ 1\n")

    def interrupted(buf, decode):
        raise KeyboardInterrupt

    monkeypatch.setattr(store, "_read", interrupted)
    with pytest.raises(KeyboardInterrupt):
        store.open(str(path))
    gc.collect()


def test_deeply_nested_script_fails_with_a_typed_error(tmp_path):
    deep = tmp_path / "deep.krn"
    deep.write_text("KRN 1\nOBJ 1\nACT 2 - 1\nSCRIPT 2\n<<<\nset object.x = "
                    + "(" * 1200 + "1" + ")" * 1200 + ";\n>>>\n")
    with pytest.raises((FormatError, ScriptParseError)) as err:
        store.load(str(deep))
    with store.open(str(deep)) as handle:
        with pytest.raises((FormatError, ScriptParseError)) as lazy_err:
            handle.hydrate_script(2, Net())
    for e in (err.value, lazy_err.value):
        # the script's first line is file line 6, after the SCRIPT record and <<<
        assert isinstance(e, ScriptParseError) and e.line == 6
        assert "action 2" in str(e)


def test_load_stub_lists_names_without_values(tmp_path):
    net = Net()
    man = net.add_object([("married", Value.truth(True)), ("hand", Value.text("left"))])
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(man, target)
        rec = target.objects[man]
        assert rec.load_state is NodeLoad.STUB
        assert set(rec.properties) == {"married", "hand"}
        assert all(p.load_state is PropLoad.STUB for p in rec.properties.values())
        assert handle.stats.properties_hydrated == 0
        # idempotent second call reads nothing
        before = handle.stats.bytes_read
        handle.load_stub(man, target)
        assert handle.stats.bytes_read == before
        assert handle.stats.objects_hydrated == 1


def test_load_stub_action_wires_endpoints_without_script(tmp_path):
    net, man, wall, paint = wall_net()
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        scanned = handle.stats.bytes_read
        handle.load_stub(paint, target)
        assert handle.stats.bytes_read == scanned   # endpoints come from the index
        assert target.actions[paint].subject == man
        assert target.actions[paint].target == wall
        assert target.objects[man].outgoing == [paint]
        assert target.objects[wall].incoming == [paint]
        assert target.actions[paint].script.state == "stub"
        assert handle.stats.scripts_hydrated == 0
        assert target.validate_bipartite().ok


def test_load_stub_refuses_an_endpoint_held_as_an_action(tmp_path):
    saved = Net()
    one = saved.add_object([])
    two = saved.add_object([])
    act = saved.add_action(one, two)
    assert (one, two, act) == (1, 2, 3)
    path = _saved(tmp_path, saved)
    target = Net()
    target.add_object([])
    assert target.add_action(None, 1) == 2
    before = copy.deepcopy(target)
    with store.open(path) as handle:
        with pytest.raises(BipartiteViolation):
            handle.load_stub(act, target)
    assert nets_equal(target, before)
    assert target.objects[1].outgoing == []
    assert target.validate_bipartite().ok


def test_load_stub_checks_both_endpoints_before_stubbing_either(tmp_path):
    saved = Net()
    for _ in range(3):
        saved.add_object([])
    assert saved.add_action(3, 2) == 4
    path = _saved(tmp_path, saved)
    target = Net()
    assert target.add_action(None, target.add_object([])) == 2   # the file's object 2
    before = copy.deepcopy(target)
    with store.open(path) as handle:
        with pytest.raises(BipartiteViolation):
            handle.load_stub(4, target)   # subject 3 is free, target 2 clashes
    assert nets_equal(target, before)


def test_a_lazy_read_refuses_a_node_the_net_holds_as_the_other_kind(tmp_path):
    saved = Net()
    saved.add_object([])
    saved.add_object([("x", Value.num(7))])
    assert saved.add_action(None, 1) == 3
    path = _saved(tmp_path, saved)
    holds_2_as_action = Net()
    assert holds_2_as_action.add_action(None, holds_2_as_action.add_object([])) == 2
    holds_3_as_object = Net()
    for _ in range(3):
        holds_3_as_object.add_object([])
    with store.open(path) as handle:
        for call, args, net in [("hydrate_property", (2, "x"), holds_2_as_action),
                                ("load_stub", (2,), holds_2_as_action),
                                ("hydrate_script", (3,), holds_3_as_object)]:
            before = copy.deepcopy(net)
            with pytest.raises(BipartiteViolation):
                getattr(handle, call)(*args, net)
            assert nets_equal(net, before), call


def test_load_stub_refuses_a_file_action_aimed_at_an_action(tmp_path):
    bad = tmp_path / "bad.krn"
    bad.write_text("KRN 1\nOBJ 1\nACT 2 - 1\nACT 3 1 2\n")
    with pytest.raises(FormatError) as err:
        store.open(str(bad))
    assert err.value.line == 4


def test_hydrate_property_is_partial_and_cached(tmp_path):
    net = Net()
    man = net.add_object([
        ("married", Value.truth(True)),
        ("hand", Value.text("left")),
        ("height", Value.num(1.8)),
    ])
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(man, target)
        scan_bytes = handle.stats.bytes_read
        value = handle.hydrate_property(man, "hand", target)
        assert value == Value.text("left")
        one_prop_bytes = handle.stats.bytes_read - scan_bytes
        assert one_prop_bytes > 0
        rec = target.objects[man]
        assert rec.properties["married"].load_state is PropLoad.STUB
        assert rec.load_state is NodeLoad.PARTIAL
        assert handle.stats.properties_hydrated == 1
        # partial read is smaller than the whole record block
        whole_record = sum(
            len(line.encode()) + 1 for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.startswith(("OBJ 1", "PROP 1 "))
        )
        assert one_prop_bytes < whole_record
        # second hydration is a no-op on stats
        handle.hydrate_property(man, "hand", target)
        assert handle.stats.properties_hydrated == 1
        assert handle.stats.bytes_read == scan_bytes + one_prop_bytes
        with pytest.raises(UnknownProperty):
            handle.hydrate_property(man, "salary", target)


def test_hydrate_script_on_demand(tmp_path):
    net, man, wall, paint = wall_net()
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(paint, target)
        ast = handle.hydrate_script(paint, target)
        assert target.actions[paint].script.text == 'set object.colour = "black";'
        assert handle.stats.scripts_hydrated == 1
        assert handle.hydrate_script(paint, target) is ast  # cached
        assert handle.stats.scripts_hydrated == 1


def test_hydrate_script_absent(tmp_path):
    net = Net()
    wall = net.add_object([])
    silent = net.add_action(None, wall)
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(silent, target)
        with pytest.raises(UnknownScript):
            handle.hydrate_script(silent, target)


def test_laziness_independent_of_net_size(tmp_path):
    net = Net()
    first = net.add_object([("colour", Value.text("green")), ("mass", Value.num(1))])
    for i in range(999):
        net.add_object([("colour", Value.text(f"shade-{i}")), ("mass", Value.num(i))])
    path = _saved(tmp_path, net)
    size = (tmp_path / "net.krn").stat().st_size
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(first, target)
        handle.hydrate_property(first, "colour", target)
        assert handle.stats.objects_hydrated == 1
        assert handle.stats.properties_hydrated == 1
        # bounded by the index scan plus the one record, regardless of N
        assert handle.stats.bytes_read <= size + 256


def test_signal_and_unicode_round_trip(tmp_path):
    net = Net()
    obj = net.add_object([
        ("note", Value.text('line1\nline2\t"quoted" \\slash é')),
    ])
    net.ingest_signal(obj, "touch", SensorSignal(
        SensorAddress.of("skin", "left hand", "thermo/3"), b"\x00\xff"))
    net.ingest_signal(obj, "silence", SensorSignal(SensorAddress.of("ear"), b""))
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        loaded, _ = handle.load_full()
    assert nets_equal(net, loaded)
    sig = loaded.get_property(obj, "touch").data
    assert sig.origin.segments == ("skin", "left hand", "thermo/3")
    assert sig.payload == b"\x00\xff"


def test_provenance_round_trips(tmp_path):
    net = Net()
    obj = net.add_object([("guess", Value.unset())], provenance=Provenance.INFERRED)
    net.set_property(obj, "guess", Value.unset(), Provenance.INFERRED)
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        loaded, _ = handle.load_full()
    assert loaded.objects[obj].provenance is Provenance.INFERRED
    assert loaded.objects[obj].properties["guess"].provenance is Provenance.INFERRED


def test_records_in_any_order_with_forward_references(tmp_path):
    shuffled = tmp_path / "shuffled.krn"
    shuffled.write_text(
        "KRN 1\n"
        'PROP 1 colour text "green"\n'       # property before its OBJ
        "SCRIPT 3\n"                          # script before its ACT
        "<<<\n"
        'set object.colour = "black";\n'
        ">>>\n"
        "ISA 1 2\n"
        "LABEL 1 en \"wall\"\n"
        "ACT 3 2 1\n"
        "OBJ 2\n"
        "OBJ 1\n"
    )
    with store.open(str(shuffled)) as handle:
        loaded, lexicon = handle.load_full()
    assert loaded.get_property(1, "colour") == Value.text("green")
    assert loaded.actions[3].script.text == 'set object.colour = "black";'
    assert loaded.isa_edges == [(1, 2)]
    assert lexicon.label_of(1, "en") == ("wall", "en")
    assert loaded.validate_bipartite().ok


def test_spec_format_without_provenance_tokens_loads(tmp_path):
    plain = tmp_path / "plain.krn"
    plain.write_text(
        "KRN 1\n"
        "OBJ 1\n"
        'PROP 1 colour text "green"\n'
        "SIG 1 warmth skin/p7 ff 3\n"
        "ACT 2 - 1\n"
    )
    with store.open(str(plain)) as handle:
        loaded, _ = handle.load_full()
    assert loaded.objects[1].properties["colour"].provenance is Provenance.ASSERTED
    assert loaded.objects[1].properties["warmth"].provenance is Provenance.SENSED


def test_evict_demotes_to_stub(tmp_path):
    net, man, wall, paint = wall_net()
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(wall, target)
        handle.hydrate_property(wall, "colour", target)
        handle.evict(wall, target)
        rec = target.objects[wall]
        assert rec.properties["colour"].load_state is PropLoad.STUB
        # re-hydration works and does not double-count
        assert handle.hydrate_property(wall, "colour", target) == Value.text("green")
        assert handle.stats.properties_hydrated == 1


def test_evict_keeps_values_written_since_hydration(tmp_path):
    net, man, wall, paint = wall_net()
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(paint, target)
        assert handle.hydrate_property(wall, "colour", target) == Value.text("green")
        run_action(target, paint, handle)
        handle.evict(wall, target)
        assert target.get_property(wall, "colour") == Value.text("black")
        assert handle.hydrate_property(wall, "colour", target) == Value.text("black")


def test_evict_blocked_during_execution(tmp_path):
    net, man, wall, paint = wall_net()
    path = _saved(tmp_path, net)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(wall, target)
        handle.hydrate_property(wall, "colour", target)
        target._executing = True
        try:
            with pytest.raises(EvictionBlocked):
                handle.evict(wall, target)
        finally:
            target._executing = False


def test_evict_refuses_a_node_the_net_holds_as_the_other_kind(tmp_path):
    a = Net()
    a.add_object([])
    assert a.add_object([("x", Value.num(7))]) == 2
    b = Net()
    b.add_object([])
    assert b.add_action(None, 1, "set object.y = 1;", [("x", Value.num(5))]) == 2
    net = store.load(_saved(tmp_path, b, name="b.krn"))[0]
    before = copy.deepcopy(net)
    with store.open(_saved(tmp_path, a, name="a.krn")) as handle:
        with pytest.raises(BipartiteViolation):
            handle.evict(2, net)
    assert nets_equal(net, before)


def _one_action_file(tmp_path, name, x, script):
    net = Net()
    net.add_object([("x", Value.num(x))])
    net.add_action(None, 1, script)
    return _saved(tmp_path, net, name=name)


def test_a_handle_evicts_and_fills_only_what_its_own_file_gave(tmp_path):
    a = _one_action_file(tmp_path, "a.krn", 1, "set object.y = 1;")
    b = _one_action_file(tmp_path, "b.krn", 2, "set object.z = 9;")
    # a value and a script that `load` read from a stay when b's handle evicts
    net = store.load(a)[0]
    with store.open(b) as other:
        other.evict(1, net)
        other.evict(2, net)
        assert net.objects[1].properties["x"].load_state is PropLoad.HYDRATED
        assert net.get_property(1, "x") == Value.num(1)
        other.hydrate_script(2, net)
        assert net.actions[2].script.text == "set object.y = 1;"
    # b's handle does not fill a's stubs
    net = Net()
    with store.open(a) as own, store.open(b) as other:
        own.load_stub(2, net)
        before = copy.deepcopy(net)
        for call, args in [("hydrate_property", (1, "x")), ("hydrate_script", (2,))]:
            with pytest.raises(KrnError):
                getattr(other, call)(*args, net)
            assert nets_equal(net, before), call
        assert own.hydrate_property(1, "x", net) == Value.num(1)
        own.hydrate_script(2, net)
        assert net.actions[2].script.text == "set object.y = 1;"


def test_a_handle_adds_no_property_the_nets_record_lacks(tmp_path):
    a, b = Net(), Net()
    a.add_object([("x", Value.num(1))])
    b.add_object([("x", Value.num(2)), ("y", Value.num(5))])
    net = store.load(_saved(tmp_path, a, name="a.krn"))[0]
    before = copy.deepcopy(net)
    with store.open(_saved(tmp_path, b, name="b.krn")) as handle:
        # not onto a node that another file gave
        with pytest.raises(UnknownProperty):
            handle.hydrate_property(1, "y", net)
        assert nets_equal(net, before)
        # nor back onto a node of its own file's, once the net erased it
        net = Net()
        handle.load_stub(1, net)
        net.erase_property(1, "y")
        with pytest.raises(UnknownProperty):
            handle.hydrate_property(1, "y", net)
        assert "y" not in net.objects[1].properties
        assert handle.hydrate_property(1, "x", net) == Value.num(2)


def _lazy_call(rng, handle, net, ids, names):
    """One random lazy read through `handle`, or a write to the net. A read
    that succeeds replaces no property record or script that another file
    or a write gave."""
    nid = rng.choice(ids)
    call = rng.choice(["load_stub", "hydrate_property", "hydrate_script", "evict", "set"])
    if call == "set":
        return net.set_property(nid, rng.choice(names), rand_value(rng, net))
    others = {key: kept for key, kept in _marked(net) if kept.from_store != handle._identity}
    if call == "hydrate_property":
        handle.hydrate_property(nid, rng.choice(names), net)
    else:
        getattr(handle, call)(nid, net)
    after = dict(_marked(net))
    assert all(after.get(key) is kept for key, kept in others.items()), call


def _marked(net):
    """((node, name), property record) of each property, ((action, None),
    script) of each script: what carries a file's mark."""
    for rec in [*net.objects.values(), *net.actions.values()]:
        yield from (((rec.id, name), prop) for name, prop in rec.properties.items())
    yield from (((aid, None), act.script) for aid, act in net.actions.items())


def _two_files(rng, tmp_path, round_):
    """Two saved random nets whose ids overlap: mostly the second holds the
    first's nodes with some values and scripts rewritten, else it is drawn
    on its own, and its kinds may clash with the first's."""
    first = random_net(rng, max_objects=5)[0]
    second = random_net(rng, max_objects=5)[0] if rng.random() < 0.3 else copy.deepcopy(first)
    for rec in [*second.objects.values(), *second.actions.values()]:
        for name in [name for name in rec.properties if rng.random() < 0.5]:
            second.set_property(rec.id, name, rand_value(rng, second))
        if rec.id in second.actions and rng.random() < 0.5:
            rec.script = ScriptRef(f"set object.x = {rec.id};")
    return [_saved(tmp_path, net, name=f"{round_}{side}.krn") for side, net in zip("ab", (first, second))]


def test_two_files_with_overlapping_ids_through_two_handles(tmp_path):
    rng = random.Random(2929)
    refused = steps = 0
    for round_ in range(30):
        paths = _two_files(rng, tmp_path, round_)
        # each file's records, by the mark that `load` gives them
        files = {store._identity(os.stat(path)): store.load(path)[0] for path in paths}
        net = store.load(paths[0])[0]
        with store.open(paths[0]) as a, store.open(paths[1]) as b:
            ids = sorted({*a.index, *b.index, max(a.index) + max(b.index) + 1})
            names = sorted({name for handle in (a, b) for named in handle.props.values()
                            for name in named} | {"x"})
            for _ in range(25):
                before = copy.deepcopy(net)
                try:
                    _lazy_call(rng, rng.choice([a, b]), net, ids, names)
                except KrnError:
                    refused += 1
                    assert nets_equal(net, before)
                steps += 1
                assert net.validate_bipartite().ok
                for (nid, name), kept in _marked(net):   # a file's values read as in the file
                    if kept.from_store is None:
                        continue
                    source = files[kept.from_store].node(nid)
                    if name is None and kept.state == "hydrated":
                        assert kept.text == source.script.text
                    elif name is not None and kept.load_state is PropLoad.HYDRATED:
                        assert kept == source.properties[name]
    assert 0.2 * steps < refused < 0.8 * steps


def test_load_equals_a_fully_hydrated_handle(tmp_path):
    rng = random.Random(4242)
    for i in range(60):
        net, lexicon = random_net(rng, max_objects=rng.choice([3, 8, 30]))
        if rng.random() < 0.5:
            net.add_action(None, rng.choice(sorted(net.objects)), "set object.x = 1;",
                           provenance=Provenance.INFERRED)
        path = _saved(tmp_path, net, lexicon, f"net{i}.krn")
        loaded, loaded_lex = store.load(path)
        lazy = _hydrated_lazily(path)
        assert nets_equal(loaded, lazy) and nets_equal(loaded, net), f"net {i}"
        assert loaded_lex.items() == lexicon.items()
        assert loaded.next_id == lazy.next_id
        again = _saved(tmp_path, loaded, loaded_lex, f"again{i}.krn")
        assert Path(again).read_bytes() == Path(path).read_bytes()


def test_actions_with_equal_script_text_share_one_parse(tmp_path, monkeypatch):
    net = Net()
    left = net.add_object([("x", Value.num(1))])
    right = net.add_object([("x", Value.num(1))])
    text = "set object.x = object.x + 1;"
    one = net.add_action(None, left, text)
    two = net.add_action(None, right, text)
    net.add_action(None, right, "set object.x = 0;")
    path = _saved(tmp_path, net)
    real_parse = store.parse_script
    parsed = []
    monkeypatch.setattr(store, "parse_script", lambda src: parsed.append(src) or real_parse(src))
    loaded, _ = store.load(path)
    assert sorted(parsed) == sorted([text, "set object.x = 0;"])
    assert loaded.actions[one].script.ast is loaded.actions[two].script.ast
    run_action(loaded, one)
    assert loaded.get_property(left, "x") == Value.num(2)
    assert loaded.get_property(right, "x") == Value.num(1)
    assert loaded.actions[two].script.ast == real_parse(text)
    run_action(loaded, two)
    assert loaded.get_property(right, "x") == Value.num(2)


@pytest.mark.parametrize("record", [
    "SIG 1 warmth skin/p7 fg 3",               # payload is not hex
    "SIG 1 warmth skin//p7 ff 3",              # empty origin segment
    "PROP 1 mass num heavy",
    'PROP 1 colour text "green" sensed',       # sensed but not a signal
    'PROP 1 note text "a\\qb"',                # no such escape
])
def test_bad_values_are_format_errors_at_their_line(tmp_path, record):
    bad = tmp_path / "bad.krn"
    bad.write_text(f"KRN 1\nOBJ 1\n\n{record}\nACT 5 - 1\n")
    with pytest.raises(FormatError) as err:
        store.load(str(bad))
    assert err.value.line == 4
    with store.open(str(bad)) as handle:
        with pytest.raises(FormatError) as lazy_err:
            handle.hydrate_property(1, record.split()[2], Net())
    assert (lazy_err.value.line, lazy_err.value.message) == (4, err.value.message)


@pytest.mark.parametrize("record, want", [
    ("OBJ 1\t", ("bad integer '1\\t'", 3)),
    ("PROP 1 r ref \u0662", ("bad integer '\u0662'", 3)),         # an Arabic-Indic digit
    ("PROP 1 x num \u0661.\u0665", ("bad number '\u0661.\u0665'", 3)),
    ("PROP 1 r ref 1_0 asserted", ("bad integer '1_0'", 3)),        # a matched block
    ("PROP 1 x num 1_0.5", ("bad number '1_0.5'", 3)),
    ("PROP 1 x num 2.5\f", ("bad number '2.5\\x0c'", 3)),
    ("PROP 1 r ref -007", Value.ref(-7)),
    ("PROP 1 x num +1E3 asserted", Value.num(1000)),
    ("PROP 1 x num -Infinity", Value.num(-math.inf)),
])
def test_numbers_are_read_in_ascii_only(tmp_path, record, want):
    """A number or id is read as int() or float() reads it, signs and
    leading zeros too, but only in ASCII: an underscore, whitespace around
    it or a digit of another script is a FormatError at its line, from
    `load` and from a lazy read alike."""
    path = tmp_path / "n.krn"
    path.write_text(f"KRN 1\n{'' if record.startswith('OBJ') else 'OBJ 1'}\n{record}\n", encoding="utf-8")
    name = record.split(" ")[2] if record.startswith("PROP") else "x"
    if isinstance(want, Value):
        assert store.load(str(path))[0].get_property(1, name) == want
        with store.open(str(path)) as handle:
            assert handle.hydrate_property(1, name, Net()) == want
        return
    with pytest.raises(FormatError) as err:
        store.load(str(path))
    assert (err.value.message, err.value.line) == want
    with pytest.raises(FormatError) as lazy_err:
        with store.open(str(path)) as handle:
            handle.hydrate_property(1, name, Net())
    assert (lazy_err.value.message, lazy_err.value.line) == want


def _decode_text_by_hand(tok: str, line: int) -> str:
    """The character loop `store.decode_text` replaced, kept as a reference."""
    if len(tok) < 2 or not tok.startswith('"') or not tok.endswith('"'):
        raise FormatError(f"bad text token {tok!r}", line)
    out, i, end = [], 1, len(tok) - 1
    while i < end:
        if tok[i] == "\\":
            if i + 1 >= end or tok[i + 1] not in "\\\"ntr":
                raise FormatError(f"bad escape in {tok!r}", line)
            out.append({"n": "\n", "t": "\t", "r": "\r"}.get(tok[i + 1], tok[i + 1]))
            i += 2
        else:
            out.append(tok[i])
            i += 1
    return "".join(out)


def test_decode_text_agrees_with_a_character_loop():
    """Random tokens over quotes, backslashes, escape letters, a newline and
    a non-ASCII letter give the same text, or the same error at the same
    line, as the loop."""
    def outcome(decode, tok, line):
        try:
            return decode(tok, line)
        except FormatError as err:
            return (err.message, err.line)

    rng = random.Random(30)
    alphabet = ['"', "\\", "\\", "n", "t", "r", "q", "a", " ", "\n", "\u00e9"]
    for line in range(20_000):
        body = "".join(rng.choice(alphabet) for _ in range(rng.randrange(9)))
        tok = rng.choice([f'"{body}"', f'"{body}"', body, f'"{body}'])
        assert outcome(store.decode_text, tok, line) == outcome(_decode_text_by_hand, tok, line), tok
    for text in ("", "a\\b", 'say "hi"\n', "\t\r\\\""):
        assert store.decode_text(store.encode_text(text), 1) == text


def test_bad_language_tag_is_a_format_error_at_its_line(tmp_path):
    # also a bad escape (the line is tokenised) and an unknown node: open
    # keeps no label, but checks each as load does
    bad = tmp_path / "bad.krn"
    for record in ('LABEL 1 e_n "wall"', 'LABEL 1 en "a\\qb"', 'LABEL 7 en "wall"'):
        bad.write_text(f"KRN 1\nOBJ 1\n{record}\n")
        errors = []
        for read in (store.load, store.open):
            with pytest.raises(FormatError) as err:
                read(str(bad))
            errors.append((err.value.line, err.value.message))
        assert errors[0] == errors[1] and errors[0][0] == 3, record


@pytest.mark.parametrize("record, name", [
    ("PROP 1 Bad/Name num 1.0", "Bad/Name"),
    ('PROP 1 x:y text "q"', "x:y"),
    ("PROP 1 goal:a:b num 1.0", "goal:a:b"),
    ("SIG 1 Warmth skin ff 3", "Warmth"),
])
def test_a_property_name_the_net_refuses_is_a_format_error(tmp_path, record, name):
    bad = tmp_path / "bad.krn"
    bad.write_text(f"KRN 1\nOBJ 1\n{record}\n")
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        assert (err.value.line, err.value.message) == (3, f"bad property name {name!r}")
    good = tmp_path / "good.krn"
    good.write_text('KRN 1\nOBJ 1\nPROP 1 goal:x text "q"\n')
    loaded, _ = store.load(str(good))
    assert loaded.get_property(1, "goal:x") == Value.text("q")
    with store.open(str(good)) as handle:
        assert list(handle.props[1]) == ["goal:x"]


def test_an_id_too_long_for_int_is_a_format_error(tmp_path):
    bad = tmp_path / "bad.krn"
    bad.write_text(f"KRN 1\nOBJ 1\nOBJ {'9' * 5000}\n")
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        assert err.value.line == 3 and err.value.message.startswith("bad integer")


def _respaced(data: bytes) -> bytes:
    """The file with one more space after the tag of every record line
    outside the header and the script blocks: no line starts a run of lines
    that `store._BLOCK` matches, so each takes the tokenising path."""
    lines = data.split(b"\n")
    inside = False
    for i, line in enumerate(lines[1:], 1):
        if line in (b"<<<", b">>>"):
            inside = line == b"<<<"
        elif line and not inside:
            lines[i] = line.replace(b" ", b"  ", 1)
    return b"\n".join(lines)


def _broken_blocks(rng, data: bytes, spans: dict) -> list[tuple[str, bytes]]:
    """(what, file) for each way of cutting into a node block of a saved
    file, `spans` its blocks, that the file's net allows."""
    lines = data.split(b"\n")
    block = {nid: range(data.count(b"\n", 0, span.start), data.count(b"\n", 0, span.stop))
             for nid, span in spans.items()}
    props = {nid: [i for i in rows if lines[i].startswith(b"PROP ")] for nid, rows in block.items()}

    def edited(i, *new, drop=1):
        return b"\n".join(lines[:i] + list(new) + lines[i + drop:])

    def moved(i, j):   # line i moved to before line j
        out = lines[:j] + [lines[i]] + lines[j:]
        del out[i if i < j else i + 1]
        return b"\n".join(out)

    broken = [("a last line with no newline", data[:-1])]
    nid = rng.choice(sorted(block))
    broken.append(("a SIG without its provenance token",
                   edited(block[nid][0] + 1, f"SIG {nid} zz skin 01 5".encode(), drop=0)))
    named = sorted(nid for nid in props if props[nid])
    if named:
        nid = rng.choice(named)
        i = rng.choice(props[nid])
        other = rng.choice(sorted(block))
        broken += [
            ("a PROP without its provenance token", edited(i, lines[i].rsplit(b" ", 1)[0])),
            ("num 1 where save writes num 1.0",
             edited(i, b" ".join(lines[i].split(b" ")[:3] + [b"num 1 asserted"]))),
            ("a PROP before its own OBJ or ACT", moved(i, block[nid][0])),
            ("a PROP after another node's block", moved(i, block[other][-1] + 1)),
        ]
    two = sorted(nid for nid in props if len(props[nid]) > 1)
    if two:
        i = rng.choice(props[rng.choice(two)][1:])
        broken.append(("a PROP out of name order", moved(i, i - 1)))
    scripted = sorted(nid for nid, rows in block.items()
                      if lines[rows[-1]] == b">>>" and lines[rows[-1] - 1] != b"<<<")
    if scripted:
        broken.append(("a script with a blank last line",
                       edited(block[rng.choice(scripted)][-1], b"", drop=0)))
    return broken


def test_matched_and_tokenised_records_read_alike(tmp_path):
    rng = random.Random(5151)
    kinds = set()
    for i in range(40):
        net, lexicon = random_net(rng, max_objects=rng.choice([3, 8, 30]))
        net.add_action(None, min(net.objects), "set object.x = 1;",
                       provenance=Provenance.INFERRED)
        path = _saved(tmp_path, net, lexicon, f"net{i}.krn")
        spaced = tmp_path / f"spaced{i}.krn"
        spaced.write_bytes(_respaced(Path(path).read_bytes()))
        data = spaced.read_bytes()
        offset = 0
        for line in data.split(b"\n"):
            assert store._BLOCK.match(data, offset) is None, line
            offset += len(line) + 1
        (matched, matched_lex), (tokenised, tokenised_lex) = map(store.load, (path, str(spaced)))
        assert nets_equal(matched, tokenised) and nets_equal(matched, net), f"net {i}"
        assert matched_lex.labels == tokenised_lex.labels == lexicon.labels
        with store.open(path) as one, store.open(str(spaced)) as other:
            # the same nodes, endpoints and lines; the offsets differ
            assert one.index == other.index
            assert {nid: named.keys() for nid, named in one.props.items()} == {
                nid: named.keys() for nid, named in other.props.items()}
            assert one.scripts.keys() == other.scripts.keys()
            assert one.isa == other.isa
        data = Path(path).read_bytes()
        # a block cut into loads as its tokenised read; only untouched
        # saved-form blocks are kept, and the save equals a full save
        entries, spanned = store._read(data, True)[0][:2]
        spans = {entry[0]: span for entry, span in zip(entries, spanned) if span is not None}
        blocks = _blocks(matched)
        assert blocks == {nid: data[span.start:span.stop] for nid, span in spans.items()}, f"net {i}"
        for kind, broken in _broken_blocks(rng, data, spans):
            kinds.add(kind)
            bad, bad_spaced = tmp_path / "broken.krn", tmp_path / "broken-spaced.krn"
            bad.write_bytes(broken)
            bad_spaced.write_bytes(_respaced(broken))
            (got, got_lex), (want, want_lex) = map(store.load, (str(bad), str(bad_spaced)))
            assert nets_equal(got, want) and got_lex.labels == want_lex.labels, f"net {i}: {kind}"
            for nid, block in _blocks(got).items():
                assert block == blocks.get(nid) and block in broken, f"net {i}: {kind}"
            _check_splice(tmp_path, got, got_lex, str(bad))
    assert len(kinds) == 8


def test_every_plain_record_that_save_writes_is_matched(tmp_path):
    # an ASCII-only net with no signal: each node block, the ISA run and the
    # LABEL run is matched whole, so that path cannot silently stop
    # applying; each node gets its span, and what is read saves back byte
    # for byte
    rng = random.Random(6262)
    texts = ["", " ", "green", "two  spaces", "a-b_c!#$%&'()*+,./:;<=>?@[]^`{|}~"]
    numbers = [0.0, -0.0, 1.5, -3.25, 1e20, 1.5e-07, float("inf"), float("-inf"), float("nan")]
    net, lexicon = Net(), Lexicon()
    for i in range(30):
        prov = Provenance.INFERRED if i % 3 == 0 else Provenance.ASSERTED
        props = [("mass", Value.num(rng.choice(numbers))),
                 ("colour", Value.text(rng.choice(texts))),
                 ("ready", Value.truth(i % 2 == 0)), ("guess", Value.unset()),
                 (f"goal:{i}", Value.text("1 colour == black"))]
        if net.objects:
            props.append(("next", Value.ref(rng.choice(sorted(net.objects)))))
        oid = net.add_object(props, provenance=prov)
        lexicon.set_label(oid, rng.choice(["en", "fr", "zh-Hant"]), rng.choice(texts))
    objects = sorted(net.objects)
    for i in range(20):
        aid = net.add_action(rng.choice([None, *objects]), rng.choice(objects),
                             "set object.x = 1;" if i % 2 else None,
                             [("antigoal:x-1", Value.num(i))],
                             provenance=Provenance.INFERRED if i % 4 == 0 else Provenance.ASSERTED)
        lexicon.set_label(aid, "de", f"a{i}")
    for _ in range(5):
        net.add_isa(*rng.sample(objects, 2))
    path = _saved(tmp_path, net, lexicon)
    data = Path(path).read_bytes()
    runs, offset = [], len(b"KRN 1\n")
    while offset < len(data):
        m = store._BLOCK.match(data, offset)
        assert m is not None, data[offset:offset + 80]
        runs.append("ACT" if m["act"] else "OBJ" if m["nid"] else m.lastgroup)
        offset = m.end()
    assert runs == ["OBJ"] * 30 + ["ACT"] * 20 + ["ISA", "LABEL"]
    loaded, loaded_lex = store.load(path)
    assert loaded.blocks.keys() == set(net.node_ids()) and loaded_lex.source is not None
    again = _saved(tmp_path, loaded, loaded_lex, name="again.krn")
    assert Path(again).read_bytes() == data


def test_is_a_edge_to_an_action_is_refused_on_open_and_load(tmp_path):
    bad = tmp_path / "bad.krn"
    bad.write_text("KRN 1\nOBJ 1\nACT 2 - 1\nISA 1 2\n")
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        assert err.value.line == 4


# a matched run of 200 LABEL lines of node 1, each in its own language
_LABELS_OF_1 = b"\n".join(b'LABEL 1 en-%d "b"' % i for i in range(200))


@pytest.mark.parametrize("body", [b"set object.x = ((;", b"set object.x = \"\xff\";"])
@pytest.mark.parametrize("later, line, message", [
    pytest.param(b"BOGUS 1", 8, "unknown record 'BOGUS'", id="BOGUS 1"),
    pytest.param(b"PROP 9 x num 1", 8, "PROP record refers to unknown node 9", id="PROP 9 x num 1"),
    pytest.param(b"ISA 1 2", 8, "ISA record needs node 2 to be an object", id="ISA 1 2"),
    # tokenised records: a second OBJ 1, and a marker that is not "inferred"
    pytest.param(b"OBJ  1", 8, "duplicate node id 1", id="OBJ  1"),
    pytest.param(b"OBJ 1 foo", 8, "malformed OBJ record", id="OBJ 1 foo"),
    # two tokenised SCRIPTs for action 3, then a tokenised one before the
    # matched block of action 3 that holds its own
    pytest.param(b"ACT 3 - 1\nSCRIPT  3\n<<<\n>>>\nSCRIPT  3\n<<<\n>>>", 12,
                 "duplicate SCRIPT for 3", id="SCRIPT  3 twice"),
    pytest.param(b"SCRIPT  3\n<<<\n>>>\nACT 3 - 1\nSCRIPT 3\n<<<\nset object.y = 2;\n>>>", 12,
                 "duplicate SCRIPT for 3", id="SCRIPT  3 before its block"),
    # two bad references on one line: the first checked is reported, an
    # action's target before its subject and an instance before its concept
    pytest.param(b"ACT 5 8 9", 8, "ACT record refers to unknown node 9", id="ACT 5 8 9"),
    pytest.param(b"ISA 8 9", 8, "ISA record refers to unknown node 8", id="ISA 8 9"),
    # a LABEL of an unknown node after a good one; a SIG, then a PROP, of
    # one unknown node
    pytest.param(b'LABEL 1 en "a"\nLABEL 9 en "b"', 9, "LABEL record refers to unknown node 9",
                 id="LABEL 9 second"),
    pytest.param(b"SIG 9 y skin 01 3\nPROP 9 x num 1", 8, "SIG record refers to unknown node 9",
                 id="SIG 9 then PROP 9"),
    # an unknown node on the first, then on the last line of a long matched
    # LABEL run that ends the file
    pytest.param(b'LABEL 9 en "a"\n' + _LABELS_OF_1, 8, "LABEL record refers to unknown node 9",
                 id="LABEL 9 first of a run"),
    pytest.param(_LABELS_OF_1 + b'\nLABEL 9 en "a"', 208, "LABEL record refers to unknown node 9",
                 id="LABEL 9 last of a run"),
    # a run in mid-file naming nodes defined after it passes; a later PROP
    # does not
    pytest.param(b'LABEL 4 en "a"\nLABEL 5 en "b"\nOBJ 4\nOBJ 5\nPROP 9 x num 1', 12,
                 "PROP record refers to unknown node 9", id="LABEL run before its nodes"),
    # a tokenised LABEL line (a leading zero) before a faulty matched run
    pytest.param(b'LABEL 09 en "x"\nLABEL 1 en "a"\nLABEL 8 en "b"', 8,
                 "LABEL record refers to unknown node 9", id="LABEL 09 then a faulty run"),
])
def test_a_bad_script_before_a_later_bad_record_gives_one_error(tmp_path, body, later, line,
                                                                 message):
    # the script is bad (a parse error or undecodable bytes), but the file
    # is not well formed either: both readers report the later fault
    bad = tmp_path / "bad.krn"
    bad.write_bytes(b"KRN 1\nOBJ 1\nACT 2 - 1\nSCRIPT 2\n<<<\n" + body + b"\n>>>\n" + later + b"\n")
    errors = []
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        errors.append((err.value.line, err.value.message))
    assert errors[0] == errors[1] == (line, message)


def test_a_label_run_may_name_nodes_defined_after_it(tmp_path):
    path = tmp_path / "early.krn"
    path.write_bytes(b'KRN 1\nOBJ 1\nLABEL 1 en "a"\nLABEL 2 en "b"\nLABEL 3 fr "b"\nOBJ 2\nACT 3 - 1\n')
    net, lexicon = store.load(str(path))
    assert lexicon.items() == [(1, "en", "a"), (2, "en", "b"), (3, "fr", "b")]
    with store.open(str(path)) as handle:
        assert handle.index.keys() == {1, 2, 3}


def _mutated(rng, data: bytes) -> bytes:
    roll = rng.randrange(4)
    if roll == 0:                                   # flip one bit
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
    if roll == 1:                                   # truncate
        return data[:rng.randrange(len(data))]
    lines = data.split(b"\n")
    if roll == 2:                                   # duplicate a line
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    else:                                           # shuffle all but the header
        body = lines[1:]
        rng.shuffle(body)
        lines[1:] = body
    return b"\n".join(lines)


def test_mutated_saves_fail_only_with_typed_errors(tmp_path):
    rng = random.Random(9090)
    path = str(tmp_path / "mutant.krn")
    loaded = 0
    for i in range(400):
        net, lexicon = random_net(rng)
        with open(_saved(tmp_path, net, lexicon), "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(_mutated(rng, data))
        load_err = lazy_err = None
        try:
            got = store.load(path)
        except (FormatError, ScriptParseError) as exc:
            got, load_err = None, exc
        try:
            lazy = _hydrated_lazily(path)
        except (FormatError, ScriptParseError) as exc:
            lazy, lazy_err = None, exc
        assert (got is None) == (lazy is None), f"mutant {i}"
        if isinstance(lazy_err, FormatError):   # both readers name the same fault
            assert type(load_err) is FormatError, f"mutant {i}: {load_err!r}"
            assert (load_err.line, str(load_err)) == (lazy_err.line, str(lazy_err)), f"mutant {i}"
        if got is None:
            continue
        loaded += 1
        assert got[0].validate_bipartite().ok, f"mutant {i}"
        assert nets_equal(got[0], lazy)
        again, again_lex = store.load(_saved(tmp_path, *got, name="again.krn"))
        assert nets_equal(again, got[0]) and again_lex.items() == got[1].items(), f"mutant {i}"
    assert loaded > 40  # mutants that still load reach the checks above


def _stubbed_wall(tmp_path, script):
    net = Net()
    man = net.add_object([])
    wall = net.add_object([("colour", Value.text("green"))])
    paint = net.add_action(man, wall, script)
    return net, man, wall, paint, _saved(tmp_path, net)


@pytest.mark.parametrize("script", ['set object.colour = "black";', "unset object.colour;"])
def test_undo_puts_back_a_stubbed_property(tmp_path, script):
    net, man, wall, paint, path = _stubbed_wall(tmp_path, script)
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(paint, target)
        handle.hydrate_script(paint, target)
        before = copy.deepcopy(target)
        changes = run_action(target, paint)
        apply_undo(target, changes)
        assert nets_equal(target, before)
        assert target.objects[wall].properties["colour"].load_state is PropLoad.STUB
        assert handle.hydrate_property(wall, "colour", target) == Value.text("green")
        # a hydrated store value put back by undo is still the store's to evict
        apply_undo(target, run_action(target, paint))
        handle.evict(wall, target)
        assert target.objects[wall].properties["colour"].load_state is PropLoad.STUB


def test_save_refuses_stubs_and_leaves_the_file_alone(tmp_path):
    net, man, wall, paint, path = _stubbed_wall(tmp_path, 'set object.colour = "black";')
    out = tmp_path / "out.krn"
    out.write_bytes(b"untouched")
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(paint, target)
        handle.hydrate_script(paint, target)
        with pytest.raises(UnknownProperty):
            store.save(target, None, str(out))
        handle.hydrate_property(wall, "colour", target)
        handle.evict(paint, target)
        with pytest.raises(UnknownScript):
            store.save(target, None, str(out))
        assert out.read_bytes() == b"untouched"
        handle.hydrate_script(paint, target)
        store.save(target, None, str(out))
    assert nets_equal(store.load(str(out))[0], net)


def test_node_load_state_follows_its_records(tmp_path):
    net, man, wall, paint, path = _stubbed_wall(tmp_path, 'set object.colour = "black";')
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(paint, target)
        assert target.objects[wall].load_state is NodeLoad.STUB
        assert target.objects[man].load_state is NodeLoad.FULL
        assert target.actions[paint].load_state is NodeLoad.STUB
        run_action(target, paint, handle)    # writes the wall's only property
        assert target.actions[paint].load_state is NodeLoad.FULL
        assert target.objects[wall].load_state is NodeLoad.FULL
        handle.evict(wall, target)           # the written colour stays
        assert target.objects[wall].load_state is NodeLoad.FULL
        handle.evict(paint, target)
        assert target.actions[paint].load_state is NodeLoad.STUB


# ---------------------------------------------------------------- reader


# the last two orders give a file whose every line `_BLOCK` matches, so
# that no record is tokenised: a LABEL run and an action's block
@pytest.mark.parametrize("order", [*itertools.permutations(range(3)), (1, 3), (3, 1)])
def test_first_bad_reference_in_file_order_is_reported_by_both_readers(tmp_path, order):
    bad_records = [
        "PROP 9 colour text \"green\" asserted",   # owner 9 does not exist
        "ACT 4 2 1",                                 # subject 2 is an action
        "ISA 1 3",                                   # 3 is an action
        'LABEL 9 en "ghost"',                        # node 9 does not exist
    ]
    body = ["OBJ 1", "ACT 2 - 1", "ACT 3 1 1"] + [bad_records[i] for i in order]
    bad = tmp_path / "bad.krn"
    bad.write_text("KRN 1\n" + "\n".join(body) + "\n")
    if 0 not in order:
        data, offset = bad.read_bytes(), len(b"KRN 1\n")
        while offset < len(data):
            m = store._BLOCK.match(data, offset)
            assert m is not None, data[offset:]
            offset = m.end()
    first = 5   # header and three good records come first
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        assert err.value.line == first, (read.__name__, order)


def test_loaded_records_are_slotted(tmp_path):
    net, man, wall, paint = wall_net()
    loaded, _ = store.load(_saved(tmp_path, net))
    obj, act = loaded.objects[wall], loaded.actions[paint]
    prop = obj.properties["colour"]
    for rec in (obj, act, prop, act.script, prop.value):
        assert not hasattr(rec, "__dict__"), type(rec).__name__
        # frozen and slotted, Value raises TypeError here on Python 3.11
        with pytest.raises((AttributeError, TypeError)):
            rec.note = "ad hoc"


def test_values_shared_within_a_load_stay_independent(tmp_path):
    net = Net()
    left = net.add_object([("x", Value.num(1)), ("colour", Value.text("green"))])
    right = net.add_object([("x", Value.num(1)), ("colour", Value.text("green"))])
    text = 'set object.x = object.x + 1; set object.colour = "red";'
    paint, repaint = net.add_action(None, left, text), net.add_action(None, right, text)
    path = _saved(tmp_path, net)
    loaded, _ = store.load(path)
    lp, rp = loaded.objects[left].properties, loaded.objects[right].properties
    # equal PROP tails share one record, equal script bodies one ScriptRef
    assert lp["x"] is rp["x"] and lp["colour"] is rp["colour"]
    assert loaded.actions[paint].script is loaded.actions[repaint].script
    shared_x, shared_colour, script = rp["x"], rp["colour"], loaded.actions[repaint].script
    changes = run_action(loaded, paint)
    assert loaded.get_property(left, "x") == Value.num(2)
    assert loaded.get_property(right, "x") == Value.num(1)
    assert loaded.get_property(right, "colour") == Value.text("green")
    snaps = loaded.timeline.snapshots
    assert {(c.node, c.name) for c in sim.diff(snaps[-2], snaps[-1])} == {
        (left, "x"), (left, "colour")}
    apply_undo(loaded, changes)
    assert nets_equal(loaded, net)
    after_undo = sim.snapshot(loaded)
    assert {(c.node, c.name) for c in sim.diff(snaps[-2], after_undo)} == {
        (left, "x"), (left, "colour")}
    assert sim.diff(snaps[0], after_undo) == []
    # a write and an eviction replace the one node's records, never change them
    loaded.set_property(left, "x", Value.num(5))
    with store.open(path) as handle:
        handle.evict(left, loaded)
        handle.evict(paint, loaded)
    assert lp["x"].value == Value.num(5) and lp["colour"].load_state is PropLoad.STUB
    assert loaded.actions[paint].script.state == "stub"
    assert rp["x"] is shared_x and rp["colour"] is shared_colour
    assert loaded.actions[repaint].script is script and script.text == text
    for prop, value in ((shared_x, Value.num(1)), (shared_colour, Value.text("green"))):
        assert (prop.value, prop.provenance, prop.load_state) == (
            value, Provenance.ASSERTED, PropLoad.HYDRATED)


def test_a_load_builds_one_record_per_distinct_prop_tail_and_script_body(tmp_path):
    """A count, not a timing: equal PROP tails and equal script bodies
    become one PropertyRecord and one ScriptRef each."""
    rng = random.Random(31)
    pool = [Value.num(1), Value.num(2.5), Value.text("red"), Value.text("green"),
            Value.truth(True), Value.ref(1), Value.unset()]
    names = ["x", "y", "colour", "goal:warm"]
    net = Net()
    objs = [net.add_object([(name, rng.choice(pool)) for name in rng.sample(names, rng.randrange(5))],
                           provenance=rng.choice(list(Provenance)[:2]))
            for _ in range(60)]
    for nid in rng.sample(objs, 10):
        net.set_property(nid, "x", rng.choice(pool), Provenance.INFERRED)
    texts = ["set object.x = 1;", 'set object.colour = "red";', "set object.y = object.y + 1;", None]
    for _ in range(40):
        net.add_action(rng.choice([None, *objs]), rng.choice(objs), rng.choice(texts),
                       [(name, rng.choice(pool)) for name in rng.sample(names, rng.randrange(3))])
    path = _saved(tmp_path, net)
    data = Path(path).read_bytes()
    lines = [line.split(b" ", 2)[2] for line in data.splitlines() if line.startswith(b"PROP ")]
    bodies = re.findall(rb"\n<<<\n(.*?)>>>\n", data, re.DOTALL)
    loaded, _ = store.load(path)
    nodes = [*loaded.objects.values(), *loaded.actions.values()]
    records = {id(prop) for rec in nodes for prop in rec.properties.values()}
    scripts = {id(act.script) for act in loaded.actions.values() if act.script.text is not None}
    assert len(records) == len(set(lines)) < len(lines)
    assert len(scripts) == len(set(bodies)) < len(bodies)
    assert nets_equal(loaded, net)


# ---------------------------------------------------------------- value memo


def _prop_tails(path) -> list[bytes]:
    """The bytes after `PROP <id> ` of each PROP line, in file order."""
    return [line.split(b" ", 2)[2] for line in Path(path).read_bytes().splitlines()
            if line.startswith(b"PROP ")]


def test_a_reload_of_a_kept_net_decodes_no_value(tmp_path, monkeypatch):
    """A count, not a timing: a first load decodes each distinct PROP field
    once, and a reload of the unchanged file through a memo that keeps the
    first load's net decodes none: it takes that net back."""
    rng = random.Random(44)
    pool = [Value.num(1), Value.num(2.5), Value.text("red"), Value.truth(False),
            Value.ref(1), Value.unset()]
    net = Net()
    for _ in range(40):
        net.add_object([(name, rng.choice(pool))
                        for name in rng.sample(["x", "y", "colour"], rng.randrange(4))])
    path = _saved(tmp_path, net)
    tails = _prop_tails(path)
    decoded = []
    real_decode = store._decode_value
    monkeypatch.setattr(store, "_decode_value", lambda *args: decoded.append(args) or real_decode(*args))
    memo = store.ValueMemo()
    first, lexicon = store.load(path, memo)
    assert len(decoded) == len(set(tails)) < len(tails)
    decoded.clear()
    assert memo.keep(first, lexicon)
    again = store.load(path, memo)[0]
    assert decoded == [] and again is first and nets_equal(again, net)
    assert not memo.nets and memo.size == 0
    store.load(path, memo)   # the net was taken back: this load decodes afresh
    assert len(decoded) == len(set(tails))


def test_a_net_holding_a_nan_is_never_kept(tmp_path):
    """A NaN equals no value, so no check could tell a net handed back from
    a cold load's: a net that holds one, loaded or saved, is not kept, and
    each load of its bytes reads them."""
    path = tmp_path / "nan.krn"
    path.write_bytes(b"KRN 1\nOBJ 1\nPROP 1 x num nan\n")
    memo = store.ValueMemo()
    net, lexicon = store.load(str(path), memo)
    assert not memo.keep(net, lexicon) and not memo.nets and memo.size == 0
    one, two = (store.load(str(path), memo)[0] for _ in range(2))
    assert one is not two and not nets_equal(one, two)
    clean = tmp_path / "clean.krn"
    clean.write_bytes(b"KRN 1\nOBJ 1\nPROP 1 x num 1.0 asserted\nOBJ 2\n")
    net, lexicon = store.load(str(clean), memo)
    net.set_property(1, "x", Value.num(math.nan))
    store.save(net, lexicon, str(clean))
    assert net.clean and not memo.keep(net, lexicon) and not memo.nets
    assert _full_view(*store.load(str(clean), memo)) == _full_view(*store.load(str(clean)))


def test_a_nan_overwritten_and_saved_blocks_no_keep(tmp_path, monkeypatch):
    """Only the NaN a net holds blocks a keep, not one it held: load, set
    x to NaN, save, set x to 2, save, and a load of the file takes the net
    back, reading nothing, as a cold load gives it."""
    path = tmp_path / "one.krn"
    path.write_bytes(b"KRN 1\nOBJ 1\nPROP 1 x num 1.0 asserted\n")
    memo = store.ValueMemo()
    net, lexicon = store.load(str(path), memo)
    net.set_property(1, "x", Value.num(math.nan))
    store.save(net, lexicon, str(path))
    assert net.clean and not memo.keep(net, lexicon)
    net.set_property(1, "x", Value.num(2))
    store.save(net, lexicon, str(path))
    assert net.clean and memo.keep(net, lexicon)
    counts = {"_read": 0}
    _counting(monkeypatch, counts)
    again = store.load(str(path), memo)
    assert again[0] is net and counts["_read"] == 0
    assert _full_view(*again) == _full_view(*store.load(str(path)))


def test_a_save_past_the_bound_forgets_the_records_the_net_no_longer_holds(tmp_path):
    """Each save of a new value leaves the record it replaced among the
    records a read of the source shares; once they outnumber the origin's
    bound, the save keeps only those the net holds. The net stays what a
    cold load of its file gives, and a reload through the memo takes it
    back as that load gives it."""
    net = Net()
    obj = net.add_object([("x", Value.num(0)), ("colour", Value.text("red"))])
    net.add_action(obj, net.add_object([("x", Value.num(0))]), "set object.x = 1;")
    lexicon = Lexicon()
    lexicon.set_label(obj, "en", "one")
    path = _saved(tmp_path, net, lexicon)
    memo = store.ValueMemo()
    net, lexicon = store.load(path, memo)
    bound = net.origin.bound
    for value in range(1, bound + 2):
        grown = len(net.origin.records)
        net.set_property(obj, "x", Value.num(value))
        store.save(net, lexicon, path)
        if len(net.origin.records) <= grown:   # the prune ran
            break
    # the save that took one record past the bound kept three: each value the net holds
    assert grown == bound and len(net.origin.records) == 3
    held = {id(prop) for rec in [*net.objects.values(), *net.actions.values()]
            for prop in rec.properties.values()}
    assert {id(rec) for rec in net.origin.records.values()} == held
    cold, cold_labels = store.load(path)
    assert nets_equal(net, cold) and lexicon.items() == cold_labels.items()
    assert net.clean and memo.keep(net, lexicon)
    again = store.load(path, memo)
    assert again[0] is net
    assert _full_view(*again) == _full_view(*store.load(path))


def _props(net):
    return [prop for (_, name), prop in _marked(net) if name is not None]


def _equal_props_file(tmp_path, name, script):
    net = Net()
    obj = net.add_object([("x", Value.num(1)), ("colour", Value.text("green"))])
    net.add_action(None, obj, script, [("x", Value.num(1))])
    return _saved(tmp_path, net, name=name)


def test_a_kept_net_is_taken_back_by_a_load_of_equal_bytes_with_its_marks(tmp_path):
    """Two files with equal bytes: a net loaded from one and let go is
    taken back by a load of the other, marked as that file's, so a handle
    on the first demotes none of its values and a handle on the second
    demotes them as it does a cold load's."""
    paths = [_equal_props_file(tmp_path, "a.krn", "set object.y = 1;"),
             _equal_props_file(tmp_path, "b.krn", "set object.y = 1;")]
    memo = store.ValueMemo()
    net, lexicon = store.load(paths[0], memo)
    assert memo.keep(net, lexicon)
    warm = store.load(paths[1], memo)[0]
    assert warm is net and not memo.nets
    assert {kept.from_store for _, kept in _marked(warm)} == {store._identity(os.stat(paths[1]))}
    cold = store.load(paths[1])[0]
    with store.open(paths[0]) as handle:
        for nid in [*warm.objects, *warm.actions]:
            handle.evict(nid, warm)
    assert {prop.load_state for prop in _props(warm)} == {PropLoad.HYDRATED}
    with store.open(paths[1]) as handle:
        for held in (warm, cold):
            for nid in [*held.objects, *held.actions]:
                handle.evict(nid, held)
    assert nets_equal(warm, cold)
    assert [(key, kept.from_store) for key, kept in _marked(warm)] == [
        (key, kept.from_store) for key, kept in _marked(cold)]
    assert {prop.load_state for prop in _props(warm)} == {PropLoad.STUB}
    assert warm.actions[2].script.state == "stub"


def _loaded(path, memo, copy_to):
    """What a load through `memo` gives: the net, its labels, blocks,
    next_id, the records with the file each names, and the bytes a save of
    a copy of them writes to `copy_to`; or the error it raises. The memo
    then keeps the net, if it is clean."""
    try:
        net, lexicon = store.load(path, memo)
    except (FormatError, ScriptParseError) as exc:
        return type(exc), str(exc), exc.line
    store.save(*copy.deepcopy((net, lexicon)), copy_to)
    view = (net, lexicon.items(), _blocks(net), net.next_id,
            [(key, kept, getattr(kept.from_store, "identity", kept.from_store))
             for key, kept in _marked(net)], Path(copy_to).read_bytes())
    if memo is not None:
        memo.keep(net, lexicon)
    return view


def test_a_load_through_a_warm_memo_equals_a_cold_load(tmp_path):
    rng = random.Random(3232)
    memo = store.ValueMemo()
    source, path = str(tmp_path / "source.krn"), str(tmp_path / "net.krn")
    failed = taken = 0
    for i in range(300):
        net, lexicon = random_net(rng)
        store.save(net, lexicon, source)
        memo.keep(*store.load(source))   # the net one load in five below takes back
        data = Path(source).read_bytes()
        Path(path).write_bytes(data if rng.random() < 0.2 else _mutated(rng, data))
        taken += Path(path).read_bytes() in kept_nets(memo)
        cold = _loaded(path, None, str(tmp_path / "cold.krn"))
        warm = _loaded(path, memo, str(tmp_path / "warm.krn"))
        if len(cold) == 3:
            failed += 1
            assert warm == cold, f"mutant {i}"
            continue
        assert len(warm) == 6 and nets_equal(warm[0], cold[0]), f"mutant {i}"
        assert warm[1:] == cold[1:], f"mutant {i}"
        assert memo.size == sum(held[2] for held in kept_nets(memo).values()) <= store.MAX_MEMO_BYTES
    assert 50 < failed < 250 and taken > 30


def test_a_full_memo_empties_whole_and_a_failed_load_leaves_it_alone(tmp_path, monkeypatch):
    nets, paths = [], []
    for x in range(5):   # five files of one size, one value each
        net = Net()
        net.add_object([("x", Value.num(10 + x))])
        nets.append(net)
        paths.append(_saved(tmp_path, net, name=f"f{x}.krn"))
    data = [Path(path).read_bytes() for path in paths]
    loaded = [store.load(path) for path in paths]
    # each net is charged for its bytes twice (the key, and its block
    # copied out of them), its node, its one record
    cost = (2 * len(data[0]) + store._NET_COST + store._NODE_COST + store._RECORD_COST)
    assert {store._charge(*pair) for pair in loaded} == {cost}
    monkeypatch.setattr(store, "MAX_MEMO_BYTES", 3 * cost)
    memo = store.ValueMemo()
    for (net, lexicon), want in zip(loaded, nets):
        assert nets_equal(net, want) and memo.keep(net, lexicon)
    # the fourth net would pass the bound: the first three go, all at once
    assert list(kept_nets(memo)) == data[3:] and memo.size == 2 * cost
    held = kept_nets(memo)
    bad = tmp_path / "bad.krn"
    bad.write_bytes(b"KRN 1\nOBJ 1\nPROP 1 x num ten asserted\n")
    with pytest.raises(FormatError, match="bad number") as exc:
        store.load(str(bad), memo)
    assert exc.value.line == 3
    assert kept_nets(memo) == held and memo.size == 2 * cost
    # a net charged more than the bound is never kept, and empties nothing
    big = tmp_path / "big.krn"
    big.write_text(f"KRN 1\nOBJ 1\nPROP 1 x text \"{'a' * 3 * cost}\" asserted\n")
    net, lexicon = store.load(str(big), memo)
    assert net.objects[1].properties["x"].value == Value.text("a" * 3 * cost)
    assert not memo.keep(net, lexicon) and kept_nets(memo) == held and memo.size == 2 * cost


_FILE_RUNS = 250   # each net a small share of MAX_MEMO_BYTES, so the memo fills near its bound


def _small_runs(shape):
    """Distinct runs of lines of one shape, without end; a run that names
    another comes right after it, the two at an even count. In the "saved"
    shape each _FILE_RUNS runs are a file as `save` writes it, and files
    differ only in their last block."""
    for i in itertools.count(1):
        if shape == "saved":
            nid = i % _FILE_RUNS or _FILE_RUNS
            yield f"OBJ {nid}\nPROP {nid} x num {i if nid == _FILE_RUNS else nid}.5 asserted\n"
        elif shape == "bare":
            yield f"OBJ {i}\n"
        elif shape == "one-value":
            yield f"OBJ {i}\nPROP {i} x num {i}.5 asserted\n"
        elif shape == "script":
            yield f"OBJ {2 * i}\n"
            yield f"ACT {2 * i + 1} - {2 * i}\nSCRIPT {2 * i + 1}\n<<<\nset object.x = {i};\n>>>\n"
        else:   # an object and a run of one LABEL line
            yield f"OBJ {i}\n"
            yield f'LABEL {i} en "w{i}"\n'


@pytest.mark.parametrize("shape", ["bare", "one-value", "script", "labels", "saved"])
def test_a_full_memo_holds_less_than_twice_its_bound(tmp_path, shape):
    """Filled to its bound with the nets of many distinct files, each of
    _FILE_RUNS small runs of one shape, the memo holds under 2 * MAX_MEMO_BYTES
    as tracemalloc counts it, up to the net that empties it: each net is
    charged for what it holds, not only for its bytes."""
    runs = _small_runs(shape)
    path = tmp_path / "many.krn"
    memo = store.ValueMemo()
    most = kept = 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        while True:
            body = "".join(next(runs) for _ in range(_FILE_RUNS))
            if shape == "labels":   # one run of LABEL lines that ends the file, as a save writes
                body = "".join(sorted(body.splitlines(True), key=lambda line: line.startswith("LABEL")))
            path.write_text("KRN 1\n" + body)
            size = memo.size
            assert memo.keep(*store.load(str(path)))
            script.clear_parse_memo()
            gc.collect()
            if memo.size < size:   # emptied whole: it was full
                break
            most = max(most, tracemalloc.get_traced_memory()[0] - before)
            kept += 1
            assert most < 2 * store.MAX_MEMO_BYTES, f"after {kept} nets"
    finally:
        tracemalloc.stop()
    assert kept > 3 and size > store.MAX_MEMO_BYTES * 0.9


def _reloaded(tmp_path, data: bytes):
    """What a first load of `data` through a memo gives, and what a second
    load gives once the memo keeps the first's net: `_loaded`'s view, or
    the error raised."""
    path = str(tmp_path / "net.krn")
    Path(path).write_bytes(data)
    memo = store.ValueMemo()
    cold = _loaded(path, memo, str(tmp_path / "cold.krn"))
    assert (data in kept_nets(memo)) == (len(cold) == 6)
    warm = _loaded(path, memo, str(tmp_path / "warm.krn"))
    assert len(warm) == 3 or warm[0] is cold[0]
    return cold, warm


def _same_load(cold, warm):
    if len(cold) == 3:
        return warm == cold
    return len(warm) == 6 and nets_equal(warm[0], cold[0]) and warm[1:] == cold[1:]


_OBJ_1 = b"OBJ 1\nPROP 1 x num 1.0 asserted\n"
_ACT_2 = b"ACT 2 - 1\nSCRIPT 2\n<<<\nset object.x = 2;\n>>>\n"


@pytest.mark.parametrize("data, error", [
    # a tokenised PROP line of node 1 before its block: the block's x is a duplicate
    (b"KRN 1\nPROP 1 x num 2.0\n" + _OBJ_1, ("duplicate property 'x' on 1", 4)),
    (b"KRN 1\nPROP 1 y num 2.0\n" + _OBJ_1, None),
    # one block's bytes twice: the second is a duplicate node, at its own line
    (b"KRN 1\n" + _OBJ_1 + b"OBJ 3\n" + _OBJ_1, ("duplicate node id 1", 5)),
    (b"KRN 1\n" + _OBJ_1 + _ACT_2 + b"OBJ 3\n" + _ACT_2, ("duplicate node id 2", 10)),
    # a tokenised SCRIPT of action 2 before its block: the block's is a duplicate
    (b"KRN 1\n" + _OBJ_1 + b"SCRIPT 2\n<<<\nset object.x = 3;\n>>>\n" + _ACT_2,
     ("duplicate SCRIPT for 2", 9)),
    (b"KRN 1\n" + _OBJ_1 + b"PROP 2 y num 2.0\n" + _ACT_2, None),
    # tokenised PROP lines of node 1 after its block: one naming the block's x
    # is a duplicate at its own line, whether or not another came first
    (b"KRN 1\n" + _OBJ_1 + b"OBJ 3\nPROP 01 x num 2.0\n", ("duplicate property 'x' on 1", 5)),
    (b"KRN 1\n" + _OBJ_1 + b"OBJ 3\nPROP 01 y num 2.0\nPROP 1 x num 3.0\n",
     ("duplicate property 'x' on 1", 6)),
    (b"KRN 1\n" + _OBJ_1 + b"OBJ 3\nPROP 01 y num 2.0\nPROP 1 y num 3.0\n",
     ("duplicate property 'y' on 1", 6)),
    (b"KRN 1\n" + _OBJ_1 + b"OBJ 3\nPROP 01 y num 2.0\nPROP 1 z num 3.0\n", None),
], ids=["prop-before", "prop-before-other-name", "object-twice", "action-twice",
        "script-before", "action-prop-before", "prop-after", "prop-after-another",
        "prop-after-twice", "props-after-other-names"])
def test_a_block_is_checked_against_what_the_read_has_seen(tmp_path, data, error):
    """A node block is checked against what its read has seen: a PROP or
    SCRIPT line of its node before it, and an earlier block with its very
    bytes; a PROP line read token by token after its node's block is
    checked against that block's names. A file that passes loads again as
    the net the memo kept."""
    cold, warm = _reloaded(tmp_path, data)
    if error is None:
        assert len(cold) == 6
    else:
        assert cold == (FormatError, f"{error[0]} (line {error[1]})", error[1])
    assert _same_load(cold, warm)


def _outside_blocks(shape: str, k: int) -> bytes:
    """A file with k records that a read takes token by token (an id with a
    leading zero is no id `_BLOCK` matches): PROP or SIG lines of object 1
    after its block of k PROP lines, the SCRIPT blocks of k actions after
    their ACT blocks, or ISA or LABEL lines between k + 1 objects; or one
    matched run of k LABEL lines of object 1, each in its own language; or
    a PROP line of object 1 whose text holds 50k escape pairs, or whose
    quote, followed by 50k characters, is left open to the end of the line."""
    if shape == "label-run":
        return b"KRN 1\nOBJ 1\n" + b"".join(b'LABEL 1 en-%d "l"\n' % i for i in range(k))
    if shape in ("escapes", "open-quote"):
        text = b'"' + b"\\n" * (50 * k) + b'"' if shape == "escapes" else b'"' + b"a " * (25 * k)
        return b"KRN 1\nOBJ 1\nPROP 1 x text " + text + b" asserted\n"
    if shape in ("prop", "sig"):
        block = b"OBJ 1\n" + b"".join(b"PROP 1 p%d num 1 asserted\n" % i for i in range(k))
        line = b"PROP 01 q%d num 1 asserted\n" if shape == "prop" else b"SIG 01 q%d skin ff 3\n"
        return b"KRN 1\n" + block + b"".join(line % i for i in range(k))
    if shape == "script":
        acts = b"".join(b"ACT %d - 1\n" % i for i in range(2, k + 2))
        return b"KRN 1\nOBJ 1\n" + acts + b"".join(
            b"SCRIPT 0%d\n<<<\nset object.x = %d;\n>>>\n" % (i, i) for i in range(2, k + 2))
    objects = b"".join(b"OBJ %d\n" % i for i in range(1, k + 2))
    if shape == "isa":
        return b"KRN 1\n" + objects + b"".join(b"ISA 0%d 0%d\n" % (i, i + 1) for i in range(1, k + 1))
    return b"KRN 1\n" + objects + b"".join(b'LABEL 0%d en "l%d"\n' % (i, i) for i in range(1, k + 1))


def _open_and_close(path):
    with store.open(path):
        pass


def _time_ratio(prepared) -> float:
    """The best time of the call `prepared(4800)` gives over that of the
    call `prepared(600)` gives: about 8 for a call linear in k, about 64
    for a quadratic one."""
    def best(k, tries):
        call = prepared(k)
        times = []
        for _ in range(tries):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return min(times)

    small = best(600, 3)
    return best(4800, 2) / small


@pytest.mark.parametrize("shape", ["prop", "sig", "script", "isa", "label", "label-run", "escapes",
                                   "open-quote"])
@pytest.mark.parametrize("read", [store.load, _open_and_close], ids=["load", "open"])
def test_records_outside_their_blocks_read_in_linear_time(tmp_path, shape, read):
    """A file with eight times the records, or a line eight times as long,
    takes a load or an open about eight times as long: the ratio of the
    best times stays under 24, which linear time meets and quadratic time
    does not. At 600 PROP lines after a block of 600, a load that checks
    each line against every line of the block takes about 50 times as
    long at 4 800. A quote left open fails, in linear time too."""
    def prepared(k):
        path = tmp_path / f"{shape}-{k}.krn"
        path.write_bytes(_outside_blocks(shape, k))
        if shape == "open-quote":
            return lambda: pytest.raises(FormatError, read, str(path))
        return lambda: read(str(path))

    ratio = _time_ratio(prepared)
    assert ratio < 24, ratio


@pytest.mark.parametrize("parse, unit", [
    (split_commands, 'set #1.x "a;\\"b" ; '), (split_words, "w 'q r' \"s\\\"t\" "),
    (parse_fragment, 'ab\\"')], ids=["split_commands", "split_words", "parse_fragment"])
def test_the_command_splitters_and_the_fragment_parser_run_in_linear_time(parse, unit):
    """A command line, or a fragment's string literal, of eight times the
    characters takes `split_commands`, `split_words` or `parse_fragment`
    about eight times as long (`_time_ratio` under 24)."""
    def prepared(k):
        text = unit * k if parse is not parse_fragment else f'colour == "{unit * 5 * k}"'
        return lambda: parse(text)

    ratio = _time_ratio(prepared)
    assert ratio < 24, ratio


def _scan_peak(data: bytes) -> int:
    """The tracemalloc peak of an `open` scan of `data` above what it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        index = store._read(data, False)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held


def test_the_open_scan_keeps_nothing_per_label():
    """An `open` scan checks each LABEL line's node and keeps no label: a
    second language's label on every node of a 10^4-node file raises the
    scan's peak, above what it returns, by under 40 B a label (about 180 B
    when it built a tuple per label and an owner dict per run)."""
    n = 10_000
    objects = b"".join(b"OBJ %d\n" % i for i in range(1, n + 1))
    en = [b'LABEL %d en "o%d"\n' % (i, i) for i in range(1, n + 1)]
    fr = [b'LABEL %d fr "f%d"\n' % (i, i) for i in range(1, n + 1)]
    one = _scan_peak(b"KRN 1\n" + objects + b"".join(en))
    two = _scan_peak(b"KRN 1\n" + objects + b"".join(e + f for e, f in zip(en, fr)))
    assert (two - one) / n < 40, (one, two)


@pytest.mark.parametrize("line, as_saved", [
    (b"PROP 1 x num 1.0", False), (b"PROP 1 x num 1 asserted", False),
    (b'PROP 1 x text "a"', False), (b"PROP 1 x bool true inferred", True)])
def test_a_shared_tail_save_writes_otherwise_gives_no_block_a_span(tmp_path, line, as_saved):
    """A tail `save` would write otherwise (no provenance token, `num 1`)
    in two blocks of one read, the second sharing the first's decode of
    it: neither node has a span, in a first load or a reload."""
    tail = line.split(b" ", 2)[2]
    data = b"KRN 1\nOBJ 1\n" + line + b"\nOBJ 2\nPROP 2 " + tail + b"\n"
    cold, warm = _reloaded(tmp_path, data)
    assert len(cold) == 6 and sorted(cold[2]) == ([1, 2] if as_saved else [])
    assert _same_load(cold, warm)


def _traffic_files(rng, tmp_path) -> list[str]:
    """Three saved nets shaped as the `store-full` benchmark's: objects
    with shared values, actions whose scripts write their target, an
    English label on every node and a French one on some actions."""
    paths = []
    for f in range(3):
        net, lexicon = Net(), Lexicon()
        objects = [net.add_object([
            ("colour", Value.text(rng.choice(["red", "grey", "white"]))),
            ("x", Value.num(rng.randrange(5))),
            *([("mass", Value.num(rng.randrange(3) / 2))] if rng.random() < 0.5 else [])])
            for _ in range(12)]
        texts = ["set object.x = object.x + 1;", 'set object.colour = "red";',
                 f"set object.x = {rng.randrange(100)};", None]
        actions = [net.add_action(rng.choice([None, *objects]), rng.choice(objects), rng.choice(texts))
                   for _ in range(10)]
        for i, nid in enumerate(objects):
            lexicon.set_label(nid, "en", f"o{i}")
        for j, nid in enumerate(actions):
            lexicon.set_label(nid, "en", f"a{j}")
            if j % 3 == 0:
                lexicon.set_label(nid, "fr", f"agir{j}")
        paths.append(_saved(tmp_path, net, lexicon, name=f"traffic-{f}.krn"))
    return paths


def _counting(monkeypatch, counts, names=None):
    """Each function of `store` named in `names`, else in `counts`, counts
    its calls there."""
    for name in counts if names is None else names:
        def counted(*args, _real=getattr(store, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(store, name, counted)


def test_store_full_traffic_through_one_session_memo_loads_as_cold(tmp_path, monkeypatch):
    """load -> set or run -> save over three files in turn through one CLI
    session, as the `store-full` benchmark runs: each load after the
    first three takes back the net the session saved, reads nothing, and
    equals a cold load in everything `_full_view` compares and in its run
    state."""
    rng = random.Random(3333)
    paths = _traffic_files(rng, tmp_path)
    session = Session()
    counts = {"_read": 0, "_build": 0}
    _counting(monkeypatch, counts)
    for step in range(90):
        path = paths[step % 3]
        counts.update(dict.fromkeys(counts, 0))
        run_command(session, f"load {path}")
        net = session.net
        assert counts == dict.fromkeys(counts, int(step < 3)), f"step {step}"
        assert _full_view(net, session.lexicon) == _full_view(*store.load(path)), f"step {step}"
        assert (net.clock, net.timeline, net.journal, net.sense_log) == (0, None, None, None)
        if rng.random() < 0.6:
            scripted = [aid for aid, act in sorted(net.actions.items()) if act.script.text]
            run_command(session, f"run #{rng.choice(scripted)}")
        else:
            obj = rng.choice(sorted(net.objects))
            run_command(session, f"set #{obj}.{rng.choice(['x', 'mass'])} {rng.randrange(4)}")
        run_command(session, f"save {path}")
    assert len(kept_nets(session.memo)) == 2 and session.memo.size <= store.MAX_MEMO_BYTES


class _CountedPattern:
    """A compiled pattern whose every call is counted under its name."""

    def __init__(self, pattern, name, counts):
        self.pattern, self.name, self.counts = pattern, name, counts

    def __getattr__(self, method):
        def counted(*args):
            self.counts[self.name] += 1
            return getattr(self.pattern, method)(*args)
        return counted


def test_a_reload_of_a_kept_net_reads_no_line(tmp_path, monkeypatch):
    """A count, not a timing: a reload of an unchanged file through a memo
    that keeps the first load's net matches no run of lines, decodes no
    value and no text, and reads no field of any line."""
    path = _traffic_files(random.Random(7), tmp_path)[0]
    counts = dict.fromkeys(["_BLOCK", "_PROP_LINE", "_TOKEN_RE", "_LABEL_FIELDS", "_ISA_FIELDS",
                            "_decode_prop", "_decode_value", "decode_text", "_utf8_text"], 0)
    for name in counts:
        real = getattr(store, name)
        if isinstance(real, re.Pattern):
            monkeypatch.setattr(store, name, _CountedPattern(real, name, counts))
        else:
            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(store, name, counted)
    memo = store.ValueMemo()
    first = store.load(path, memo)
    view = _full_view(*first)
    assert counts["_PROP_LINE"] and counts["_LABEL_FIELDS"] and counts["_decode_prop"]
    counts.update(dict.fromkeys(counts, 0))
    assert memo.keep(*first)
    again = store.load(path, memo)
    assert counts == dict.fromkeys(counts, 0)
    assert again[0] is first[0] and _full_view(*again) == view


def test_a_load_never_returns_a_net_a_caller_holds(tmp_path):
    """Loads of three files through one memo, each net then let go into
    the memo or held: no load returns a net the caller still holds, and a
    net taken back leaves the memo, so the next load of its bytes reads
    them and builds another."""
    rng = random.Random(8)
    paths = _traffic_files(rng, tmp_path)
    memo = store.ValueMemo()
    held, taken = [], 0
    for step in range(60):
        path = rng.choice(paths)
        data = Path(path).read_bytes()
        kept = kept_nets(memo).get(data, (None,))[0]
        net, lexicon = store.load(path, memo)
        assert all(net is not other for other in held), f"step {step}"
        assert net is kept if kept is not None else data not in kept_nets(memo), f"step {step}"
        taken += kept is not None
        if rng.random() < 0.5:
            assert memo.keep(net, lexicon)
        else:
            held.append(net)
    assert taken > 10 and len(held) > 10


def _reads_as(lexicon, want, nodes, texts):
    """Whether `lexicon` answers every read as `want` does, for these nodes
    and texts in each language either holds and one neither does."""
    if lexicon.labels != want.labels or lexicon.items() != want.items():
        return False
    langs = {lang for _, lang in [*want.labels, *lexicon.labels]} | {"es"}
    for text in texts:
        if lexicon.lookup_any(text) != want.lookup_any(text) or any(
                lexicon.lookup(lang, text) != want.lookup(lang, text) for lang in langs):
            return False
    for node in nodes:
        for lang in langs:
            try:
                got = lexicon.label_of(node, lang)
            except NoLabel:
                got = None
            try:
                if got != want.label_of(node, lang):
                    return False
            except NoLabel:
                if got is not None:
                    return False
    return True


def test_a_relabelled_net_is_never_kept_and_later_loads_read_the_file(tmp_path):
    """A net whose lexicon changed since its load or save is not kept, so
    every later load reads the file's LABEL lines, not the ones that
    changed: relabelled through the API, or through the CLI (`label`, and
    `obj` binding a name). A save of a changed lexicon writes its labels
    line by line, as they now stand, and makes them the lexicon's source,
    so the next let-go keeps the net, and a reload reads those labels."""
    rng = random.Random(3939)
    path, other = _traffic_files(rng, tmp_path)[:2]
    labels = [(int(node), lang, store.decode_text(text, 0)) for node, lang, text in
              re.findall(r'^LABEL ([0-9]+) (\S+) (".*")$', Path(path).read_text(), re.M)]
    want = Lexicon.of(labels)
    nodes = sorted({node for node, _, _ in labels}) + [999]
    texts = sorted({text for _, _, text in labels}) + ["renamed", "nouveau", "fresh", "absent"]
    memo = store.ValueMemo()
    net, lexicon = store.load(path, memo)
    picked = rng.sample(nodes[:-1], 3)
    lexicon.set_label(picked[0], "en", "renamed")
    lexicon.set_label(picked[1], "de", "nouveau")
    assert not memo.keep(net, lexicon) and not memo.nets
    assert _reads_as(store.load(path, memo)[1], want, nodes, texts)
    session = Session()
    for command in (f"label #{picked[2]} en {rng.choice(texts[:-4])}", "obj fresh x=1"):
        run_command(session, f"load {path}")
        run_command(session, command)
        run_command(session, f"load {other}")
        assert not session.memo.nets
        run_command(session, f"load {path}")
        assert _reads_as(session.lexicon, want, nodes, texts)
    # a changed lexicon's save writes its labels line by line, as they now stand
    run_command(session, f"label #{picked[0]} en renamed")
    run_command(session, f"save {path}")
    saved, net = session.lexicon.items(), session.net
    assert session.lexicon.source == Path(path).read_bytes()[-len(session.lexicon.source):]
    run_command(session, f"load {other}")
    run_command(session, f"load {path}")
    assert session.net is net and session.lexicon.items() == saved == store.load(path)[1].items()


def _full_view(net, lexicon):
    """Everything a load gives, in order: each record's provenance, its
    properties (values by repr, so that a NaN equals itself here), its
    endpoints or endpoint lists, its script, the mark on each, and which
    records it shares with others; then next_id, the is-a edges, the blocks,
    the source, and the labels with the lexicon's source."""
    seen: dict[int, int] = {}

    def first_seen(kept):   # where a record was first met: the sharing pattern
        return seen.setdefault(id(kept), len(seen))

    nodes = []
    for rec in [*net.objects.values(), *net.actions.values()]:
        props = [(name, repr(prop.value), prop.provenance, prop.load_state, prop.from_store,
                  first_seen(prop)) for name, prop in rec.properties.items()]
        if rec.id in net.objects:
            ends = (rec.outgoing, rec.incoming)
        else:
            script_ = rec.script
            ends = (rec.subject, rec.target, script_.text, script_.from_store,
                    script_.ast is not None, first_seen(script_))
        nodes.append((rec.id, rec.provenance, props, ends))
    return (nodes, net.next_id, net.isa_edges, list(_blocks(net).items()), net.source,
            list(lexicon.labels.items()), lexicon.source)


def _viewed(load):
    """`_full_view` of what `load()` gives, or the typed error it raises."""
    try:
        return _full_view(*load())
    except (FormatError, ScriptParseError) as exc:
        return type(exc), str(exc), exc.line


def _session_edit(rng, session, step):
    """One random edit of the session's net through the CLI or the API; an
    edit the engine refuses changes nothing."""
    net = session.net
    objects, actions = sorted(net.objects), sorted(net.actions)
    roll = rng.random()
    try:
        if roll < 0.3 and objects:
            # a text save writes as one escape (or none) is not a matched run
            value = rng.choice(["1", "2.5", "-3", "true", "unset", '"grey"', str(step)] * 3
                               + ['"héllo"', '"a\\"b"'])
            run_command(session, f"set #{rng.choice(objects)}.{rng.choice(['x', 'mass', 'y'])} {value}")
        elif roll < 0.45:
            scripted = [aid for aid in actions if net.actions[aid].script.text]
            if scripted:
                run_command(session, f"run #{rng.choice(scripted)}")
        elif roll < 0.55:
            run_command(session, f"obj n{step} x={rng.randrange(9)} colour=\"red\"")
        elif roll < 0.65 and objects:
            subject = rng.choice(["-", *(f"#{o}" for o in objects)])
            run_command(session, f"act {subject} #{rng.choice(objects)} script='set object.x = {step};'")
        elif roll < 0.72 and objects:
            run_command(session, f"label #{rng.choice(objects)} en w{step}")
        elif roll < 0.8 and len(objects) > 1:
            run_command(session, f"isa #{rng.choice(objects)} #{rng.choice(objects)}")
        elif roll < 0.97 and objects:
            net.erase_node(rng.choice([*objects, *actions]))
        elif objects:   # a value no run may hold
            net.set_property(rng.choice(objects), "x", Value.num(math.nan))
    except KrnError:
        pass


def test_session_loads_after_its_own_saves_equal_cold_loads(tmp_path):
    """load, edit through the CLI or the API, save, over six files through
    one session, and now and then a file edited from outside: every load
    through the session's memo equals a cold load of the same file in
    everything `_full_view` compares, or raises the same typed error at the
    same line, and a net the memo keeps for a file's bytes holds the
    blocks a read of them spans and has every other node to encode. A net
    reloaded through the memo after the session saved its file is
    evictable by a handle on the file."""
    rng = random.Random(3636)
    paths = _traffic_files(rng, tmp_path)
    for i in range(3):
        paths.append(_saved(tmp_path, *random_net(rng, max_objects=12), f"random-{i}.krn"))
    session = Session()
    saved = set()   # paths whose last write was the session's save
    held = 0
    for step in range(600):
        path = rng.choice(paths)
        if rng.random() < 0.08:
            Path(path).write_bytes(_mutated(rng, Path(path).read_bytes()))
            saved.discard(path)
        data = Path(path).read_bytes()
        kept = kept_nets(session.memo).get(data)
        if kept is not None:   # it holds the blocks a read of the bytes spans, the rest to encode
            held += 1
            entries, spanned = store._read(data, True)[0][:2]
            assert kept[0].blocks == {entry[0]: data[span.start:span.stop]
                                      for entry, span in zip(entries, spanned) if span is not None}, f"step {step}"
            assert kept[0].dirty == {entry[0] for entry, span in zip(entries, spanned)
                                     if span is None}, f"step {step}"
        warm = _viewed(lambda: (run_command(session, f"load {path}"), (session.net, session.lexicon))[1])
        cold = _viewed(lambda: store.load(path))
        assert warm == cold, f"step {step}"
        if len(cold) == 3:   # refused: start the file afresh
            store.save(*random_net(rng, max_objects=12), path)
            saved.discard(path)
            continue
        if path in saved:
            net = store.load(path, session.memo)[0]
            with store.open(path) as handle:
                for nid in [*net.objects, *net.actions]:
                    handle.evict(nid, net)
            assert {prop.load_state for _, prop in _props_of(net)} <= {PropLoad.STUB}
        for _ in range(rng.randrange(4)):
            _session_edit(rng, session, step)
        run_command(session, f"save {path}")
        saved.add(path)
    assert held > 100


def _props_of(net):
    return [(key, kept) for key, kept in _marked(net) if key[1] is not None]


def test_a_load_after_a_save_reads_no_run(tmp_path, monkeypatch):
    """A count, not a timing: a save reads exactly the blocks it encoded,
    one match and one block read each and no pass of `_read`, and a load
    of what it wrote, through a memo that keeps the saved net, reads
    nothing and builds nothing: no run of lines is matched, no record read
    and no node built."""
    counts = dict.fromkeys(["_BLOCK", "_node_run", "_read", "_build", "ObjectRecord",
                            "ActionRecord"], 0)
    monkeypatch.setattr(store, "_BLOCK", _CountedPattern(store._BLOCK, "_BLOCK", counts))
    _counting(monkeypatch, counts, [*counts][1:])
    memo = store.ValueMemo()
    path = _traffic_files(random.Random(9), tmp_path)[0]
    net, lexicon = store.load(path, memo)
    counts.update(dict.fromkeys(counts, 0))
    # three blocks no file has held, the last right before the LABEL lines copied
    encoded = [*sorted(net.objects)[:3:2], max(net.actions)]
    for nid in encoded:
        net.set_property(nid, "x", Value.num(1000 + nid))
    store.save(net, lexicon, path)
    assert counts["_node_run"] == counts["_BLOCK"] == 3
    assert counts["_read"] == counts["_build"] == 0
    assert memo.keep(net, lexicon)
    counts.update(dict.fromkeys(counts, 0))
    again = store.load(path, memo)
    assert counts == dict.fromkeys(counts, 0) and again[0] is net
    assert _full_view(*again) == _full_view(*store.load(path))
    # a net no file gave has no source after a save, and is never kept
    fresh = Net()
    fresh.add_object([("x", Value.num(7))])
    store.save(fresh, Lexicon(), path)
    assert fresh.source is None and not fresh.blocks and not memo.keep(fresh, Lexicon())


class _Passes(dict):
    """A dict that counts the passes over it (iterations of it, its keys,
    its values or its items, or a copy by `|`) and the lookups of one key
    in it (`[]` or `get`)."""

    passes = lookups = 0

    def _pass(self, view):
        self.passes += 1
        return view

    def __or__(self, other):   # a copy through the methods above would count each key
        return self._pass(dict(dict.items(self)) | other)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __iter__(self):
        return self._pass(super().__iter__())

    def keys(self):
        return self._pass(super().keys())

    def values(self):
        return self._pass(super().values())

    def items(self):
        return self._pass(super().items())


def test_a_save_after_one_set_encodes_one_block(tmp_path, monkeypatch):
    """A count, not a timing: after a warm load (a net taken back) and one
    `set`, a save encodes the block of that node alone (`_prop_line` runs
    for its properties only), makes one pass over the block table
    (`Net.blocks`, in write order), with at most one lookup there, and
    none over the node tables, and every other node keeps the very bytes
    object it held as its block; neither `keep` nor `take` passes over
    the records the net's source shares."""
    memo = store.ValueMemo()
    path = _traffic_files(random.Random(17), tmp_path)[0]
    assert memo.keep(*store.load(path, memo))
    net, lexicon = store.load(path, memo)   # warm: the net taken back
    assert not memo.nets
    nid = sorted(net.objects)[5]
    net.set_property(nid, "x", Value.num(4242.5))
    held = dict(net.blocks)
    owners = []
    real = store._prop_line
    monkeypatch.setattr(store, "_prop_line", lambda owner, prop: owners.append(owner) or real(owner, prop))
    blocks, objects, actions = net.blocks, net.objects, net.actions = (
        _Passes(net.blocks), _Passes(net.objects), _Passes(net.actions))
    store.save(net, lexicon, path)
    assert blocks.passes == 1 and blocks.lookups <= 1 and objects.passes == actions.passes == 0
    assert owners == [nid] * len(net.objects[nid].properties)
    assert list(net.blocks) == [*sorted(net.objects), *sorted(net.actions)] and not net.dirty
    assert all(net.blocks[other] is block for other, block in held.items() if other != nid)
    net.origin.records = records = _Passes(net.origin.records)
    assert memo.keep(net, lexicon)
    assert store.load(path, memo)[0] is net and records.passes == 0
    assert _full_view(net, lexicon) == _full_view(*store.load(path))


@pytest.mark.parametrize("came", ["obj", "stub"])
def test_a_node_that_comes_puts_the_block_table_in_write_order_once(tmp_path, came):
    """A count, not a timing: after a node comes in, by a CLI `obj` (an id
    past every node, written before every action) or as a stub through a
    handle (an id an erase freed, inside the table), the next save
    builds the block table (`Net.blocks`) again in write order, objects by
    id and then actions by id, and writes what a full save writes; the
    save after one more `set` makes one pass over it again."""
    paths = _traffic_files(random.Random(18), tmp_path)
    session = Session()
    run_command(session, f"load {paths[0]}")
    net = session.net
    if came == "obj":
        run_command(session, "obj lamp colour=red")
    else:
        freed = sorted(net.objects)[4]
        net.erase_node(freed)
        run_command(session, f"save {paths[0]}")
        with store.open(paths[1]) as handle:
            for name in handle.props[freed]:
                handle.hydrate_property(freed, name, net)
    run_command(session, f"save {paths[0]}")
    order = [*sorted(net.objects), *sorted(net.actions)]
    assert list(net.blocks) == order and not net.dirty
    assert Path(paths[0]).read_bytes() == _saved_in_full(net, session.lexicon, str(tmp_path / "full.krn"))
    net.set_property(order[-1], "x", Value.num(5))
    net.blocks = blocks = _Passes(net.blocks)
    run_command(session, f"save {paths[0]}")
    assert blocks.passes == 1 and blocks.lookups <= 1
    assert list(net.blocks) == order and not net.dirty
    assert Path(paths[0]).read_bytes() == _saved_in_full(net, session.lexicon, str(tmp_path / "full.krn"))


def test_an_id_that_changes_kind_between_saves_is_written_in_its_table(tmp_path):
    """An object erased and its id stubbed back in as an action through a
    handle, with no save between, is written among the actions: the save
    writes what a full save writes and leaves the block table in write
    order, although every node held has a block and none dropped has one."""
    net = Net()
    first, freed, last = (net.add_object([("x", Value.num(i))]) for i in range(3))
    net.add_action(first, last)
    net, lexicon = store.load(_saved(tmp_path, net))
    other = Net()
    assert other.add_action(None, other.add_object()) == freed
    net.erase_node(freed)
    with store.open(_saved(tmp_path, other, name="other.krn")) as handle:
        handle.load_stub(freed, net)
    path = str(tmp_path / "net.krn")
    store.save(net, lexicon, path)
    assert Path(path).read_bytes() == _saved_in_full(net, lexicon, str(tmp_path / "full.krn"))
    assert list(net.blocks) == [*sorted(net.objects), *sorted(net.actions)]


def test_a_save_after_an_expand_encodes_what_the_expand_touched(tmp_path, monkeypatch):
    """A count, not a timing: load, give each action a property, save,
    collapse one object, save, expand it, save. The last save encodes the
    restored object and the actions the expand points back at it alone
    (`_prop_line` runs for their properties only): the restored id goes
    in by its block like any other, and every other node's block is
    copied. A reload through the memo takes the net back and equals a
    cold load."""
    memo = store.ValueMemo()
    path = _traffic_files(random.Random(16), tmp_path)[0]
    net, lexicon = store.load(path, memo)
    for aid in net.actions:
        net.set_property(aid, "w", Value.num(aid))
    store.save(net, lexicon, path)
    obj = min(nid for nid, rec in net.objects.items() if rec.incoming and rec.outgoing)
    made = collapse_to_object(net, {obj})
    store.save(net, lexicon, path)
    expand(net, made)
    touched = {obj, *net.objects[obj].incoming, *net.objects[obj].outgoing}
    owners = []
    real = store._prop_line
    monkeypatch.setattr(store, "_prop_line", lambda owner, prop: owners.append(owner) or real(owner, prop))
    store.save(net, lexicon, path)
    assert sorted(owners) == sorted(nid for nid in touched for _ in net.node(nid).properties)
    assert net.blocks.keys() == set(net.node_ids()) and not net.dirty
    assert net.clean and memo.keep(net, lexicon)
    again = store.load(path, memo)
    assert again[0] is net and _full_view(*again) == _full_view(*store.load(path))


def test_the_memo_charges_what_it_keeps(tmp_path):
    """Each kept net is charged `_charge`: keeping a net for bytes the memo
    keeps a net of replaces that one and its charge, a take or a release
    uncharges it, and a release gives only the net named."""
    paths = _traffic_files(random.Random(10), tmp_path)
    memo = store.ValueMemo()
    nets = [store.load(path) for path in paths]
    for pair in nets:
        assert memo.keep(*pair)
    assert memo.size == sum(store._charge(*pair) for pair in nets)
    twin = store.load(paths[0])
    assert memo.keep(*twin)
    assert len(kept_nets(memo)) == 3 and kept_nets(memo)[twin[0].source][0] is twin[0]
    assert memo.size == sum(store._charge(*pair) for pair in [twin, *nets[1:]])
    memo.release(nets[0][0])   # no longer kept: nothing changes
    memo.release(nets[1][0])
    assert len(kept_nets(memo)) == 2 and memo.size == sum(store._charge(*pair) for pair in [twin, nets[2]])
    assert store.load(paths[2], memo)[0] is nets[2][0]
    assert list(kept_nets(memo)) == [twin[0].source] and memo.size == store._charge(*twin)


@pytest.mark.parametrize("breakage", ["dangling-end", "dangling-subject", "dangling-isa",
                                      "isa-from-action", "bad-script", "other-labels"])
def test_a_net_a_read_of_its_save_refuses_is_never_kept(tmp_path, breakage):
    """A net broken past what the file format holds, each node it breaks
    reported (`Net.touch`), and then saved is not clean, since a read of
    what it wrote refuses it or a check of the nodes reported does, and is
    never kept:
    the load of its file raises as a cold load does. The bad reference of
    each of the first four lies in a block the save copied or an is-a
    line; an encoded script that does not parse, or the LABEL lines of
    another file, are the other two, and with those labels the read gives
    the net, which the memo keeps."""
    paths = _traffic_files(random.Random(12), tmp_path)
    net, lexicon = store.load(paths[0])
    act = next(aid for aid, rec in sorted(net.actions.items()) if rec.subject is not None)
    gone = net.actions[act].target if breakage == "dangling-end" else net.actions[act].subject
    if breakage.startswith("dangling-") and breakage != "dangling-isa":
        # the object that goes has no label, so the save still copies the labels
        store.save(net, Lexicon.of([label for label in lexicon.items() if label[0] != gone]), paths[0])
    memo = store.ValueMemo()
    net, lexicon = store.load(paths[0], memo)
    objects, actions = sorted(net.objects), sorted(net.actions)
    if breakage in ("dangling-end", "dangling-subject"):   # an object goes, its actions stay
        net.touch(gone, net.objects[gone], gone=True)
        net.touch(act)
        del net.objects[gone]
    elif breakage == "dangling-isa":
        net.isa_edges.append((objects[0], actions[-1] + 1))
    elif breakage == "isa-from-action":
        net.isa_edges.append((actions[0], objects[0]))
    elif breakage == "bad-script":
        net.touch(actions[0])
        net.actions[actions[0]].script = ScriptRef("set object.x = ;")
    else:   # the lexicon of another file, whose LABEL lines differ
        other, other_lexicon = store.load(paths[0])
        other_lexicon.set_label(objects[0], "en", "elsewhere")
        store.save(other, other_lexicon, paths[1])
        lexicon = store.load(paths[1], memo)[1]
    store.save(net, lexicon, paths[0])
    assert memo.keep(net, lexicon) == (breakage == "other-labels")
    cold = _viewed(lambda: store.load(paths[0]))
    assert (len(cold) == 3) == (breakage != "other-labels")   # a typed error, or a net
    assert _viewed(lambda: store.load(paths[0], memo)) == cold
    assert not memo.nets


@pytest.mark.parametrize("sourced", [False, True])
def test_save_refuses_an_id_held_as_both_kinds_and_leaves_the_file_alone(tmp_path, sourced):
    """A load refuses a file that holds an id as both kinds, so a save of
    such a net raises before any file is touched, whether it encodes every
    node (no source) or only those changed since its source; the refused
    net is never kept."""
    net = Net()
    assert net.add_action(net.add_object([]), net.add_object([])) == 3
    path = _saved(tmp_path, net)
    before = Path(path).read_bytes()
    memo = store.ValueMemo()
    if sourced:
        net, lexicon = store.load(path, memo)
    net.insert(ObjectRecord(3))
    with pytest.raises(BipartiteViolation, match="node 3"):
        store.save(net, None, path)
    assert Path(path).read_bytes() == before and os.listdir(tmp_path) == ["net.krn"]
    assert not (sourced and memo.keep(net, lexicon))


def test_a_net_saved_over_its_file_is_evictable_through_a_handle_on_it(tmp_path):
    """A save makes the file it writes the net's own: after `load p` and
    `save p` a handle on p demotes the net's values, copied or encoded, as
    it does a cold load's, and after a save to q a handle on q does, and
    one on p nothing."""
    net = Net()
    net.add_object([("x", Value.num(1))])
    net.add_object([("y", Value.num(2))])
    p, q = _saved(tmp_path, net, name="p.krn"), str(tmp_path / "q.krn")
    net, lexicon = store.load(p)
    store.save(net, lexicon, p)
    net.set_property(2, "y", Value.num(3))   # encoded by the next save
    store.save(net, lexicon, p)
    with store.open(p) as handle:
        handle.evict(1, net)
        handle.evict(2, net)
    assert [prop.load_state for _, prop in _props_of(net)] == [PropLoad.STUB] * 2
    with store.open(p) as handle:
        assert handle.hydrate_property(2, "y", net) == Value.num(3)
        handle.hydrate_property(1, "x", net)
    store.save(net, lexicon, q)
    with store.open(p) as handle:
        handle.evict(1, net)
    assert net.objects[1].properties["x"].load_state is PropLoad.HYDRATED
    with store.open(q) as handle:
        handle.evict(1, net)
    assert net.objects[1].properties["x"].load_state is PropLoad.STUB


def test_a_net_saved_twice_is_taken_back_without_a_read(tmp_path, monkeypatch):
    """load, set, save, set, save: each save makes what it wrote the net's
    source, so the second copies the blocks the first wrote, and a reload
    of the file through a memo that keeps the net reads nothing and builds
    nothing, and equals a cold load."""
    path = _traffic_files(random.Random(14), tmp_path)[0]
    memo = store.ValueMemo()
    net, lexicon = store.load(path, memo)
    objects = sorted(net.objects)
    for nid, x in ((objects[0], 11), (objects[3], 12)):
        net.set_property(nid, "x", Value.num(x))
        store.save(net, lexicon, path)
        assert net.source == Path(path).read_bytes() and len(net.blocks) == len(net.objects) + len(net.actions)
    counts = {"_read": 0, "_build": 0}
    _counting(monkeypatch, counts)
    assert memo.keep(net, lexicon)
    again = store.load(path, memo)
    assert again[0] is net and counts == {"_read": 0, "_build": 0}
    assert _full_view(*again) == _full_view(*store.load(path))


@pytest.mark.parametrize("edit", ["set", "isa", "label", "erase", "collapse", "collapse-expand"])
def test_a_net_changed_since_its_save_is_never_taken_back(tmp_path, monkeypatch, edit):
    """A session's net changed after its save through a set, an is-a
    edge, a label, an erase or a collapse is never kept: a load of its
    file reads the file, and equals a cold load."""
    paths = _traffic_files(random.Random(15), tmp_path)
    session = Session()
    run_command(session, f"load {paths[0]}")
    run_command(session, f"save {paths[0]}")
    net = session.net
    obj = next(nid for nid, rec in sorted(net.objects.items()) if rec.incoming or rec.outgoing)
    if edit == "set":
        run_command(session, f"set #{obj}.x 99")
    elif edit == "isa":
        run_command(session, f"isa #{obj} #{max(net.objects)}")
    elif edit == "erase":
        net.erase_node(max(net.actions))
    elif edit == "label":
        run_command(session, f"label #{obj} en renamed")
    else:
        run_command(session, f"collapse-obj #{obj}")
        if edit == "collapse-expand":
            run_command(session, f"expand #{max(net.objects)}")
    run_command(session, f"load {paths[1]}")
    counts = {"_read": 0}
    _counting(monkeypatch, counts)
    run_command(session, f"load {paths[0]}")
    assert session.net is not net and counts["_read"] == 1
    assert _full_view(session.net, session.lexicon) == _full_view(*store.load(paths[0]))


@pytest.mark.parametrize("saved_between", [False, True])
def test_a_net_saved_after_an_expand_is_taken_back_without_a_read(tmp_path, monkeypatch,
                                                                   saved_between):
    """An expand puts its nodes back in the id order a read gives, so a
    net saved after a collapse and an expand, with or without a save
    between the two, is clean: a load of its file takes the net back,
    reading nothing, and equals a cold load."""
    paths = _traffic_files(random.Random(16), tmp_path)
    session = Session()
    run_command(session, f"load {paths[0]}")
    net = session.net
    obj = min(nid for nid, rec in net.objects.items() if rec.incoming or rec.outgoing)
    made = run_command(session, f"collapse-obj #{obj}")[0]
    if saved_between:
        run_command(session, f"save {paths[0]}")
    run_command(session, f"expand #{made.rsplit('#', 1)[1]}")
    run_command(session, f"save {paths[0]}")
    assert list(net.objects) == sorted(net.objects) and list(net.actions) == sorted(net.actions)
    assert net.clean
    run_command(session, f"load {paths[1]}")
    counts = {"_read": 0}
    _counting(monkeypatch, counts)
    run_command(session, f"load {paths[0]}")
    assert session.net is net and counts["_read"] == 0
    assert _full_view(session.net, session.lexicon) == _full_view(*store.load(paths[0]))


def _session_step(rng, session, paths, step, complex_nodes):
    """One random command of a session over `paths`, other than a load;
    True if it was a save, whose bytes are checked against a full save of
    a deep copy with no source (`_saved_in_full`). A command the engine
    refuses changes nothing."""
    net = session.net
    objects, actions = sorted(net.objects), sorted(net.actions)
    roll = rng.random()
    try:
        if roll < 0.2 and objects:
            value = rng.choice(["1", "2.5", "true", "unset", '"grey"', str(step), '"héllo"'])
            run_command(session, f"set #{rng.choice(objects)}.{rng.choice(['x', 'mass', 'y'])} {value}")
        elif roll < 0.35 and actions:
            scripted = [aid for aid in actions if net.actions[aid].script.text]
            if scripted:
                run_command(session, f"run #{rng.choice(scripted)}")
        elif roll < 0.42 and len(objects) > 1:
            run_command(session, f"isa #{rng.choice(objects)} #{rng.choice(objects)}")
        elif roll < 0.49 and objects:
            run_command(session, f"label #{rng.choice(objects)} {rng.choice(['en', 'fr'])} w{step}")
        elif roll < 0.55 and objects:
            net.erase_node(rng.choice([*objects, *actions]))
        elif roll < 0.6 and objects:
            made = run_command(session, f"collapse-obj #{rng.choice(objects)}")[0]
            complex_nodes.append(int(made.rsplit("#", 1)[1]))
        elif roll < 0.68 and complex_nodes:
            run_command(session, f"expand #{complex_nodes.pop(rng.randrange(len(complex_nodes)))}")
        elif roll < 0.7:
            run_command(session, "new")
        elif roll < 0.73:
            run_command(session, f"mine {' '.join(rng.sample(paths, 2))}")
        elif roll < 0.8:
            run_command(session, f"obj n{step} x={rng.randrange(9)}")
        else:   # what it writes is what a full save of a copy writes
            path = rng.choice(paths) if rng.random() < 0.3 else paths[0]
            run_command(session, f"save {path}")
            full = _saved_in_full(net, session.lexicon, str(Path(path).with_name("full.krn")))
            assert Path(path).read_bytes() == full, f"step {step}"
            return True
    except KrnError:
        pass
    return False


def test_random_cli_sessions_load_as_cold_loads(tmp_path, monkeypatch):
    """Seeded CLI sessions over four files mix every verb that changes a
    net with saves to the file loaded and to another, `new`, `mine` and
    loads of a corrupt file. Every load equals a cold `store.load` of the
    same bytes: in everything `_full_view` compares (a NaN by its bytes),
    in what a handle on the file demotes, and in its run state; a load
    that fails leaves the session its net. Many loads take back a net the
    session saved, reading nothing."""
    counts = {"_read": 0}
    _counting(monkeypatch, counts)
    rng = random.Random(4242)
    paths = _traffic_files(rng, tmp_path)
    paths.append(_saved(tmp_path, *random_net(rng, max_objects=10), "random.krn"))
    bad = tmp_path / "bad.krn"
    bad.write_bytes(Path(paths[0]).read_bytes() + b"OBJ 1\n")   # a duplicate node
    loads = taken = 0
    for _ in range(4):
        session = Session()
        complex_nodes: list = []
        current = None   # the path the session last loaded or saved to
        for step in range(150):
            if rng.random() < 0.06:
                net = session.net
                with pytest.raises(FormatError):
                    run_command(session, f"load {bad}")
                assert session.net is net
                continue
            if current is not None and rng.random() < 0.6:
                path = current if rng.random() < 0.5 else rng.choice(paths)
                counts["_read"] = 0
                try:
                    run_command(session, f"load {path}")
                except KrnError:   # a file a save left a read refuses
                    with pytest.raises(KrnError):
                        store.load(path)
                    continue
                net = session.net
                loads += 1
                taken += not counts["_read"]
                assert _full_view(net, session.lexicon) == _full_view(*store.load(path)), f"step {step}"
                assert (net.clock, net.timeline, net.journal, net.sense_log, net._executing) == (
                    0, None, None, None, False)
                if step % 5 == 0:   # what a handle on the file demotes, in copies of both
                    views = []
                    for held in (copy.deepcopy(net), store.load(path)[0]):
                        with store.open(path) as handle:
                            for nid in [*held.objects, *held.actions]:
                                handle.evict(nid, held)
                        views.append([(key, kept.state if key[1] is None else kept.load_state)
                                      for key, kept in _marked(held)])
                    assert views[0] == views[1], f"step {step}"
                current = path
                complex_nodes.clear()
                continue
            if _session_step(rng, session, paths, step, complex_nodes):
                current = paths[0] if current is None else current
    assert loads > 200 and taken > loads / 3


# ---------------------------------------------------------------- atomic save


def _labelled_wall(tmp_path):
    net, man, wall, paint = wall_net()
    lexicon = Lexicon()
    lexicon.set_label(wall, "en", "wall")
    return net, wall, lexicon, _saved(tmp_path, net, lexicon)


def test_save_keeps_the_file_mode_and_leaves_no_temp_file(tmp_path):
    net, wall, lexicon, path = _labelled_wall(tmp_path)
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert os.stat(path).st_mode == os.stat(plain).st_mode   # a new file: as open makes it
    os.chmod(path, 0o640)
    net.set_property(wall, "extra", Value.num(3))
    store.save(net, lexicon, path)
    assert os.stat(path).st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["net.krn", "plain"]
    assert nets_equal(store.load(path)[0], net)


def _path_form(tmp_path, monkeypatch, form):
    """(the path a save is given, the file it names, {each link on the
    way: what it points to}) for one form of path, the named file made
    first unless it is a dangling link's."""
    if form == "bare name":   # a relative name in the working directory
        monkeypatch.chdir(tmp_path)
        return "net.krn", tmp_path / "net.krn", {}
    if form == "dir link then ..":   # `..` leaves the directory the link points to
        (tmp_path / "a" / "b").mkdir(parents=True)
        (tmp_path / "l").symlink_to(Path("a", "b"))
        return str(tmp_path / "l" / ".." / "net.krn"), tmp_path / "a" / "net.krn", {"l": "a/b"}
    if form == "trailing separator":   # names the file without it
        return str(tmp_path / "net.krn") + os.sep, tmp_path / "net.krn", {}
    if form == "path object":
        return tmp_path / "net.krn", tmp_path / "net.krn", {}
    links = {"symlink": {"link.krn": "net.krn"},
             "chain of links": {"outer.krn": "inner.krn", "inner.krn": "net.krn"},
             "dangling link": {"link.krn": "new.krn"}}[form]
    for link, to in links.items():
        (tmp_path / link).symlink_to(to)
    return str(tmp_path / next(iter(links))), tmp_path / [*links.values()][-1], links


@pytest.mark.parametrize("form", ["bare name", "symlink", "chain of links", "dangling link",
                                  "dir link then ..", "trailing separator", "path object"])
def test_save_writes_the_file_each_form_of_path_names(tmp_path, monkeypatch, form):
    """A save through each form of path writes the file the path names: a
    link stays a link to what it pointed to, the file keeps its mode (a
    new one gets what a plain open gives it) and no temp file is left."""
    made = tmp_path / "made"
    made.mkdir()
    net, wall, lexicon, _ = _labelled_wall(made)
    path, named, links = _path_form(tmp_path, monkeypatch, form)
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    if form != "dangling link":
        store.save(net, lexicon, str(named))
        os.chmod(named, 0o640)
    net.set_property(wall, "extra", Value.num(3))
    store.save(net, lexicon, path)
    assert named.read_bytes() == _saved_in_full(net, lexicon, str(made / "full.krn"))
    assert {link: os.readlink(tmp_path / link) for link in links} == links
    mode = os.stat(plain).st_mode & 0o777 if form == "dangling link" else 0o640
    assert os.stat(named).st_mode & 0o777 == mode
    files = [os.path.relpath(os.path.join(folder, name), tmp_path)
             for folder, _, names in os.walk(tmp_path) for name in names
             if not os.path.islink(os.path.join(folder, name))]
    assert sorted(files) == sorted(["plain", "made/net.krn", "made/full.krn",
                                    str(named.relative_to(tmp_path))])


@pytest.mark.parametrize("name", ["n" * 251 + ".krn", "é" * 125 + "x.krn"], ids=["ascii", "utf-8"])
def test_a_save_to_a_name_of_255_bytes_leaves_no_temp_file(tmp_path, name):
    """A file name may take NAME_MAX (255) bytes, in any script: a save
    makes such a file and replaces it, and leaves no temp file."""
    assert len(os.fsencode(name)) == 255
    net, wall, lexicon, _ = _labelled_wall(tmp_path)
    path = str(tmp_path / name)
    store.save(net, lexicon, path)
    net.set_property(wall, "extra", Value.num(3))
    store.save(net, lexicon, path)
    assert nets_equal(store.load(path)[0], net)
    assert sorted(os.listdir(tmp_path)) == sorted(["net.krn", name])


@pytest.mark.parametrize("failing", ["write", "fsync"])
def test_failed_save_leaves_the_old_file_whole(tmp_path, monkeypatch, failing):
    net, wall, lexicon, path = _labelled_wall(tmp_path)
    with open(path, "rb") as fh:
        old = fh.read()
    net.set_property(wall, "extra", Value.num(3))

    def fail(*args):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(os, failing, fail)
        with pytest.raises(OSError):
            store.save(net, lexicon, path)
    with open(path, "rb") as fh:
        assert fh.read() == old
    assert os.listdir(tmp_path) == ["net.krn"]


# the os functions a save calls on its way to disk
_SAVE_CALLS = ["lstat", "stat", "open", "fchmod", "write", "fsync", "close", "replace"]


def _failing_at(monkeypatch, failing, counts):
    """Count the calls to each of `_SAVE_CALLS`; the call (name, n) in
    `failing` raises OSError. A failing close still frees its descriptor,
    as it does on Linux."""
    for name in _SAVE_CALLS:
        def call(*args, _name=name, _real=getattr(os, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            if (_name, counts[_name]) not in failing:
                return _real(*args, **kwargs)
            if _name == "close":
                _real(*args)
            raise OSError(5, "Input/output error")
        monkeypatch.setattr(os, name, call)


def test_a_save_failing_at_any_system_call_leaves_one_whole_file(tmp_path, monkeypatch):
    net, wall, lexicon, path = _labelled_wall(tmp_path)
    old = Path(path).read_bytes()
    net.set_property(wall, "extra", Value.num(3))
    dry = tmp_path / "dry"
    dry.mkdir()
    (dry / "net.krn").write_bytes(old)
    counts = {}
    with monkeypatch.context() as m:
        _failing_at(m, set(), counts)
        store.save(net, lexicon, str(dry / "net.krn"))
    new = (dry / "net.krn").read_bytes()
    assert counts["fsync"] == 2 and counts["open"] == 2   # the file, then its directory
    for name, calls in sorted(counts.items()):
        for n in range(1, calls + 1):
            Path(path).write_bytes(old)
            with monkeypatch.context() as m:
                _failing_at(m, {(name, n)}, {})
                try:
                    store.save(net, lexicon, path)
                except OSError:
                    pass
            assert Path(path).read_bytes() in (old, new), (name, n)
            assert not list(tmp_path.rglob("*.tmp")), (name, n)


# ---------------------------------------------------------------- changed files


def _scripted(tmp_path):
    net = Net()
    wall = net.add_object([("colour", Value.text("green"))])
    paint = net.add_action(None, wall, 'set object.colour = "black";')
    return net, wall, paint, _saved(tmp_path, net)


def test_handle_refuses_a_file_rewritten_in_place(tmp_path):
    net, wall, paint, path = _scripted(tmp_path)
    with open(path, "rb") as fh:
        data = fh.read()
    start = data.index(b"SCRIPT")
    without_script = data[:start] + data[data.index(b">>>\n", start) + 4:]
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(paint, target)
        with open(path, "r+b") as fh:   # same file, new bytes
            fh.write(without_script)
            fh.truncate()
        with pytest.raises(FormatError, match="changed since it was opened"):
            handle.hydrate_script(paint, target)
    assert target.actions[paint].script.state == "stub"


@pytest.mark.parametrize("call", ["load_stub", "hydrate_property", "hydrate_script",
                                  "load_full"])
def test_handle_refuses_a_file_replaced_by_a_save(tmp_path, call):
    net, wall, paint, path = _scripted(tmp_path)
    with store.open(path) as handle:
        target = Net()
        net.set_property(wall, "colour", Value.text("red"))
        store.save(net, None, path)
        args = {"load_stub": (wall, target), "hydrate_property": (wall, "colour", target),
                "hydrate_script": (paint, target), "load_full": ()}[call]
        with pytest.raises(FormatError, match="changed since it was opened"):
            getattr(handle, call)(*args)
    assert not target.objects and not target.actions


@pytest.mark.parametrize("call", ["load_stub", "hydrate_property", "hydrate_script",
                                  "load_full"])
def test_a_closed_handle_refuses_a_lazy_read(tmp_path, call):
    net, wall, paint, path = _scripted(tmp_path)
    handle = store.open(path)
    handle.close()
    target = Net()
    args = {"load_stub": (wall, target), "hydrate_property": (wall, "colour", target),
            "hydrate_script": (paint, target), "load_full": ()}[call]
    with pytest.raises(FormatError, match="handle is closed") as err:
        getattr(handle, call)(*args)
    assert path in str(err.value)
    assert not target.objects and not target.actions


def test_hydrate_script_of_an_object_is_an_unknown_script(tmp_path):
    net, wall, paint, path = _scripted(tmp_path)
    with store.open(path) as handle:
        target = Net()
        with pytest.raises(UnknownScript, match="not an action"):
            handle.hydrate_script(wall, target)
    assert not target.objects


def _rewritten_in_place(path, data):
    """New bytes of the same size in the same file, its modification time put
    back: what a same-size edit within one coarse clock tick leaves."""
    st = os.stat(path)
    assert len(data) == st.st_size
    with open(path, "r+b") as fh:
        fh.write(data)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


@pytest.mark.parametrize("name, found", [
    ("colour", "OBJ 2"),                        # another kind of record
    ("colour", "ISA 1 colour"),                 # another tag naming that node and name
    ("colour", 'PROP 1 shade text "green"'),    # another property of that node
    ("colour", 'PROP 2 colour text "green"'),   # that property of another node
    (None, "ISA 3 1"),                          # no script at a script's offset
    (None, "SCRIPT 2"),                         # another node's script
])
def test_a_lazy_read_refuses_a_record_that_is_not_the_one_indexed(tmp_path, monkeypatch,
                                                                  name, found):
    # on a coarse clock a same-size rewrite leaves the change time as it was
    # too, so the identity check sees only the four other fields
    monkeypatch.setattr(store, "_identity",
                        lambda st: (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns))
    net = Net()
    wall = net.add_object([("colour", Value.text("green"))])
    net.add_object([])
    paint = net.add_action(None, wall, 'set object.colour = "black";')
    path = _saved(tmp_path, net)
    data = Path(path).read_bytes()
    with store.open(path) as handle:
        offset = handle.props[wall][name] if name else handle.scripts[paint]
        end = data.index(b"\n", offset)
        assert len(found) <= end - offset
        _rewritten_in_place(path, data[:offset] + found.ljust(end - offset).encode() + data[end:])
        target = Net()
        with pytest.raises(FormatError, match="indexed record missing") as err:
            if name:
                handle.hydrate_property(wall, name, target)
            else:
                handle.hydrate_script(paint, target)
        assert err.value.line == (3 if name else 6)
    if name:
        assert target.objects[wall].properties[name].load_state is PropLoad.STUB
    else:
        assert target.actions[paint].script.state == "stub"


def _past_a_clock_tick(path):
    """Wait until the file system's clock has moved past the change time of
    `path`, so that a change to it from now on gets a later one."""
    probe = Path(f"{path}.tick")
    probe.touch()
    while os.stat(probe).st_ctime_ns <= os.stat(path).st_ctime_ns:
        time.sleep(0.001)
        probe.touch()
    probe.unlink()


def test_handle_refuses_a_same_size_rewrite_with_its_modification_time_put_back(tmp_path):
    net = Net()
    one = net.add_object([("x", Value.num(1.0))])
    path = _saved(tmp_path, net)
    data = Path(path).read_bytes()
    assert b"PROP 1 x num 1.0 asserted\n" in data
    with store.open(path) as handle:
        target = Net()
        handle.load_stub(one, target)
        _past_a_clock_tick(path)
        _rewritten_in_place(path, data.replace(b"num 1.0", b"num 7.0"))
        with pytest.raises(FormatError, match="changed since it was opened"):
            handle.hydrate_property(one, "x", target)
    assert target.objects[one].properties["x"].load_state is PropLoad.STUB


# ---------------------------------------------------------------- splice save


def _blocks(net) -> dict:
    """The bytes of each node block a save copies (`Net.blocks`), in the
    order a save writes them: objects, then actions, each in id order."""
    return dict(sorted(net.blocks.items(), key=lambda item: (item[0] in net.actions, item[0])))


def _saved_in_full(net, lexicon, path):
    """The bytes a save writes with nothing to copy: a deep copy of the net
    and labels with no source, no blocks and no to-encode set."""
    bare, labels = copy.deepcopy((net, lexicon))
    bare.source, bare.blocks, bare.dirty, labels.source = None, {}, None, None
    store.save(bare, labels, path)
    return Path(path).read_bytes()


def _check_splice(tmp_path, net, lexicon, path):
    """Save the net where it was loaded from: the bytes equal a full save,
    and they load back as the same net and the labels of its nodes."""
    store.save(net, lexicon, path)
    spliced = Path(path).read_bytes()
    assert spliced == _saved_in_full(net, lexicon, str(tmp_path / "full.krn"))
    again, again_lex = store.load(path)
    assert nets_equal(again, net)
    assert again_lex.items() == [label for label in lexicon.items()
                                 if label[0] in net.objects or label[0] in net.actions]


def _mutate(rng, net, lexicon):
    """One random public change of a net or its labels; refusals are fine."""
    nodes, objects = net.node_ids(), sorted(net.objects)
    roll = rng.randrange(11)
    if roll == 0:
        net.set_property(rng.choice(nodes), rand_name(rng), rand_value(rng, net))
    elif roll == 1:
        named = [nid for nid in nodes if net.node(nid).properties]
        if named:
            nid = rng.choice(named)
            net.erase_property(nid, rng.choice(sorted(net.node(nid).properties)))
    elif roll == 2:
        scripted = [aid for aid in sorted(net.actions) if net.actions[aid].script.text]
        if scripted:
            changes = run_action(net, rng.choice(scripted))
            if rng.random() < 0.7:
                apply_undo(net, changes)
    elif roll == 3:
        oid = net.add_object([(rand_name(rng), rand_value(rng, net))])
        net.add_action(rng.choice([None, *objects]), oid, 'set object.colour = "black";')
    elif roll == 4 and len(objects) > 1:
        net.erase_node(rng.choice(nodes))
    elif roll == 5:
        collapse_to_object(net, {rng.choice(objects)})
    elif roll == 6:
        oid = rng.choice(objects)
        obj = net.objects[oid]
        collapse_to_action(net, {oid, *obj.outgoing, *obj.incoming})
    elif roll == 7:
        complex_ids = [nid for nid in nodes if net.node(nid).collapse_payload is not None]
        if complex_ids:
            expand(net, rng.choice(complex_ids))
    elif roll == 8:
        pattern, root = person_pattern()
        concept = register_concept(net, ConceptTemplate(pattern=pattern, root=root, support=2))
        instance = rng.choice(objects)
        net.add_isa(instance, concept)
        shape(net, instance, concept)
    elif roll == 9 and len(objects) > 1:
        net.add_isa(*rng.sample(objects, 2))
    else:
        lexicon.set_label(rng.choice(nodes), rng.choice(["en", "fr"]), rand_name(rng))


def _evict_one(rng, net, path):
    """Evict, through a handle on the file the net was loaded from, a node
    holding a value read from it; False when the net holds none."""
    with store.open(path) as handle:
        held = [nid for nid in sorted(handle.index) if nid in net.objects or nid in net.actions
                if any(p.from_store for p in net.node(nid).properties.values())]
        if not held:
            return False
        handle.evict(rng.choice(held), net)
    return True


def test_load_edit_save_cycles_save_as_a_full_save(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)   # bytes are checked here, not durability
    rng = random.Random(3131)
    path = str(tmp_path / "net.krn")
    copied = evicted = 0
    for start in range(6):
        net, lexicon = random_net(rng, max_objects=10)
        net.add_action(None, min(net.objects), 'set object.colour = "black";')
        store.save(net, lexicon, path)
        for cycle in range(20):
            net, lexicon = store.load(path)
            for _ in range(rng.randint(1, 4)):
                try:
                    _mutate(rng, net, lexicon)
                except KrnError:
                    pass
            if rng.random() < 0.15 and _evict_one(rng, net, path):
                before = Path(path).read_bytes()
                with pytest.raises(UnknownProperty):
                    store.save(net, lexicon, path)
                assert Path(path).read_bytes() == before
                evicted += 1
                continue
            copied += bool(net.blocks) + (lexicon.source is not None)
            _check_splice(tmp_path, net, lexicon, path)
    assert copied > 100 and evicted > 5   # saves copy blocks and labels; evicts reach the check


def test_cli_load_edit_save_cycles_save_as_a_full_save(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)   # bytes are checked here, not durability
    rng = random.Random(4141)
    path = str(tmp_path / "cli.krn")
    net, lexicon = random_net(rng, max_objects=12)
    store.save(net, lexicon, path)
    session = Session()
    commands = ["set #{n}.x {v}", "set #{n}.colour '{v}'", "obj o{c} size={v}",
                "act #{n} #{m} w={v}", "run #{n}", "label #{n} fr t{c}", "isa #{n} #{m}",
                "collapse-obj #{n}", "expand #{n}", "shape #{n}"]
    for cycle in range(40):
        run_command(session, f"load {path}")
        for _ in range(rng.randint(1, 4)):
            nodes = session.net.node_ids()
            command = rng.choice(commands).format(n=rng.choice(nodes), m=rng.choice(nodes),
                                                  c=cycle, v=rng.choice(["1", "2.5", "red"]))
            try:
                run_command(session, command)
            except KrnError:
                pass
        assert run_command(session, f"save {path}") == [f"saved {path}"]
        _check_splice(tmp_path, session.net, session.lexicon, path)


_CANONICAL = b"""KRN 1
OBJ 1
PROP 1 colour text "green" asserted
PROP 1 mass num 2.5 asserted
OBJ 2 inferred
ACT 3 1 2
PROP 3 speed num 1.0 inferred
SCRIPT 3
<<<
set object.colour = "black";
>>>
ACT 4 - 2
ISA 2 1
LABEL 1 en "wall"
LABEL 3 fr "peindre"
"""


@pytest.mark.parametrize("edits, unspanned, labels_copied", [
    ([], set(), True),
    ([(b"mass num 2.5 asserted", b"mass num 2.5")], {1}, True),     # no provenance token
    ([(b"speed num 1.0", b"speed num 1")], {3}, True),
    ([(b"OBJ 2 inferred\n", b"OBJ 2 inferred\nPROP 2 next ref 007 asserted\n")], {2}, True),
    ([(b"OBJ 2 inferred", b"OBJ 02 inferred")], {2}, True),         # a leading zero
    ([(b"PROP 1 mass", b"PROP 01 mass")], {1}, True),
    ([(b"SCRIPT 3", b"SCRIPT 03")], {3}, True),
    ([(b"LABEL 3", b"LABEL 03")], set(), False),
    ([(b"PROP 1 colour", b"PROP 1 zcolour")], {1}, True),           # names out of order
    ([(b"PROP 1 mass num 2.5 asserted\n", b""),                        # a PROP away from its node
      (b"ACT 4 - 2\n", b"ACT 4 - 2\nPROP 1 mass num 2.5 asserted\n")], {1}, True),
    ([(b"OBJ 2 inferred\n", b"OBJ 2 inferred\nSIG 2 touch skin 01 5 sensed\n")], set(), True),
    ([(b"OBJ 2 inferred\n", b"OBJ 2 inferred\nSIG 2 touch skin 01 5\n")], {2}, True),
    ([(b'"black";\n>>>', b'"black";\n\n>>>')], {3}, True),            # a blank line ScriptRef drops
    ([(b"OBJ 2 inferred\n", b""), (b"ACT 4 - 2\n", b"ACT 4 - 2\nOBJ 2 inferred\n")],
     set(), True),                # blocks out of id order: each is copied from where it lies
    ([(b'LABEL 1 en "wall"\n', b'LABEL 1 en "wall"\nLABEL 1 en "wall2"\n')], set(), False),
    ([(b'LABEL 1 en "wall"\n', b""), (b'"peindre"\n', b'"peindre"\nLABEL 1 en "wall"\n')],
     set(), False),                                                     # labels out of order
    ([(b'ISA 2 1\nLABEL 1 en "wall"\n', b'LABEL 1 en "wall"\nISA 2 1\n')], set(), False),
    ([(b'"peindre"\n', b'"peindre"\n\n')], set(), False),              # a blank line after the labels
    ([(b'"peindre"\n', b'"peindre"\nISA 1 2\n')], set(), False),       # an ISA line after the labels
])
def test_a_block_unlike_what_save_writes_is_encoded(tmp_path, edits, unspanned, labels_copied):
    data = _CANONICAL
    for old, new in edits:
        assert old in data
        data = data.replace(old, new, 1)
    path = tmp_path / "net.krn"
    path.write_bytes(data)
    net, lexicon = store.load(str(path))
    assert set(net.node_ids()) - net.blocks.keys() == unspanned
    assert (lexicon.source is not None) is labels_copied
    for nid in net.node_ids():
        assert list(net.node(nid).properties) == sorted(net.node(nid).properties)
    _check_splice(tmp_path, net, lexicon, str(path))
    if not edits:
        assert path.read_bytes() == _CANONICAL


def test_a_respaced_file_saves_as_a_full_save(tmp_path):
    path = tmp_path / "net.krn"
    path.write_bytes(_respaced(_CANONICAL))
    net, lexicon = store.load(str(path))
    assert net.blocks == {} and lexicon.source is None
    _check_splice(tmp_path, net, lexicon, str(path))
    assert path.read_bytes() == _CANONICAL


def test_a_spliced_save_fails_to_encode_at_the_line_a_full_save_names(tmp_path):
    path = tmp_path / "net.krn"
    path.write_bytes(_CANONICAL)
    net, lexicon = store.load(str(path))
    net.set_property(2, "bad", Value.text("a\udcffb"))
    with pytest.raises(FormatError) as full:
        _saved_in_full(net, lexicon, str(tmp_path / "full.krn"))
    with pytest.raises(FormatError) as spliced:
        store.save(net, lexicon, str(path))
    assert spliced.value.line == full.value.line == 6
    assert path.read_bytes() == _CANONICAL


def test_mutants_that_load_save_as_a_full_save(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)   # bytes are checked here, not durability
    # the mutants of test_mutated_saves_fail_only_with_typed_errors
    rng = random.Random(9090)
    path = str(tmp_path / "mutant.krn")
    loaded = 0
    for i in range(400):
        net, lexicon = random_net(rng)
        with open(_saved(tmp_path, net, lexicon), "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(_mutated(rng, data))
        try:
            net, lexicon = store.load(path)
        except (FormatError, ScriptParseError):
            continue
        loaded += 1
        _check_splice(tmp_path, net, lexicon, path)
    assert loaded > 40


# ---------------------------------------------- what save writes, the matched reader reads

# characters a text may hold: each one `encode_text` escapes, raw control
# characters, quotes, and UTF-8 sequences of two, three and four bytes
_TEXT_SAMPLE = ["a", "Z", "0", " ", '"', "\\", "\n", "\t", "\r", "\x00", "\x01", "\x1f", "\x7f",
                "\x85", "é", "ß", "動", " ", "﻿", "😀", "%", "/", "#", "~", ">"]
_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_-"
_IDS_AT_LIMITS = [0, 1, 9, 10, 10 ** 17, 10 ** 18 - 1]   # `_BLOCK` takes ids of up to 18 digits


def _drawn_text(rng, most=12) -> str:
    return "".join(rng.choice(_TEXT_SAMPLE) for _ in range(rng.randint(0, most)))


def _drawn_name(rng) -> str:
    """A property name, at its limits too: one character, or 61."""
    tail = "".join(rng.choice(_NAME_CHARS) for _ in range(rng.choice([0, 1, 5, 60])))
    if rng.random() < 0.2:
        return f"{rng.choice(['goal', 'antigoal'])}:{tail or '-'}"
    return rng.choice(_NAME_CHARS[:26]) + tail


def _drawn_property(rng, name) -> PropertyRecord:
    """A property holding any kind of value, with any provenance it may
    have: a sensed one holds a signal."""
    kind = rng.randrange(6)
    prov = rng.choice([Provenance.ASSERTED, Provenance.INFERRED])
    if kind == 0:
        value = Value.num(rng.choice([0.0, -0.0, 1.5, -1e-300, 5e-324, 1.7976931348623157e308, math.inf,
                                      -math.inf, math.nan, rng.uniform(-1e6, 1e6)]))
    elif kind == 1:
        value = Value.text(_drawn_text(rng))
    elif kind == 2:
        value = Value.truth(rng.random() < 0.5)
    elif kind == 3:
        value = Value.ref(rng.choice(_IDS_AT_LIMITS))
    elif kind == 4:
        value = Value.unset()
    else:   # origin segments that need percent-encoding, empty and non-empty payloads
        origin = SensorAddress(tuple(_drawn_text(rng, 6) or "s" for _ in range(rng.randint(1, 3))))
        tick = rng.choice([0, 1, rng.randrange(10 ** 6), 10 ** 18 - 1, -(10 ** 18 - 1)])
        value = Value.signal(SensorSignal(origin, rng.randbytes(rng.choice([0, 1, 7])), tick))
        prov = rng.choice(list(Provenance))
    return PropertyRecord(name, value, prov)


_SCRIPTS = [None, "", "set object.x = 1;", 'set object.name = "動く\\n";\n  # a comment: "é"',
            "set object.x = object.x + 1;\n\nset object.y = 2;"]


def _drawn_net(rng) -> tuple[Net, Lexicon]:
    """A net of drawn records, ids at their limits among them, and a
    lexicon of drawn labels of its nodes."""
    ids = rng.sample(sorted({*_IDS_AT_LIMITS, *rng.sample(range(2, 10 ** 6), 8)}), rng.randint(2, 10))
    objects, actions = ids[:len(ids) // 2], ids[len(ids) // 2:]
    net, lexicon = Net(), Lexicon()
    for nid in ids:
        names = dict.fromkeys(_drawn_name(rng) for _ in range(rng.randint(0, 5)))
        props = {name: _drawn_property(rng, name) for name in names}
        prov = rng.choice([Provenance.ASSERTED, Provenance.INFERRED])
        if nid in objects:
            net.insert(ObjectRecord(nid, props, provenance=prov))
        else:
            net.insert(ActionRecord(nid, rng.choice([None, *objects]), rng.choice(objects),
                                    ScriptRef(rng.choice(_SCRIPTS)), props, prov))
        for lang in rng.sample(["en", "ja", "zh-Hant", "Q", "abcdefgh-12345678-x"], rng.randint(0, 2)):
            lexicon.set_label(nid, lang, _drawn_text(rng))
    return net, lexicon


def test_every_line_save_writes_is_read_from_its_match(tmp_path):
    """The writer's language is a subset of the fast reader's: each node
    block `_block` writes of a drawn record is matched whole by `_BLOCK`,
    and `_node_run` gives back the record's fields, each as save writes
    it; so is the LABEL run of drawn labels, by `_label_run`. A load of a
    file of such blocks gives every node a span and takes the labels as
    one run, and the net saves back byte for byte."""
    rng = random.Random(4949)
    for i in range(60):
        net, lexicon = _drawn_net(rng)
        for nid, rec in [*net.objects.items(), *net.actions.items()]:
            block = store._block(nid, rec, nid in net.actions).encode()
            m = store._BLOCK.match(block)
            assert m is not None and m.end() == len(block) and m.lastgroup == "NODE", block
            got, tag, prov, subject, target, fields, saved, text, lines = store._node_run(
                m, 1, (), False, {}, {})
            assert saved and all(field[4] for field in fields), block
            assert [(name, repr(value), vprov) for _, name, value, vprov, _ in fields] == [
                (name, repr(prop.value), prop.provenance) for name, prop in sorted(rec.properties.items())]
            assert (got, prov, lines) == (nid, rec.provenance, block.count(b"\n"))
            if nid in net.actions:
                assert (tag, subject, target, text) == ("ACT", rec.subject, rec.target, rec.script.text)
        run = "".join(f"LABEL {node} {lang} {store.encode_text(text)}\n"
                      for node, lang, text in lexicon.items()).encode()
        if run:
            m = store._BLOCK.match(run)
            assert m is not None and m.end() == len(run) and m.lastgroup == "LABEL", run
            assert store._label_run(run, 0, len(run)) == (lexicon.items(), True)
        path = _saved(tmp_path, net, lexicon, name=f"drawn-{i}.krn")
        data = Path(path).read_bytes()
        assert data.endswith(run)
        loaded, loaded_lex = store.load(path)
        assert loaded.blocks.keys() == set(net.node_ids()) and not loaded.dirty, f"net {i}"
        assert loaded_lex.source == (run or None) and loaded_lex.items() == lexicon.items()
        assert Path(_saved(tmp_path, loaded, loaded_lex, name="again.krn")).read_bytes() == data


def test_a_matched_line_that_is_not_utf8_fails_at_its_line(tmp_path):
    """Bytes that are not UTF-8 in a PROP or LABEL line that `_BLOCK`
    matches raise "undecodable line" at that line, in `load` and `open`
    alike, as the tokenising path raises it for a line it takes."""
    lines = ["KRN 1", "OBJ 1", 'PROP 1 a text "é{}" asserted', 'PROP 1 b text "ok{}" asserted',
             "SIG 1 c skin 01 5 sensed", "ACT 2 - 1", "SCRIPT 2", "<<<", 'set object.a = "動";', ">>>",
             'LABEL 1 ja "動{}"', 'LABEL 2 en "go{}"', ""]
    runs = {3: 2, 4: 2, 11: 11, 12: 11}   # the line a bad line's matched run starts on
    for at, first in runs.items():
        for bad in (b"\xff", b"\xe5\x8b", b"\xc3("):
            data = b"\n".join(line.encode().replace(b"{}", bad if i == at else b"")
                              for i, line in enumerate(lines, 1))
            m = store._BLOCK.match(data, sum(len(line) + 1 for line in data.split(b"\n")[:first - 1]))
            assert data.count(b"\n", 0, m.end()) >= at
            path = tmp_path / "bad.krn"
            path.write_bytes(data)
            for read in (store.load, store.open):
                with pytest.raises(FormatError) as err:
                    read(str(path))
                assert (err.value.message, err.value.line) == ("undecodable line", at), (at, bad)
    # a fault on a line before the bad one in the same block is the one raised;
    # `open` reads no value, so the bad value's block fails at the bad bytes
    for fault, expected in (('PROP 1 a text "y" asserted', "duplicate property 'a' on 1"),
                            ("PROP 1 b bool maybe asserted", "bad bool 'maybe'")):
        path.write_bytes("\n".join(["KRN 1", "OBJ 1", 'PROP 1 a text "x" asserted', fault,
                                    'PROP 1 c text "\udcff" asserted', ""]).encode(errors="surrogateescape"))
        assert store._BLOCK.match(path.read_bytes(), 6).end() == len(path.read_bytes())
        for read in (store.load, store.open):
            with pytest.raises(FormatError) as err:
                read(str(path))
            earlier = read is store.load or "duplicate" in expected
            assert (err.value.message, err.value.line) == ((expected, 4) if earlier
                                                           else ("undecodable line", 5)), (read, fault)
    path.write_bytes("\n".join(lines).replace("{}", "").encode())
    net, lexicon = store.load(str(path))
    assert net.blocks.keys() == {1, 2} and lexicon.source is not None
    assert net.objects[1].properties["a"].value == Value.text("é")


@pytest.mark.parametrize("edit", ["héllo", "a\nb", "signal", "ja-label"],
                         ids=["non-ascii-text", "escaped-text", "signal", "ja-label"])
def test_a_save_past_printable_ascii_reads_no_file_and_keeps_every_block(tmp_path, monkeypatch, edit):
    """A text past printable ASCII, a signal or a label in a language of
    another script is read on the matched path: each save of a session's
    net after a `set` reads its encoded blocks from their matches, with
    no `_read` pass, and leaves no node to encode; each load after it
    takes the net back, reading nothing, as a cold load gives it."""
    path = _traffic_files(random.Random(4949), tmp_path)[0]
    session = Session()
    run_command(session, f"load {path}")
    net = session.net
    obj, act = min(net.objects), min(net.actions)
    if edit == "signal":
        net.ingest_signal(obj, "touch", SensorSignal(SensorAddress.of("skin", "left hand"), b"\x01\xff"))
    elif edit == "ja-label":
        run_command(session, f"label #{act} ja 動く")
    else:
        net.set_property(obj, "colour", Value.text(edit))
    counts = {"_read": 0}
    _counting(monkeypatch, counts)
    for step in range(3):
        run_command(session, f"set #{obj}.x {step}")
        run_command(session, f"save {path}")
        assert counts["_read"] == 0 and net.dirty == set() and net.clean, f"step {step}"
        run_command(session, f"load {path}")
        assert session.net is net and counts["_read"] == 0, f"step {step}"
    assert _full_view(net, session.lexicon) == _full_view(*store.load(path))


def test_a_node_stubbed_in_through_a_handle_is_put_in_id_order_by_the_next_save(tmp_path):
    """A stub a handle puts in after larger ids stays where it is until
    the next save, which puts both tables back in id order in place (the
    same dicts, which a timeline state may hold): the net is then clean,
    and a memo keeps it."""
    paths = _traffic_files(random.Random(1777), tmp_path)
    net, lexicon = store.load(paths[0])
    objects, actions = net.objects, net.actions
    lone = min(nid for nid, rec in objects.items() if not rec.outgoing and not rec.incoming)
    assert lone < max(objects)
    net.erase_node(lone)
    store.save(net, lexicon, paths[0])
    with store.open(paths[1]) as handle:   # the other file holds an object of that id
        handle.load_stub(lone, net)
        for name in sorted(net.objects[lone].properties):
            handle.hydrate_property(lone, name, net)
    assert list(objects)[-1] == lone   # between the edit and its save, where the stub put it
    store.save(net, lexicon, paths[0])
    net.set_property(max(objects), "x", Value.num(7))
    store.save(net, lexicon, paths[0])
    assert net.objects is objects and net.actions is actions
    assert list(objects) == sorted(objects) and list(actions) == sorted(actions)
    assert net.clean and store.ValueMemo().keep(net, lexicon)
    assert _full_view(net, lexicon) == _full_view(*store.load(paths[0]))


def _held_by_a_load(path) -> tuple[int, int]:
    """What tracemalloc counts a load of `path` holding, its parse memo
    empty first, and what a value memo charges for what it gives."""
    script.clear_parse_memo()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net, lexicon = store.load(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, store._charge(net, lexicon)


def test_the_memo_charges_a_loaded_net_at_least_what_it_holds(tmp_path):
    """A net shaped as `store-full`'s, with its labels and without, is
    charged at least what tracemalloc counts its load holding, and at most
    a quarter more."""
    for path in _traffic_files(random.Random(1888), tmp_path):
        data = Path(path).read_bytes()
        bare = tmp_path / "unlabelled.krn"
        bare.write_bytes(b"".join(line for line in data.splitlines(True) if not line.startswith(b"LABEL ")))
        for each in (path, str(bare)):
            held, charge = _held_by_a_load(each)
            assert held <= charge <= 1.25 * held, (each, held, charge)
