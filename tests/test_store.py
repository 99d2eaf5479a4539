import copy
import itertools
import os
import random
from pathlib import Path

import pytest

from krn import Lexicon, Net, Provenance, SensorAddress, SensorSignal, Value, nets_equal
from krn import store
from krn.script import apply_undo
from krn import sim
from krn.sim import run_action
from krn.core import NodeLoad, PropLoad
from krn.errors import (
    BipartiteViolation,
    EvictionBlocked,
    FormatError,
    ScriptParseError,
    UnknownProperty,
    UnknownScript,
)

from helpers import random_net, wall_net


def _saved(tmp_path, net, lexicon=None, name="net.krn"):
    path = tmp_path / name
    store.save(net, lexicon, str(path))
    return str(path)


def _hydrated_lazily(path):
    """Every node stubbed in, every property and script hydrated through a handle."""
    with store.open(path) as handle:
        net = Net()
        for nid in sorted(handle.index):
            handle.load_stub(nid, net)
            for name in sorted(handle.index[nid].prop_offsets):
                handle.hydrate_property(nid, name, net)
            if handle.index[nid].script_offset is not None:
                handle.hydrate_script(nid, net)
        for inst, concept in sorted(handle.isa):
            net.add_isa(inst, concept)
        lexicon = Lexicon()
        for node, lang, text in handle.labels:
            lexicon.set_label(node, lang, text)
    return net, lexicon


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
    net, man, wall, paint = wall_net()
    path = _saved(tmp_path, net)
    size = (tmp_path / "net.krn").stat().st_size
    with store.open(path) as handle:
        assert handle.stats.bytes_read == size
        assert handle.stats.objects_hydrated == 0
        assert handle.stats.properties_hydrated == 0
        assert handle.stats.scripts_hydrated == 0
        # index covers every OBJ and ACT record
        with open(path, encoding="utf-8") as fh:
            record_count = sum(1 for line in fh if line.startswith(("OBJ ", "ACT ")))
        assert len(handle.index) == record_count


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
        handle.load_stub(paint, target)
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


def test_load_equals_a_fully_hydrated_handle(tmp_path):
    rng = random.Random(4242)
    for i in range(60):
        net, lexicon = random_net(rng, max_objects=rng.choice([3, 8, 30]))
        if rng.random() < 0.5:
            net.add_action(None, rng.choice(sorted(net.objects)), "set object.x = 1;",
                           provenance=Provenance.INFERRED)
        path = _saved(tmp_path, net, lexicon, f"net{i}.krn")
        loaded, loaded_lex = store.load(path)
        lazy, lazy_lex = _hydrated_lazily(path)
        assert nets_equal(loaded, lazy) and nets_equal(loaded, net), f"net {i}"
        assert loaded_lex.items() == lazy_lex.items() == lexicon.items()
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
    assert lazy_err.value.line == 4


def test_bad_language_tag_is_a_format_error_at_its_line(tmp_path):
    bad = tmp_path / "bad.krn"
    bad.write_text('KRN 1\nOBJ 1\nLABEL 1 e_n "wall"\n')
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        assert err.value.line == 3


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
        assert list(handle.index[1].prop_offsets) == ["goal:x"]


def test_an_id_too_long_for_int_is_a_format_error(tmp_path):
    bad = tmp_path / "bad.krn"
    bad.write_text(f"KRN 1\nOBJ 1\nOBJ {'9' * 5000}\n")
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        assert err.value.line == 3 and err.value.message.startswith("bad integer")


def _respaced(data: bytes) -> bytes:
    """The file with one more space after the tag of every record line
    outside the header and the script blocks: no line keeps a form that
    `store._RECORD` matches, so each takes the tokenising path."""
    lines = data.split(b"\n")
    inside = False
    for i, line in enumerate(lines[1:], 1):
        if line in (b"<<<", b">>>"):
            inside = line == b"<<<"
        elif line and not inside:
            lines[i] = line.replace(b" ", b"  ", 1)
    return b"\n".join(lines)


def test_matched_and_tokenised_records_read_alike(tmp_path):
    rng = random.Random(5151)
    for i in range(40):
        net, lexicon = random_net(rng, max_objects=rng.choice([3, 8, 30]))
        net.add_action(None, min(net.objects), "set object.x = 1;",
                       provenance=Provenance.INFERRED)
        path = _saved(tmp_path, net, lexicon, f"net{i}.krn")
        spaced = tmp_path / f"spaced{i}.krn"
        spaced.write_bytes(_respaced(Path(path).read_bytes()))
        with open(spaced, "rb") as fh:
            assert not any(store._RECORD.match(line) for line in fh)
        (matched, matched_lex), (tokenised, tokenised_lex) = map(store.load, (path, str(spaced)))
        assert nets_equal(matched, tokenised) and nets_equal(matched, net), f"net {i}"
        assert matched_lex.labels == tokenised_lex.labels == lexicon.labels
        with store.open(path) as one, store.open(str(spaced)) as other:
            assert one.index.keys() == other.index.keys()
            for nid, entry in one.index.items():
                assert entry.prop_offsets.keys() == other.index[nid].prop_offsets.keys()
            assert (one.isa, one.labels) == (other.isa, other.labels)


def test_every_plain_record_that_save_writes_is_matched(tmp_path):
    # an ASCII-only net with no signal: each PROP, LABEL, OBJ and ACT line
    # takes the matched path, so that path cannot silently stop applying,
    # and what it reads saves back byte for byte
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
    path = _saved(tmp_path, net, lexicon)
    seen = set()
    with open(path, "rb") as fh:
        for line in fh:
            tag = line.split(b" ", 1)[0].decode()
            if tag in ("PROP", "LABEL", "OBJ", "ACT"):
                m = store._RECORD.match(line)
                assert m is not None and m.lastgroup == tag, line
                seen.add(tag)
    assert seen == {"PROP", "LABEL", "OBJ", "ACT"}
    again = _saved(tmp_path, *store.load(path), name="again.krn")
    assert Path(again).read_bytes() == Path(path).read_bytes()


def test_is_a_edge_to_an_action_is_refused_on_open_and_load(tmp_path):
    bad = tmp_path / "bad.krn"
    bad.write_text("KRN 1\nOBJ 1\nACT 2 - 1\nISA 1 2\n")
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        assert err.value.line == 4


@pytest.mark.parametrize("body", [b"set object.x = ((;", b"set object.x = \"\xff\";"])
@pytest.mark.parametrize("later", [b"BOGUS 1", b"PROP 9 x num 1", b"ISA 1 2"])
def test_a_bad_script_before_a_later_bad_record_gives_one_error(tmp_path, body, later):
    # the script is bad (a parse error or undecodable bytes), but the file
    # is not well formed either: both readers report the record on line 8
    bad = tmp_path / "bad.krn"
    bad.write_bytes(b"KRN 1\nOBJ 1\nACT 2 - 1\nSCRIPT 2\n<<<\n" + body + b"\n>>>\n" + later + b"\n")
    errors = []
    for read in (store.load, store.open):
        with pytest.raises(FormatError) as err:
            read(str(bad))
        errors.append((err.value.line, str(err.value)))
    assert errors[0] == errors[1] and errors[0][0] == 8


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
        assert nets_equal(got[0], lazy[0]) and got[1].items() == lazy[1].items()
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


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_first_bad_reference_in_file_order_is_reported_by_both_readers(tmp_path, order):
    bad_records = [
        "PROP 9 colour text \"green\" asserted",   # owner 9 does not exist
        "ACT 4 2 1",                                 # subject 2 is an action
        "ISA 1 3",                                   # 3 is an action
    ]
    body = ["OBJ 1", "ACT 2 - 1", "ACT 3 1 1"] + [bad_records[i] for i in order]
    bad = tmp_path / "bad.krn"
    bad.write_text("KRN 1\n" + "\n".join(body) + "\n")
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
    paint = net.add_action(None, left, 'set object.x = object.x + 1; set object.colour = "red";')
    loaded, _ = store.load(_saved(tmp_path, net))
    lp, rp = loaded.objects[left].properties, loaded.objects[right].properties
    assert lp["x"].value is rp["x"].value and lp["colour"].value is rp["colour"].value
    assert lp["x"] is not rp["x"]
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


def test_save_through_a_symbolic_link_keeps_the_link(tmp_path):
    net, wall, lexicon, path = _labelled_wall(tmp_path)
    link = tmp_path / "link.krn"
    link.symlink_to("net.krn")
    net.set_property(wall, "extra", Value.num(3))
    store.save(net, lexicon, str(link))
    assert link.is_symlink()
    assert nets_equal(store.load(path)[0], net)
    assert sorted(os.listdir(tmp_path)) == ["link.krn", "net.krn"]


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
