import gc
import io
import weakref

import pytest

from krn import (
    Answer,
    Net,
    SensorAddress,
    SensorSignal,
    Value,
    cli,
    query_has,
    run_action,
    shape,
    sim,
)
from krn.agent import (
    SelfModel,
    compare_with_reality,
    define_goal,
    evaluate_goals,
    reality_snapshot,
)
from krn.errors import MalformedCondition
from krn.reasoning import fragment_state, parse_fragment

from helpers import peter_net, wall_net
from test_core import run_fuzz


def test_self_is_an_ordinary_object():
    net = Net()
    model = SelfModel(net)
    assert model.self_node in net.objects
    net.set_property(model.self_node, "mood", Value.text("calm"))
    assert net.get_property(model.self_node, "mood") == Value.text("calm")
    assert net.validate_bipartite().ok


def test_self_survives_core_fuzz():
    net = Net()
    model = SelfModel(net)
    other = net.add_object([])
    net.add_action(model.self_node, other)
    run_fuzz(424242, 2000, net)
    assert net.validate_bipartite().ok


def test_goal_definition_and_storage():
    net, man, wall, paint = wall_net()
    model = SelfModel(net)
    gid = define_goal(model, "goal", wall, 'colour == "black"')
    agid = define_goal(model, "antigoal", model.self_node, "damaged == true")
    assert gid != agid
    props = net.objects[model.self_node].properties
    assert f"goal:{gid}" in props
    assert f"antigoal:{agid}" in props
    # duplicate conditions are allowed and distinct
    gid2 = define_goal(model, "goal", wall, 'colour == "black"')
    assert gid2 != gid


def test_malformed_conditions_rejected():
    net = Net()
    model = SelfModel(net)
    with pytest.raises(MalformedCondition):
        define_goal(model, "goal", model.self_node, "9bad == 1")
    with pytest.raises(MalformedCondition):
        define_goal(model, "sideways", model.self_node, "x == 1")


@pytest.mark.parametrize("condition, op, text", [
    ('x < "a==b"', "<", "a==b"),
    ('x <= "a!=b"', "<=", "a!=b"),
])
def test_a_predicate_splits_at_its_leftmost_operator(condition, op, text):
    frag = parse_fragment(condition)
    assert (frag.name, frag.op, frag.value) == ("x", op, Value.text(text))
    with pytest.raises(MalformedCondition):
        parse_fragment("9bad == 1")


@pytest.mark.parametrize("condition", [
    'x == "a',          # unclosed string
    'x == "a\\q"',      # not a script escape
    'x == "a" b',       # more than one string
    'x == "a" # b',     # a script comment
    'x <== 1',          # a second operator
    'x > !1',
])
def test_a_literal_outside_the_script_string_grammar_is_refused(condition):
    with pytest.raises(MalformedCondition):
        parse_fragment(condition)


@pytest.mark.parametrize("condition, value", [
    ('x == "a\\"b"', Value.text('a"b')),
    ('x == "tab\\there"', Value.text("tab\there")),
    ('x == ""', Value.text("")),
    ('x < "a==b"', Value.text("a==b")),
    ("x == red car", Value.text("red car")),
    ("x != -2.5", Value.num(-2.5)),
    ("x == false", Value.truth(False)),
])
def test_a_literal_reads_as_a_script_string_number_truth_or_bare_text(condition, value):
    assert parse_fragment(condition).value == value


def test_a_fragment_is_judged_only_at_an_anchor_the_net_holds():
    net = Net()
    target = net.add_object([("height", Value.num(2))])
    frag = parse_fragment("height == 2")
    assert fragment_state(net, target, frag) == (True, False)
    assert fragment_state(net, target + 99, frag) == (None, False)


def test_goal_lifecycle_around_painting():
    net, man, wall, paint = wall_net()
    model = SelfModel(net)
    gid = define_goal(model, "goal", wall, 'colour == "black"')
    assert evaluate_goals(model, net) == [(gid, "violated")]
    run_action(net, paint)
    assert evaluate_goals(model, net) == [(gid, "satisfied")]


def test_antigoal_polarity():
    net = Net()
    model = SelfModel(net)
    net.set_property(model.self_node, "damaged", Value.truth(False))
    gid = define_goal(model, "antigoal", model.self_node, "damaged == true")
    assert evaluate_goals(model, net) == [(gid, "satisfied")]
    net.set_property(model.self_node, "damaged", Value.truth(True))
    assert evaluate_goals(model, net) == [(gid, "violated")]


def test_goal_on_unset_or_absent_is_undetermined():
    net = Net()
    model = SelfModel(net)
    target = net.add_object([])
    gid = define_goal(model, "goal", target, "height == 2")
    assert evaluate_goals(model, net) == [(gid, "undetermined")]
    net.set_property(target, "height", Value.unset())
    assert evaluate_goals(model, net) == [(gid, "undetermined")]
    net.set_property(target, "height", Value.num(2))
    assert evaluate_goals(model, net) == [(gid, "satisfied")]


def test_goal_on_erased_anchor_is_undetermined():
    net = Net()
    model = SelfModel(net)
    target = net.add_object([("height", Value.num(2))])
    gid = define_goal(model, "goal", target, "height == 2")
    net.erase_node(target)
    assert evaluate_goals(model, net) == [(gid, "undetermined")]


def _asserted_witness():
    net, _man, wall, _paint = wall_net()
    return net, wall, 'colour == "green"'


def _inferred_witness():
    net, peter, concept_id = peter_net()
    assert shape(net, peter, concept_id)
    return net, peter, "has head"


def _unset_property():
    net = Net()
    return net, net.add_object([("height", Value.unset())]), "height == 2"


def _missing_part():
    net = Net()
    return net, net.add_object([]), "has wheel"


def _erased_anchor():
    net = Net()
    target = net.add_object([("height", Value.num(2))])
    net.erase_node(target)
    return net, target, "height == 2"


def _action_anchor():
    net = Net()
    a = net.add_object([])
    b = net.add_object([])
    act = net.add_action(a, b, None, [("colour", Value.text("black"))])
    return net, act, 'colour == "black"'


@pytest.mark.parametrize("build, answer, status", [
    (_asserted_witness, Answer.YES_ASSERTED, "satisfied"),
    (_inferred_witness, Answer.YES_INFERRED, "satisfied"),
    (_unset_property, Answer.UNKNOWN, "undetermined"),
    (_missing_part, Answer.UNKNOWN, "violated"),
    (_erased_anchor, Answer.UNKNOWN, "undetermined"),
    (_action_anchor, Answer.UNKNOWN, "violated"),
], ids=["asserted", "inferred", "unset", "missing-part", "erased", "action"])
def test_has_and_goals_judge_a_fragment_alike(build, answer, status):
    net, anchor, condition = build()
    model = SelfModel(net)
    gid = define_goal(model, "goal", anchor, condition)
    agid = define_goal(model, "antigoal", anchor, condition)
    flipped = {"satisfied": "violated", "violated": "satisfied"}.get(status, status)
    assert evaluate_goals(model, net) == [(gid, status), (agid, flipped)]
    assert query_has(net, anchor, condition) is answer


def test_dangling_isa_edge_is_unknown_to_has_and_an_error_to_shape(monkeypatch):
    net = Net()
    inst = net.add_object([])
    net.isa_edges.append((inst, 99))
    assert query_has(net, inst, "wheel") is Answer.UNKNOWN

    class Session(cli.Session):
        def __init__(self):
            super().__init__()
            self.net = net

    monkeypatch.setattr(cli, "Session", Session)
    out = io.StringIO()
    assert cli.run_lines([f"has #{inst} wheel", f"shape #{inst}"], out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "unknown"
    assert lines[1].startswith("error: UnknownConcept: ")


def test_sense_log_completeness():
    net = Net()
    model = SelfModel(net)
    obj = net.add_object([])
    for i in range(5):
        net.ingest_signal(obj, "touch", SensorSignal(
            SensorAddress.of("skin", str(i)), bytes([i])))
    assert len(model.sense_log) == 5
    ticks = [entry[0] for entry in model.sense_log]
    assert ticks == sorted(ticks)
    # erasing a sensed property never rewrites the log
    net.erase_property(obj, "touch")
    assert len(model.sense_log) == 5


def test_a_net_and_its_self_model_form_no_cycle():
    # reference counting alone frees them, as it must once gc.freeze holds
    # whatever a cycle would keep
    gc.disable()
    try:
        net = Net()
        model = SelfModel(net)
        define_goal(model, "goal", net.add_object([]), "colour")
        net.ingest_signal(model.self_node, "touch", SensorSignal(SensorAddress.of("skin"), b"\x01"))
        ref = weakref.ref(net)
        del net, model
        assert ref() is None
    finally:
        gc.enable()


def test_compare_with_reality_restriction():
    net = Net()
    model = SelfModel(net)
    wall = net.add_object([])
    predicted = sim.Snapshot(net.next_tick(), {
        (wall, "colour"): Value.text("black"),
        (wall, "height"): Value.num(3),
    })
    sensed_equal = sim.Snapshot(net.next_tick(), {
        (wall, "colour"): Value.text("black"),
    })
    assert compare_with_reality(model, predicted, sensed_equal) == []
    sensed_conflict = sim.Snapshot(net.next_tick(), {
        (wall, "colour"): Value.text("green"),
    })
    discrepancies = compare_with_reality(model, predicted, sensed_conflict)
    assert len(discrepancies) == 1
    assert discrepancies[0].name == "colour"
    # the unrestricted diff also sees the unsensed height key
    full = sim.diff(predicted, sensed_conflict)
    assert len(full) == 2
    assert set(discrepancies) <= set(full)


def test_compare_with_empty_sensed_snapshot():
    net = Net()
    model = SelfModel(net)
    predicted = sim.Snapshot(net.next_tick(), {(1, "x"): Value.num(1)})
    sensed = sim.Snapshot(net.next_tick(), {})
    assert compare_with_reality(model, predicted, sensed) == []


def test_reality_snapshot_from_sense_log():
    net = Net()
    model = SelfModel(net)
    obj = net.add_object([])
    first = SensorSignal(SensorAddress.of("eye"), b"\x01")
    second = SensorSignal(SensorAddress.of("eye"), b"\x02")
    net.ingest_signal(obj, "sight", first)
    net.ingest_signal(obj, "sight", second)
    snap = reality_snapshot(model)
    assert snap.state[(obj, "sight")].data.payload == b"\x02"
