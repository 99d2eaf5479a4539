import copy
import pickle
import random
import subprocess
import sys

import pytest

from krn import (
    Answer, ExecContext, Net, Provenance, Value, apply_undo, execute, parse, query_has, script,
    store,
)
from krn.errors import (
    BudgetExhausted,
    DivisionByZero,
    ScriptParseError,
    TypeMismatch,
    UnboundRole,
    UnknownProperty,
)
from krn.script import MAX_NESTING, Binary, Literal, Read, Role, SetStmt

from krn.core import nets_equal
from krn.sim import run_action

from helpers import wall_net


# ---------------------------------------------------------------- parsing

def test_parse_paint_script():
    ast = parse('set object.colour = "black";')
    assert len(ast.statements) == 1
    st = ast.statements[0]
    assert isinstance(st, SetStmt)
    assert st.lvalue.role is Role.OBJECT
    assert st.lvalue.name == "colour"
    assert st.expr == Literal(Value.text("black"))


def test_parse_empty_source():
    assert parse("").statements == ()
    assert parse("  \n # just a comment\n").statements == ()


def test_precedence_star_binds_tighter():
    ast = parse("set object.x = 1 + 2 * 3;")
    expr = ast.statements[0].expr
    assert isinstance(expr, Binary) and expr.op == "+"
    assert isinstance(expr.right, Binary) and expr.right.op == "*"
    # cross-checked against the reference evaluator in test_script_oracle
    net = Net()
    target = net.add_object([])
    execute(ast, ExecContext(net, target))
    assert net.get_property(target, "x") == Value.num(7.0)


def test_comparisons_do_not_chain():
    with pytest.raises(ScriptParseError) as err:
        parse("set object.x = 1 < 2 < 3;")
    assert (err.value.line, err.value.column) == (1, 22)
    expr = parse("set object.x = (1 < 2) == true;").statements[0].expr
    assert expr.op == "==" and expr.left.op == "<"


def test_parse_if_else():
    ast = parse("if object.a > 1 { set object.b = 2; } else { unset object.c; }")
    st = ast.statements[0]
    assert len(st.then) == 1 and len(st.otherwise) == 1


def test_parse_error_reports_position():
    with pytest.raises(ScriptParseError) as err:
        parse("set object.colour =\n  ;")
    assert err.value.line == 2
    assert err.value.column == 3

    with pytest.raises(ScriptParseError) as err2:
        parse("set wall.colour = 1;")  # roles only, no free identifiers
    assert err2.value.line == 1

    with pytest.raises(ScriptParseError):
        parse('set object.colour = "unterminated;')
    with pytest.raises(ScriptParseError):
        parse("if true { set object.x = 1;")  # unterminated block


def test_dash_is_an_identifier_character():
    ast = parse("set object.x-1 = 3;")
    assert ast.statements[0].lvalue.name == "x-1"
    sub = parse("set object.x = object.x - 1;").statements[0].expr
    assert isinstance(sub, Binary) and sub.op == "-"
    assert isinstance(sub.left, Read)


def test_comments_and_whitespace_insignificant():
    ast = parse("set object.x=1;# trailing\n   set   object.y\t=\t2 ;")
    assert len(ast.statements) == 2


def test_string_escapes():
    ast = parse('set object.t = "a\\"b\\\\c\\nd\\te";')
    assert ast.statements[0].expr.value.data == 'a"b\\c\nd\te'


def _tokens(src):
    return [(t.type, t.value, t.line, t.column) for t in script._lex(src)]


def _lex_error(src):
    with pytest.raises(ScriptParseError) as err:
        script._lex(src)
    return err.value.message, err.value.line, err.value.column, err.value.expected


def test_a_final_comment_leaves_eof_at_its_hash():
    assert _tokens("set object.x = 1; # note")[-2:] == [(";", ";", 1, 17), ("eof", None, 1, 19)]
    assert _tokens("x # note\n")[-1] == ("eof", None, 2, 1)


def test_a_tab_and_a_carriage_return_are_one_column_each():
    assert _tokens("set\tobject")[1] == ("object", "object", 1, 5)
    assert _tokens("set x;\r\nunset y;\r\n") == [
        ("set", "set", 1, 1), ("ident", "x", 1, 5), (";", ";", 1, 6),
        ("unset", "unset", 2, 1), ("ident", "y", 2, 7), (";", ";", 2, 8), ("eof", None, 3, 1),
    ]


def test_a_backslash_before_a_newline_is_a_bad_escape_or_a_bad_character():
    assert _lex_error('x = "a\\\nb";') == ("bad escape in string", 1, 5, None)
    assert _lex_error("x\\\n") == ("unexpected character '\\\\'", 1, 2, None)


def test_string_errors_stand_at_the_opening_quote():
    assert _lex_error('x "abc') == ("unterminated string", 1, 3, '"')
    assert _lex_error('"abc\n"') == ("unterminated string", 1, 1, '"')
    assert _lex_error('"a\\q') == ("bad escape in string", 1, 1, None)
    assert _lex_error('"a\\') == ("bad escape in string", 1, 1, None)


def test_a_number_takes_one_dot_and_only_before_a_digit():
    assert _tokens("1.5.2 1.") == [
        ("number", 1.5, 1, 1), (".", ".", 1, 4), ("number", 2.0, 1, 5),
        ("number", 1.0, 1, 7), (".", ".", 1, 8), ("eof", None, 1, 9),
    ]


def test_a_dash_after_a_name_is_part_of_it():
    assert _tokens("object.x-1") == [
        ("object", "object", 1, 1), (".", ".", 1, 7), ("ident", "x-1", 1, 8),
        ("eof", None, 1, 11),
    ]
    assert [t[0] for t in _tokens("x - 1 <= -2")] == [
        "ident", "-", "number", "<=", "-", "number", "eof"]


def test_an_unexpected_character_is_reported_where_it_stands():
    assert _lex_error("x @") == ("unexpected character '@'", 1, 3, None)
    assert _lex_error("x\n  !x") == ("unexpected character '!'", 2, 3, None)
    assert _lex_error("Set") == ("unexpected character 'S'", 1, 1, None)


def test_oversized_script_rejected():
    with pytest.raises(ScriptParseError):
        parse("# " + "x" * (64 * 1024))


# each builds a script that nests d levels deep
_NESTED = {
    "parens": lambda d: "set object.x = " + "(" * d + "1" + ")" * d + ";",
    "if": lambda d: "if true { " * d + "set object.x = 1;" + " }" * d,
    "unary": lambda d: "set object.x = " + "- " * d + "1;",
    "chain": lambda d: "set object.x = " + " + ".join(["1"] * (d + 1)) + ";",
}


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_nesting_past_the_limit_is_a_parse_error(kind):
    for depth in (MAX_NESTING + 1, 1200):    # 1200 overflowed the Python stack
        with pytest.raises(ScriptParseError) as err:
            parse(_NESTED[kind](depth))
        assert "nesting" in str(err.value)
        assert err.value.line == 1 and err.value.column > 1


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_nesting_at_the_limit_parses_checks_and_runs(kind):
    ast = parse(_NESTED[kind](MAX_NESTING))
    net = Net()
    target = net.add_object([])
    execute(ast, ExecContext(net, target))
    assert net.get_property(target, "x").kind.value == "num"


def test_lone_surrogate_is_a_parse_error():
    with pytest.raises(ScriptParseError):
        parse("set object.x = '\ud800';")
    with pytest.raises(ScriptParseError) as err:
        parse('set object.x = 1;\nset object.y = "a\udfff";')
    assert (err.value.line, err.value.column) == (2, 18)


_FUZZ_SEEDS = [
    'set object.colour = "black";',
    "if subject.x >= 2 and not (object.y == 1) { set self.z = -object.w * 3; }"
    " else { unset object.q; }",
    'set object.t = "a\\"b" ; # note\nset subject.n = (1 + 2) / 4 - 5;',
    "if true { if false { set object.x = 1; } } set object.y = object.x or true;",
]
_FUZZ_INSERTS = list("(){};.=<>+-*/#\"\\ \n\t1a") + [
    "if ", "else ", "set ", "unset ", "not ", "object.", "\ud800", "\udfff", "\u00e9", "\x00",
]


def test_seeded_parse_fuzz_raises_only_parse_errors():
    """String mutants of valid scripts, deep nesting and lone surrogates:
    parse either returns an Ast or raises ScriptParseError."""
    rng = random.Random(20261018)
    for _ in range(3000):
        src = rng.choice(_FUZZ_SEEDS)
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(src) + 1)
            roll = rng.random()
            if roll < 0.3:
                src = src[:at] + src[at + rng.randrange(1, 8):]
            elif roll < 0.7:
                src = src[:at] + rng.choice(_FUZZ_INSERTS) + src[at:]
            elif roll < 0.8:
                src = src[:at] + rng.choice(["(", "- ", "not ", "if true { "]) \
                    * rng.randrange(MAX_NESTING - 2, 400) + src[at:]
            else:
                src = src[:at] + src[rng.randrange(len(src) + 1):]
        try:
            parse(src)
        except ScriptParseError:
            pass


# ---------------------------------------------------------------- parse memo

MEMO_TEXT = 'set object.x = object.x + 1; if subject.on { set object.colour = "red"; }'


def test_a_repeat_parse_is_the_same_object_and_equals_a_fresh_parse():
    first = parse(MEMO_TEXT)
    assert parse(MEMO_TEXT) is first
    assert parse(MEMO_TEXT.encode().decode()) is first      # an equal string, not the same one
    fresh = subprocess.run(
        [sys.executable, "-c", "import pickle, sys; from krn import parse; "
         "sys.stdout.buffer.write(pickle.dumps(parse(sys.argv[1])))", MEMO_TEXT],
        capture_output=True, check=True).stdout
    assert pickle.loads(fresh) == first


def test_a_failed_parse_raises_alike_every_time_and_is_never_stored():
    bad = "set object.x = (1 + ;"
    errors = []
    for _ in range(2):
        with pytest.raises(ScriptParseError) as err:
            parse(bad)
        errors.append((err.value.line, err.value.column, str(err.value)))
    assert errors[0] == errors[1] and errors[0][:2] == (1, 21)
    assert bad not in script._memo and script._memo_chars == 0


def test_the_memo_empties_whole_at_its_bound_and_parsing_goes_on(monkeypatch):
    monkeypatch.setattr(script, "MAX_MEMO_CHARS", 100)
    texts = [f"set object.x = {10**7 + i};" for i in range(5)]     # 24 characters each
    asts = [parse(text) for text in texts[:4]]
    assert list(script._memo) == texts[:4] and script._memo_chars == 96
    last = parse(texts[4])                                      # 120 would pass the bound
    assert list(script._memo) == texts[4:] and script._memo_chars == 24
    assert last.statements[0].expr == Literal(Value.num(10**7 + 4))
    again = parse(texts[0])
    assert again is not asts[0] and again == asts[0]


def test_two_loads_of_one_file_share_asts_and_stay_independent(tmp_path):
    net, man, wall, paint = wall_net()
    path = str(tmp_path / "wall.krn")
    store.save(net, None, path)
    one, _ = store.load(path)
    two, _ = store.load(path)
    assert one.actions[paint].script.ast is two.actions[paint].script.ast
    assert one.actions[paint].script.ast is net.actions[paint].script.ast
    run_action(one, paint)
    assert one.get_property(wall, "colour") == Value.text("black")
    assert two.get_property(wall, "colour") == Value.text("green")
    assert nets_equal(two, store.load(path)[0])


# -------------------------------------------------------------- execution

def test_paint_execution_and_changeset():
    net, man, wall, paint = wall_net()
    act = net.actions[paint]
    changes = execute(act.script.ast, ExecContext(net, act.target, act.subject, paint))
    assert len(changes) == 1
    ch = changes[0]
    assert (ch.node, ch.name) == (wall, "colour")
    assert ch.before == Value.text("green")
    assert ch.after == Value.text("black")
    assert net.get_property(wall, "colour") == Value.text("black")


def test_empty_ast_changes_nothing():
    net = Net()
    target = net.add_object([("x", Value.num(1))])
    snapshot = copy.deepcopy(net.objects[target].properties)
    assert execute(parse(""), ExecContext(net, target)) == []
    assert net.objects[target].properties == snapshot


def test_position_increment():
    net = Net()
    snail = net.add_object([("position", Value.num(0))])
    ast = parse("set object.position = object.position + 1;")
    changes = execute(ast, ExecContext(net, snail))
    assert changes[0].before == Value.num(0.0)
    assert changes[0].after == Value.num(1.0)


def test_noop_write_filtered():
    net = Net()
    target = net.add_object([("x", Value.num(5))])
    changes = execute(parse("set object.x = 5;"), ExecContext(net, target))
    assert changes == []


def test_set_creates_missing_property_unset_does_not():
    net = Net()
    target = net.add_object([])
    changes = execute(parse("set object.fresh = 1;"), ExecContext(net, target))
    assert changes[0].before is None
    with pytest.raises(UnknownProperty):
        execute(parse("unset object.fresh-but-absent;"), ExecContext(net, target))


def test_unbound_roles_fault():
    net = Net()
    target = net.add_object([])
    with pytest.raises(UnboundRole):
        execute(parse("set object.x = subject.hand;"), ExecContext(net, target))
    with pytest.raises(UnboundRole):
        execute(parse("set self.x = 1;"), ExecContext(net, target))


def test_read_of_missing_property_faults():
    net = Net()
    target = net.add_object([])
    with pytest.raises(UnknownProperty):
        execute(parse("set object.x = object.ghost;"), ExecContext(net, target))


def test_type_mismatch_and_division():
    net = Net()
    target = net.add_object([("t", Value.text("green")), ("n", Value.num(1))])
    ctx = ExecContext(net, target)
    with pytest.raises(TypeMismatch):
        execute(parse("set object.x = object.t + object.n;"), ctx)
    with pytest.raises(DivisionByZero):
        execute(parse("set object.x = 1 / 0;"), ctx)
    assert issubclass(DivisionByZero, TypeMismatch)
    with pytest.raises(TypeMismatch):
        execute(parse('if object.n { set object.x = 1; }'), ctx)


@pytest.mark.parametrize("expr, message", [
    ('-"a"', "cannot negate text"),
    ("not 1", "cannot apply not to num"),
    ("1 and true", "and needs bool operands, got num"),   # the left operand
    ("false or 1", "or needs bool operands, got num"),    # the right operand
])
def test_an_operand_of_the_wrong_kind_is_a_type_mismatch(expr, message):
    net = Net()
    target = net.add_object([])
    with pytest.raises(TypeMismatch) as err:
        execute(parse(f"set object.r = {expr};"), ExecContext(net, target))
    assert str(err.value) == message


@pytest.mark.parametrize("op", ["<", ">", "<=", ">="])
def test_scripts_and_fragment_predicates_order_numbers_alike(op):
    for x in (1.0, 2.0, 3.0):
        expected = {"<": x < 2, ">": x > 2, "<=": x <= 2, ">=": x >= 2}[op]
        net = Net()
        target = net.add_object([("x", Value.num(x)), ("t", Value.text("2"))])
        ctx = ExecContext(net, target)
        execute(parse(f"set object.r = object.x {op} 2;"), ctx)
        assert net.get_property(target, "r") == Value.truth(expected)
        assert (query_has(net, target, f"x {op} 2") is Answer.YES_ASSERTED) is expected
        assert query_has(net, target, f"t {op} 2") is Answer.UNKNOWN
        with pytest.raises(TypeMismatch) as err:
            execute(parse(f"set object.r = object.t {op} 2;"), ctx)
        assert str(err.value) == f"ordering needs numbers, got text {op} num"
    with pytest.raises(TypeMismatch) as err:
        execute(parse("set object.r = true * 2;"), ctx)
    assert str(err.value) == "arithmetic needs numbers, got bool * num"


def test_cross_kind_equality_is_false_not_error():
    net = Net()
    target = net.add_object([("t", Value.text("1")), ("n", Value.num(1))])
    execute(parse("set object.same = object.t == object.n;"), ExecContext(net, target))
    assert net.get_property(target, "same") == Value.truth(False)
    execute(parse("set object.diff = object.t != object.n;"), ExecContext(net, target))
    assert net.get_property(target, "diff") == Value.truth(True)


def test_and_or_short_circuit():
    net = Net()
    target = net.add_object([])
    # the right side would fault if evaluated
    execute(parse("set object.a = false and (1 / 0 == 1);"), ExecContext(net, target))
    assert net.get_property(target, "a") == Value.truth(False)
    execute(parse("set object.b = true or (1 / 0 == 1);"), ExecContext(net, target))
    assert net.get_property(target, "b") == Value.truth(True)


def test_budget_exhaustion():
    net = Net()
    target = net.add_object([])
    ast = parse("".join(f"set object.p{i} = {i};" for i in range(10)))
    with pytest.raises(BudgetExhausted):
        execute(ast, ExecContext(net, target, step_budget=5))
    with pytest.raises(ValueError):
        execute(ast, ExecContext(net, target, step_budget=0))


def test_subject_and_self_writes():
    net = Net()
    man = net.add_object([])
    wall = net.add_object([])
    act = net.add_action(man, wall, "set subject.tired = true;\nset self.strokes = 3;")
    ast = net.actions[act].script.ast
    execute(ast, ExecContext(net, wall, man, act))
    assert net.get_property(man, "tired") == Value.truth(True)
    assert net.get_property(act, "strokes") == Value.num(3.0)


def test_reads_see_earlier_writes_in_order():
    net = Net()
    target = net.add_object([("x", Value.num(1))])
    ast = parse("set object.x = 10;\nset object.y = object.x * 2;")
    execute(ast, ExecContext(net, target))
    assert net.get_property(target, "y") == Value.num(20.0)


def test_determinism_same_inputs_same_changesets():
    def run_once():
        net, man, wall, paint = wall_net()
        act = net.actions[paint]
        ch = execute(act.script.ast, ExecContext(net, act.target, act.subject, paint))
        return [(c.node, c.name, c.before, c.after) for c in ch]

    assert run_once() == run_once()


def test_undo_restores_overwritten_provenance():
    net = Net()
    target = net.add_object([])
    net.set_property(target, "mood", Value.text("calm"), Provenance.INFERRED)
    changes = execute(parse('set object.mood = "bright";'), ExecContext(net, target))
    apply_undo(net, changes)
    prop = net.objects[target].properties["mood"]
    assert prop.value == Value.text("calm")
    assert prop.provenance is Provenance.INFERRED
