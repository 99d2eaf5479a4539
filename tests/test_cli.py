import io
import random
import re
import shlex
import subprocess
import sys

import pytest

from krn import SensorAddress, SensorSignal, Value
from krn.cli import COMMANDS, Session, main, run_command, run_lines, split_commands, split_words
from krn.errors import CommandError, FormatError, KrnError, UnknownNode
from helpers import kept_nets


def run_script(text: str) -> tuple[str, int]:
    out = io.StringIO()
    code = run_lines(text.splitlines(), out)
    return out.getvalue(), code


def test_split_commands_respects_quotes():
    line = "act man wall script='set object.colour = \"black\";'; run paint"
    parts = split_commands(line)
    assert len(parts) == 2
    assert parts[1] == "run paint"
    assert split_commands("a; ; b") == ["a", "b"]


def test_wall_vignette_end_to_end(tmp_path):
    fixture = tmp_path / "wall.krn"
    script = f"""
new
obj man
obj wall colour=green
act man wall script='set object.colour = "black";' as paint
save {fixture}
new
load {fixture}
run paint
show wall.colour
has wall colour==black
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "new net",
        "obj man #1",
        "obj wall #2",
        "act paint #3",
        f"saved {fixture}",
        "new net",
        "loaded 2 objects, 1 actions",
        "wall.colour: green -> black (changing-colour)",
        "black",
        "yes (asserted)",
    ]


def test_batch_output_is_deterministic(tmp_path):
    fixture = tmp_path / "w.krn"
    script = f"""
new
obj man
obj wall colour=green
act man wall script='set object.colour = "black";' as paint
save {fixture}
load {fixture}
snap
run paint
snap
diff 1 4
goal wall.colour == black
goals
"""
    first = run_script(script)
    second = run_script(script)
    assert first == second
    assert first[1] == 0


def test_peter_vignette_through_cli():
    script = """
new
obj man-root
obj head-part head=true
obj arms-part arm=true length=unset
obj legs-part leg=true length=unset
act man-root head-part
act man-root arms-part
act man-root legs-part
obj peter
isa peter man-root
has peter head
shape peter
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert "yes (inferred)" in lines
    # the query already shaped on demand, so an explicit shape adds nothing
    assert lines[-1] == "shaped peter: 0 new nodes"


def test_mine_command(tmp_path):
    build = """
new
obj person-a
obj head-a head=true
act person-a head-a
save {p}
new
obj person-b
obj head-b head=true
act person-b head-b
save {q}
"""
    p = tmp_path / "mike.krn"
    q = tmp_path / "jack.krn"
    out, code = run_script(build.format(p=p, q=q))
    assert code == 0
    mine_out, mine_code = run_script(f"mine --min-support 2 --max-nodes 3 {p} {q}\n")
    assert mine_code == 0
    assert mine_out.splitlines() == ["template 1: support 2, 3 nodes"]


def test_a_session_keeps_its_memo_across_new_load_and_mine(tmp_path):
    """One memo for the session's life: `new` and `load` let the session's
    net go into it, a load of its bytes takes it back, and `mine` loads
    through it and lets each net it read go back."""
    p, q = tmp_path / "mike.krn", tmp_path / "jack.krn"
    session = Session()
    memo = session.memo
    for path, who, height in ((p, "a", 2), (q, "b", 3)):
        for command in ("new", f"obj person-{who} height={height}", f"obj head-{who} head=true",
                        f"act person-{who} head-{who}", f"save {path}"):
            run_command(session, command)
    assert not memo.nets   # a net no file gave has no source, so none is kept
    run_command(session, f"load {p}")
    net = session.net
    run_command(session, "new")
    assert session.memo is memo and list(kept_nets(memo)) == [p.read_bytes()]
    mine = f"mine --min-support 2 --max-nodes 3 {p} {q}"
    assert run_command(session, mine) == run_command(Session(), mine) == [
        "template 1: support 2, 3 nodes"]
    assert session.memo is memo and list(kept_nets(memo)) == [p.read_bytes(), q.read_bytes()]
    run_command(session, f"load {p}")
    assert session.net is net and list(kept_nets(memo)) == [q.read_bytes()]


def test_a_failed_load_leaves_the_session_its_net(tmp_path):
    """A load that fails keeps nothing of the session's: its net, run state
    and all, stays its own and out of the memo, and a load of the bytes it
    holds takes it back."""
    p, bad = tmp_path / "p.krn", tmp_path / "bad.krn"
    bad.write_bytes(b"KRN 1\nOBJ 1\nPROP 1 x num ten\n")
    session = Session()
    for command in ("obj a x=1", "act - a script='set object.x = 2;' as bump", f"save {p}",
                    f"load {p}", "run #2", f"save {p}"):
        run_command(session, command)
    net, timeline = session.net, session.net.timeline
    for path in (bad, tmp_path / "absent.krn"):
        with pytest.raises((FormatError, OSError)):
            run_command(session, f"load {path}")
        assert session.net is net and net.timeline is timeline and net.clock == 2
        assert not session.memo.nets
    assert run_command(session, f"load {p}") == ["loaded 1 objects, 1 actions"]
    assert session.net is net and net.timeline is None and net.clock == 0


def test_mine_flag_without_an_integer_value_is_a_usage_error(tmp_path):
    p = tmp_path / "a.krn"
    q = tmp_path / "b.krn"
    out, code = run_script(f"new\nobj a\nsave {p}\nsave {q}\n")
    assert code == 0
    usage = "usage: mine [--min-support N] [--max-nodes K] <paths...>"
    for command in (f"mine {p} {q} --min-support", f"mine {p} {q} --max-nodes",
                    f"mine --min-support {p} {q}", f"mine --max-nodes x {p} {q}"):
        out, code = run_script(command + "\n")
        assert code == 1, command
        assert out.startswith("error: CommandError: "), out
        assert out.rstrip().endswith(usage), out


@pytest.mark.parametrize("command, usage", [
    ("diff 1 >", "usage: diff <tick1> <tick2>"),
    ("set a.x ref:zz", "usage: ref:<id>"),
    ("obj b x=ref:abc", "usage: ref:<id>"),
    ("set a.x ref:1_0", "usage: ref:<id>"),     # int() reads both as ids; the store reads neither
    ("set a.x ref:\u0663", "usage: ref:<id>"),
    ("mine --max-nodes 0 {p} {q}", "usage: mine [--min-support N] [--max-nodes K] <paths...>"),
    ("mine --min-support 1 {p} {q}", "usage: mine [--min-support N] [--max-nodes K] <paths...>"),
    ("collapse-obj as tv", "usage: collapse-obj <ids...> [as <name>]"),
    ("load {p}\0", "load: bad path: embedded null byte"),
    ("save x\ud800", "surrogates not allowed"),
    ("load a b", "usage: load <path>"),
    ("save", "usage: save <path>"),
    ("run", "usage: run <action>"),
    ("runs", "usage: runs <a1> <a2> ..."),
    ("expand", "usage: expand <id>"),
    ("mine --max-nodes 3", "usage: mine [--min-support N] [--max-nodes K] <paths...>"),
    ("validate a", "usage: validate"),
    ("new x", "usage: new"),
    ("snap 3", "usage: snap"),
    ("goals x", "usage: goals"),
    ("compare x", "usage: compare"),
    ("show a.x extra", "usage: show <obj>.<prop>"),
    ("say a --lang", "usage: say <node> [--lang L]"),
    ("mine --max-nodes", "usage: mine [--min-support N] [--max-nodes K] <paths...>"),
])
def test_a_usage_fault_is_a_command_error(tmp_path, command, usage):
    p = tmp_path / "a.krn"
    q = tmp_path / "b.krn"
    out, code = run_script(f"new\nobj a\nsave {p}\nsave {q}\nsnap\n" + command.format(p=p, q=q))
    assert code == 1
    assert out.splitlines()[-1].startswith("error: CommandError: "), out
    assert out.rstrip().endswith(usage), out


@pytest.mark.parametrize("command, error", [
    ("show " + "1" * 4301 + ".x", "CommandError: unknown name '111"),
    ("set a.x a\udcffb", "FormatError: cannot save '\\udcff': no UTF-8 encoding (line 3)"),
    ("label a fr \udcff", "FormatError: cannot save '\\udcff': no UTF-8 encoding (line 4)"),
], ids=["long-id", "surrogate-value", "surrogate-label"])
def test_input_python_cannot_take_is_a_typed_error(tmp_path, command, error):
    p = tmp_path / "a.krn"
    out, code = run_script(f"new\nobj a\nsave {p}\n{command}\nsave {p}\n")
    assert code == 1
    assert out.splitlines()[-1].startswith(f"error: {error}"), out
    assert p.read_text() == "KRN 1\nOBJ 1\nLABEL 1 en \"a\"\n"   # the failed save wrote nothing
    assert [f.name for f in tmp_path.iterdir()] == ["a.krn"]


def test_show_of_a_sensed_value_names_its_origin_and_size():
    session = Session()
    run_command(session, "obj hand")
    session.net.ingest_signal(session.resolve("hand"), "touch",
                              SensorSignal(SensorAddress.of("skin", "left hand"), b"\x00\xff\x10"))
    assert run_command(session, "show hand.touch") == ["signal(skin/left hand, 3B)"]


def test_a_backslash_keeps_a_quote_open_as_in_shlex():
    line = 'set o.x "a\\";b"'
    assert split_commands(line) == [line]
    assert split_commands("set o.x a\\;b; show o.x") == ["set o.x a\\;b", "show o.x"]
    assert split_commands("x 'a\\';b") == ["x 'a\\'", "b"]
    out, code = run_script(f"new\nobj o\n{line}; show o.x\n")
    assert code == 0
    assert out.splitlines()[-1] == 'a";b'


def test_words_split_as_shlex_splits_them():
    # seeded random commands over the characters shlex tells apart, with
    # shlex as the reference: the same tokens, or the same message where it
    # fails; where both faults occur (a quote left open, a backslash at the
    # end inside it), shlex meets the backslash first
    rng = random.Random(1717)
    alphabet = ["a", "b", "=", ";", "#", "\u00e9", " ", "\t", "\n", "\r", "\x0b", "'", '"', "\\"]
    texts = ['" \\', '"a\\', "'a\\", '"a\\\\', '"\\"', "\\", "a\\ b", "'' \"\"",
             '"' + "a b" * 2000, "'" + "a b" * 2000]   # an open quote costs one pass
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(12))) for _ in range(20000)]
    for text in texts:
        try:
            want = shlex.split(text, posix=True)
        except ValueError as exc:
            with pytest.raises(CommandError) as err:
                split_words(text)
            assert str(err.value) == f"cannot parse command: {exc}", repr(text)
            continue
        words, tokens = split_words(text)
        assert tokens == want and len(words) == len(tokens), repr(text)
        assert [shlex.split(word, posix=True) for word in words] == [[t] for t in tokens]


@pytest.mark.parametrize("word, value", [
    ('"3"', Value.text("3")), ("'true'", Value.text("true")), ('"unset"', Value.text("unset")),
    ('"ref:1"', Value.text("ref:1")), ('""', Value.text("")), ("3", Value.num(3)),
    ("true", Value.truth(True)), ('3"4"', Value.num(34)), ("'3'4", Value.num(34)),
])
def test_a_set_value_quoted_as_a_whole_is_text(word, value):
    session = Session()
    run_command(session, "obj o")
    out = run_command(session, f"set o.code {word}")
    assert session.net.get_property(1, "code") == value
    assert run_command(session, "show o.code") == [out[0].split(" = ", 1)[1]]


def test_a_key_value_quoted_after_its_key_is_text():
    session = Session()
    run_command(session, "obj o a=\"3\" b='true' c=3 d=true e=1\"2\" \"f=4\"")
    run_command(session, "act o o g=\"5\" h=5 as p")
    got = {name: prop.value for nid in (1, 2)
           for name, prop in session.net.node(nid).properties.items()}
    assert got == {"a": Value.text("3"), "b": Value.text("true"), "c": Value.num(3),
                   "d": Value.truth(True), "e": Value.num(12), "f": Value.num(4),
                   "g": Value.text("5"), "h": Value.num(5)}


# One template per CLI verb (and an unknown one); each slot is filled from its
# own pool, or at times with a hostile token.
_FUZZ_COMMANDS = [
    "new", "load {path}", "save {path}", "obj {name} {kv}", "act {node} {node} {kv} as {name}",
    "act - {node}", "set {node}.{prop} {value}", "show {node}.{prop}", "run {node}",
    "runs {node} {node}", "snap", "diff {num} {num}", "collapse-obj {node} {node} as {name}",
    "collapse-act {node} {node} {node}", "expand {node}", "mine --max-nodes {num} {path} {path}",
    "isa {node} {node}", "shape {node}", "has {node} {frag}", "label {node} {lang} {value}",
    "say {node} --lang {lang}", "goal {node} has {prop}", "antigoal {node}.{prop} == {value}",
    "goals", "compare", "validate", "frobnicate {value}",
]
_FUZZ_SLOTS = {
    "name": ["o", "p", "q"],
    "node": ["o", "p", "q", "#1", "#2", "#3", "#4", "#5", "-"],
    "prop": ["x", "colour", "spin"],
    "value": ["1", "green", "true", "unset", "ref:1", "-2.5", "'two words'", "a\udcffb"],
    "kv": ["x=1", "colour=green", "spin=true", "script='set object.x = object.x + 1;'"],
    "frag": ["colour", "x==1", "has spin", "colour == green"],
    "path": ["f.krn", "g.krn"],
    "num": ["0", "1", "2", "3"],
    "lang": ["en", "fr"],
    "hostile": ["\0", "a\0b", "1" * 4301, "#" + "9" * 19, "\udcff", "x\ud800y", '"', "'",
                '"a\\";b"', "'a;b", "\\", "a\\", "\\;", ";", "ref:", "ref:zz", "1e999",
                "script='(((('", "as", "--lang", ""],
}


def test_cli_fuzz_lets_only_engine_and_path_errors_escape(tmp_path, monkeypatch):
    """Seeded random sessions of CLI commands with hostile tokens (NUL, long
    digit runs, lone surrogates, unbalanced quotes, backslashes, `;`)."""
    assert {t.split()[0] for t in _FUZZ_COMMANDS} - {"frobnicate"} == set(COMMANDS)
    monkeypatch.chdir(tmp_path)
    rng = random.Random(7)

    def fill(slot):
        pool = "hostile" if rng.random() < 0.15 else slot.group(1)
        return rng.choice(_FUZZ_SLOTS[pool])

    for _ in range(300):
        session = Session()
        for command in ("obj o x=1", "obj p colour=green", "act o p as q"):
            run_command(session, command)
        for _ in range(rng.randint(1, 20)):
            line = re.sub(r"\{(\w+)\}", fill, rng.choice(_FUZZ_COMMANDS))
            for command in split_commands(line):
                try:
                    run_command(session, command)
                except KrnError:
                    pass
                except OSError:
                    assert command.split()[0] in ("load", "save", "mine"), command
                assert session.net.validate_bipartite().ok, command


@pytest.mark.parametrize("command", [
    "label #9 en ghost", "goal #9 has x", "antigoal #9.x > 0", "shape #9", "has #9 x",
    "set #9.x 1", "show #9.x", "run #9", "runs #9", "expand #9", "isa #9 a",
    "collapse-obj #9", "act a #9"])
def test_a_command_on_a_node_the_net_does_not_hold_changes_nothing(command):
    session = Session()
    run_command(session, "obj a x=1")
    run_command(session, "label a en alpha")
    labels, nodes = dict(session.lexicon.labels), session.net.node_ids()
    with pytest.raises(UnknownNode):
        run_command(session, command)
    assert session.lexicon.labels == labels and session.net.node_ids() == nodes
    assert session.model is None
    assert session.net.timeline is None


@pytest.mark.parametrize("command", [
    "obj a.b x=1", "act ok ok as 'x y'", "collapse-obj ok as 'no good'"])
def test_a_bad_name_is_refused_before_the_net_changes(command):
    session = Session()
    run_command(session, "obj ok")
    nodes, collapsed = session.net.node_ids(), session.net.collapsed
    labels = dict(session.lexicon.labels)
    with pytest.raises(CommandError, match="bad name"):
        run_command(session, command)
    assert session.net.node_ids() == nodes and session.net.collapsed == collapsed
    assert session.lexicon.labels == labels


def test_validate_prints_each_violation_or_ok():
    session = Session()
    run_command(session, "obj man")
    run_command(session, "obj wall")
    run_command(session, "act man wall as paint")
    assert run_command(session, "validate") == ["ok"]
    session.net.objects[1].outgoing.clear()    # the subject forgets its action
    assert run_command(session, "validate") == [
        "symmetry-break #1 #3: subject 1 outgoing does not list 3 once"]


def test_snapshots_and_classification():
    script = """
new
obj snail position=0
act - snail script='set object.position = object.position + 1;' as crawl
run crawl
run crawl
show snail.position
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert "snail.position: 0 -> 1 (moving)" in lines
    assert "snail.position: 1 -> 2 (moving)" in lines
    assert lines[-1] == "2"


def test_collapse_and_expand_commands():
    script = """
new
obj person
obj button
obj screen
act button screen as wires
act person button as press
act screen person as show
collapse-obj button screen wires as tv
expand tv
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "collapse-obj tv #7"
    assert lines[-1] == "expanded #7: 3 nodes"


def test_runs_and_collapse_act():
    script = """
new
obj man
obj button
obj circuit
act man button as press
act button circuit as closes
obj snail position=0
act - snail script='set object.position = object.position + 1;' as crawl
runs crawl crawl crawl
collapse-act press button closes as turn-on
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert "snail.position: 2 -> 3 (moving)" in lines
    assert lines[-1].startswith("collapse-act turn-on #")


def test_antigoal_status():
    script = """
new
obj engine damaged=false
antigoal engine.damaged == true
goals
set engine.damaged true
goals
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert "goal 1 (antigoal): satisfied" in lines
    assert lines[-1] == "goal 1 (antigoal): violated"


def test_say_and_label_fallback():
    script = """
new
obj wall
label wall fr mur
say wall --lang fr
say wall
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "mur (fr)"
    assert lines[-1] == "wall (en)"


def test_compare_reports_sense_discrepancy():
    script = """
new
obj wall colour=green
act - wall script='set object.colour = "black";' as paint
goal wall.colour == black
run paint
compare
goals
"""
    out, code = run_script(script)
    assert code == 0
    lines = out.splitlines()
    assert "no discrepancies" in lines
    assert lines[-1] == "goal 1 (goal): satisfied"


def test_compare_does_not_move_the_clock():
    # each snapshot takes the next tick, and compare takes none
    script = """
obj a x=1
act - a script="set object.x = 2;" as r
snap
goal a.x > 0
compare
compare
snap
diff 1 2
"""
    out, code = run_script(script)
    assert code == 0, out   # diff 1 2 finds both snapshots
    assert out.splitlines()[2:7] == ["snapshot 1", "goal 1", "no discrepancies",
                                     "no discrepancies", "snapshot 2"]


def test_engine_error_gives_nonzero_exit():
    out, code = run_script("new\nobj wall\nrun wall\n")
    assert code == 1
    assert out.splitlines()[-1].startswith("error: ")

    out2, code2 = run_script("new\nnonsense-verb\n")
    assert code2 == 1
    assert "unknown command" in out2


def test_comments_and_blank_lines_ignored():
    out, code = run_script("# a comment\n\nnew\n")
    assert code == 0
    assert out == "new net\n"


def test_main_reads_file_and_stdin(tmp_path):
    script = tmp_path / "session.krn-cmd"
    script.write_text("new\nobj wall colour=green\nshow wall.colour\n")
    proc = subprocess.run(
        [sys.executable, "-m", "krn", str(script)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "green"

    piped = subprocess.run(
        [sys.executable, "-m", "krn"],
        input="new\nobj wall\nrun wall\n",
        capture_output=True, text=True,
    )
    assert piped.returncode == 1
    assert "error: " in piped.stdout


@pytest.mark.parametrize("kind, error", [
    ("missing", "error: FileNotFoundError: [Errno 2] No such file or directory"),
    ("directory", "error: IsADirectoryError: [Errno 21] Is a directory"),
    ("undecodable", "error: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
])
def test_an_unreadable_command_file_is_one_error_line(tmp_path, capsys, kind, error):
    path = tmp_path / "session.krn-cmd"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":   # reported before the commands ahead of it run
        path.write_bytes(b"new\nobj wall\n\xff\n")
    assert main([str(path)]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(error)


@pytest.mark.parametrize("table, error", [
    (None, "error: FileNotFoundError: [Errno 2] No such file or directory"),
    (b"VERB weight r\xe9\n", "error: FormatError: undecodable line (line 1)"),
    (b"VERB only-two\n", "error: FormatError: bad verb line 'VERB only-two' (line 1)"),
])
def test_a_bad_verb_table_is_one_error_line(tmp_path, capsys, monkeypatch, table, error):
    path = tmp_path / "verbs.cfg"
    if table is not None:
        path.write_bytes(table)
    monkeypatch.setenv("KRN_VERB_TABLE", str(path))
    script = tmp_path / "session.krn-cmd"
    script.write_text("new\n")
    assert main([str(script)]) == 1
    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    assert main([]) == 1   # the REPL, before its first prompt
    out = io.StringIO()
    assert run_lines(["new"], out) == 1
    lines = capsys.readouterr().out.splitlines() + out.getvalue().splitlines()
    assert len(lines) == 3 and all(line.startswith(error) for line in lines)


def test_the_repl_on_a_tty_keeps_going_after_an_error_until_eof(monkeypatch, capsys):
    typed = iter(["new", "obj wall colour=green", "run wall", "show wall.colour"])
    prompts = []

    def fake_input(prompt):
        prompts.append(prompt)
        line = next(typed, None)
        if line is None:
            raise EOFError
        return line

    monkeypatch.setattr("builtins.input", fake_input)
    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    assert main([]) == 1
    out = capsys.readouterr().out.splitlines()
    # the error line, the command after it, and the newline printed at EOF
    assert out == ["new net", "obj wall #1", "error: UnknownNode: no action 1", "green", ""]
    assert prompts == ["krn> "] * 5



def test_names_and_goals_inside_a_subnet_survive_collapse_and_expand():
    script = """
new
obj man
obj button
obj circuit
act man button script='set object.pressed = true;' as press
act button circuit as closes
label button fr bouton
goal button.pressed == true
run press
collapse-act press button closes as turn-on
goals
expand turn-on
show button.pressed
say button --lang fr
goals
set button.pressed false
goals
"""
    out, code = run_script(script)
    assert code == 0, out
    assert out.splitlines()[-8:] == [
        "collapse-act turn-on #7",
        "goal 1 (goal): undetermined",
        "expanded #7: 3 nodes",
        "true",
        "bouton (fr)",
        "goal 1 (goal): satisfied",
        "button.pressed = false",
        "goal 1 (goal): violated",
    ]


def test_a_failed_diff_starts_no_timeline():
    session = Session()
    run_command(session, "obj wall x=0")
    with pytest.raises(KrnError, match=r"^no snapshot at tick 1$"):
        run_command(session, "diff 1 2")
    assert run_command(session, "compare") == ["no discrepancies"]
    for i in range(10_000):
        run_command(session, f"set wall.x {i}")
    assert session.net.timeline is None and session.net.journal is None
    run_command(session, "snap")
    run_command(session, "set wall.x -1")
    assert list(session.net.journal) == [(session.resolve("wall"), "x")]
