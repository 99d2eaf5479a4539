"""Batch and REPL front end.

One command per line (or several separated by `;`); a command that
starts with `#` begins a comment that runs to the end of the line.
Output is plain text, one fact per line, with stable ordering so
sessions can be compared byte for byte. The REPL is the batch
interpreter reading interactively; there is no separate code path.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import agent, reasoning, sim, store
from .core import _NAME_RE, KIND_BOOL, KIND_NUM, KIND_REF, KIND_SIGNAL, KIND_TEXT, Net, Value
from .errors import CommandError, FormatError, KrnError, NoLabel
from .lexicon import Lexicon

_ID_RE = re.compile(r"#?[0-9]{1,18}\Z")   # as the store reader bounds ids
# A command runs to a `;` outside quotes that no backslash escapes (inside
# single quotes a backslash is plain); an unclosed quote runs to the end.
_COMMAND_RE = re.compile(r"""(?:[^;'"\\]|\\.?|'[^']*'?|"(?:[^"\\]|\\.?)*"?)+""", re.DOTALL)
# A word of a command as shlex.split(posix=True) reads it, quotes kept:
# with no quote or backslash (the token as it stands), or with some; or,
# from a quote that never closes or a backslash at the end, the rest of
# the text, where shlex fails.
_WORD_RE = re.compile(r"""([^ \t\r\n'"\\]++(?![^ \t\r\n]))
    | ((?:[^ \t\r\n'"\\]++|\\.|'[^']*+'|"(?:[^"\\]++|\\.)*+")++) | (['"\\].*)""", re.DOTALL | re.X)
# the pieces of a quoted word: plain text, an escaped character, a
# single-quoted string, a double-quoted one (where a backslash escapes
# only a backslash or a double quote)
_PIECE_RE = re.compile(r"""([^'"\\]+)|\\(.)|'([^']*)'|"((?:[^"\\]|\\.)*)\"""", re.DOTALL)
_ESCAPE_RE = re.compile(r'\\([\\"])')
# a word that is one quoted string, after a plain `key=` if any
_QUOTED_RE = re.compile(r"""(?:([^ \t\r\n'"\\=]*)=)?(?:'[^']*'|"(?:[^"\\]|\\.)*")\Z""", re.DOTALL)

ANSWER_TEXT = {
    reasoning.Answer.YES_ASSERTED: "yes (asserted)",
    reasoning.Answer.YES_INFERRED: "yes (inferred)",
    reasoning.Answer.UNKNOWN: "unknown",
}


class Session:
    def __init__(self):
        self.verb_table = sim.verb_table_from_env()
        self.memo = store.ValueMemo()   # the nets this session let go, kept by `reset`
        self.reset()

    def reset(self) -> None:
        self.net = Net()
        self.lexicon = Lexicon()
        self.symbols: dict[str, int] = {}
        self.model: agent.SelfModel | None = None
        self._display_names: dict[int, str] | None = None   # built from symbols on demand

    # -- name handling --

    def resolve(self, tok: str) -> int:
        if _ID_RE.match(tok):
            return int(tok.lstrip("#"))
        if tok in self.symbols:
            return self.symbols[tok]
        hits = self.lexicon.lookup("en", tok) or self.lexicon.lookup_any(tok)
        if len(hits) == 1:
            return next(iter(hits))
        if len(hits) > 1:
            raise CommandError(f"name {tok!r} is ambiguous: {sorted(hits)}")
        raise CommandError(f"unknown name {tok!r}")

    def node(self, tok: str) -> int:
        """`resolve`, for a node the net holds; UnknownNode for one it does not."""
        nid = self.resolve(tok)
        self.net.node(nid)
        return nid

    def bind(self, name: str, nid: int) -> None:
        self.symbols[_bindable(name)] = nid
        self._display_names = None
        self.lexicon.set_label(nid, "en", name)

    def display(self, nid: int) -> str:
        if self._display_names is None:
            self._display_names = {}
            for name in sorted(self.symbols):
                self._display_names.setdefault(self.symbols[name], name)
        name = self._display_names.get(nid)
        if name is not None:
            return name
        try:
            text, _ = self.lexicon.label_of(nid, "en")
            return text
        except NoLabel:
            return f"#{nid}"


def _bindable(name: str) -> str:
    """`name`, if a session can bind it; CommandError otherwise."""
    if not _NAME_RE.match(name):
        raise CommandError(f"bad name {name!r}")
    return name


def parse_value(tok: str, quoted: bool) -> Value:
    """The value a command token stands for; a quoted token is text."""
    if quoted:
        return Value.text(tok)
    if tok == "true":
        return Value.truth(True)
    if tok == "false":
        return Value.truth(False)
    if tok == "unset":
        return Value.unset()
    if tok.startswith("ref:"):   # an id as the store reads one
        try:
            return Value.ref(store._int(tok[4:], None))
        except FormatError:
            raise CommandError(f"bad reference {tok!r}; usage: ref:<id>") from None
    if reasoning._NUM_TOKEN.match(tok):
        return Value.num(float(tok))
    return Value.text(tok)


def render_value(v: Value | None) -> str:
    if v is None:
        return "-"
    if v.kind is KIND_NUM:
        if float(v.data).is_integer() and abs(v.data) < 1e15:
            return str(int(v.data))
        return repr(v.data)
    if v.kind is KIND_TEXT:
        return v.data
    if v.kind is KIND_BOOL:
        return "true" if v.data else "false"
    if v.kind is KIND_REF:
        return f"#{v.data}"
    if v.kind is KIND_SIGNAL:
        sig = v.data
        return f"signal({sig.origin.render()}, {len(sig.payload)}B)"
    return "unset"


def _piece(m: re.Match) -> str:
    i = m.lastindex
    return _ESCAPE_RE.sub(r"\1", m[i]) if i == 4 else m[i]


def split_words(text: str) -> tuple[list[str], list[str]]:
    """The words of a command as typed, and their tokens as
    shlex.split(text, posix=True) gives them; CommandError with shlex's
    message where shlex fails."""
    words, tokens = [], []
    for plain, quoted, fault in _WORD_RE.findall(text):
        if fault:
            # shlex fails at the end of the text: in an escape (one backslash
            # left over, outside quotes or in a double-quoted string) or in
            # a quoted string
            odd = fault[0] != "'" and (len(fault) - len(fault.rstrip("\\"))) % 2
            raise CommandError("cannot parse command: "
                               + ("No escaped character" if odd else "No closing quotation"))
        words.append(plain or quoted)
        tokens.append(plain or _PIECE_RE.sub(_piece, quoted))
    return words, tokens


def split_commands(line: str) -> list[str]:
    """Split on top-level semicolons; quotes and backslashes work as in shlex."""
    return [p.strip() for p in _COMMAND_RE.findall(line) if p.strip()]


def _quoted(word: str, keyed: bool) -> bool:
    """Whether a raw command word is one quoted string, or with `keyed`
    a plain key, `=` and one quoted string."""
    m = _QUOTED_RE.match(word)
    return m is not None and (m[1] is not None) == keyed


def _props_from_args(args: list[str], words: list[str]) -> list[tuple[str, Value]]:
    """The key=value arguments as properties; `words` are their raw words."""
    props = []
    for arg, word in zip(args, words):
        if "=" not in arg:
            raise CommandError(f"expected key=value, got {arg!r}")
        key, raw = arg.split("=", 1)
        props.append((key, parse_value(raw, _quoted(word, keyed=True))))
    return props


def _change_lines(session: Session, changes) -> list[str]:
    lines = []
    for ch in changes:
        verb = sim.classify_change(ch, table=session.verb_table)
        suffix = f" ({verb})" if verb else ""
        lines.append(
            f"{session.display(ch.node)}.{ch.name}: "
            f"{render_value(ch.before)} -> {render_value(ch.after)}{suffix}"
        )
    return lines or ["no changes"]


def _usage(verb: str, fault: str = "") -> CommandError:
    """The usage error of a verb, after what was wrong if that is given."""
    return CommandError(f"{fault}usage: {COMMANDS[verb][4]}")


def _paths(verb: str, args: list[str]) -> list[str]:
    """The args, each a path the file system can take; CommandError otherwise."""
    try:   # a NUL byte, or a character with no file-system encoding
        if any(b"\0" in os.fsencode(arg) for arg in args):
            raise ValueError("embedded null byte")
    except ValueError as exc:
        raise CommandError(f"{verb}: bad path: {exc}") from None
    return args


def _options(verb: str, args: list[str], options: dict) -> list[str]:
    """The args that are not `--flag value` pairs. Each flag's value, taken
    as the type of its default, replaces that default in `options`."""
    rest = []
    it = iter(args)
    for arg in it:
        if arg not in options:
            rest.append(arg)
            continue
        default = options[arg]
        try:
            options[arg] = type(default)(next(it))
        except (StopIteration, ValueError):
            needs = "an integer" if isinstance(default, int) else "a value"
            raise _usage(verb, f"{arg} needs {needs}; ") from None
    return rest


def _owner_prop(session: Session, verb: str, arg: str) -> tuple[int, str]:
    """The held node and the property name of an `<obj>.<prop>` word."""
    owner, dot, prop = arg.partition(".")
    if not dot:
        raise _usage(verb)
    return session.node(owner), prop


def _made(session: Session, verb: str, nid: int, name: str | None) -> list[str]:
    """The line for a node a verb made, bound to `name` first if one is given."""
    if name is None:
        return [f"{verb} #{nid}"]
    session.bind(name, nid)
    return [f"{verb} {name} #{nid}"]


# Each handler takes (session, verb, args, words, name): the words after the
# verb as tokens, less a trailing `as <name>` where the verb takes one, the
# same words as typed, and the `as` name or None. It calls the engine
# through module attributes looked up at each call (`sim.run_action`, ...),
# since the traced benchmark (`bench/tracing.py`) wraps those attributes.

def _do_new(session, _verb, _args, _words, _name):
    session.memo.keep(session.net, session.lexicon)
    session.reset()
    return ["new net"]


def _do_load(session, verb, args, _words, _name):
    # the session lets its net go first, so that a load of the bytes it
    # holds takes it back; a failed load gives it back as it was
    path = _paths(verb, args)[0]
    session.memo.keep(session.net, session.lexicon)
    try:
        net, lexicon = store.load(path, session.memo)
    except BaseException:
        session.memo.release(session.net)
        raise
    session.reset()
    session.net = net
    session.lexicon = lexicon
    return [f"loaded {len(net.objects)} objects, {len(net.actions)} actions"]


def _do_save(session, verb, args, _words, _name):
    store.save(session.net, session.lexicon, _paths(verb, args)[0])
    return [f"saved {args[0]}"]


def _do_obj(session, verb, args, words, _name):
    _bindable(args[0])   # before the net changes
    nid = session.net.add_object(_props_from_args(args[1:], words[1:]))
    return _made(session, verb, nid, args[0])


def _do_act(session, verb, args, words, name):
    subject = None if args[0] == "-" else session.node(args[0])
    target = session.node(args[1])
    script = None
    props = []
    for arg, word in zip(args[2:], words[2:]):
        if arg.startswith("script="):
            script = arg[len("script="):]
        else:
            props.extend(_props_from_args([arg], [word]))
    return _made(session, verb, session.net.add_action(subject, target, script, props), name)


def _do_set(session, verb, args, words, _name):
    nid, prop = _owner_prop(session, verb, args[0])
    value = parse_value(args[1], _quoted(words[1], keyed=False))
    session.net.set_property(nid, prop, value)
    return [f"{session.display(nid)}.{prop} = {render_value(value)}"]


def _do_show(session, verb, args, _words, _name):
    nid, prop = _owner_prop(session, verb, args[0])
    return [render_value(session.net.get_property(nid, prop))]


def _do_run(session, _verb, args, _words, _name):
    changes = sim.run_action(session.net, session.node(args[0]))
    return _change_lines(session, changes)


def _do_runs(session, _verb, args, _words, _name):
    results = sim.run_pending(session.net, [session.node(a) for a in args])
    lines = []
    for changes in results:
        lines.extend(_change_lines(session, changes) if changes else [])
    return lines or ["no changes"]


def _do_snap(session, _verb, _args, _words, _name):
    snap = sim.snapshot(session.net)
    return [f"snapshot {snap.tick}"]


def _do_diff(session, verb, args, _words, _name):
    try:
        first, second = map(int, args)
    except ValueError:   # not integers
        raise _usage(verb) from None
    tl = session.net.timeline    # a query attaches no timeline
    if tl is None:
        raise KrnError(f"no snapshot at tick {first}")
    return _change_lines(session, sim.diff(tl.by_tick(first), tl.by_tick(second)))


def _do_collapse(session, verb, args, _words, name):
    inside = {session.node(a) for a in args}
    collapse = (reasoning.collapse_to_object if verb == "collapse-obj"
                else reasoning.collapse_to_action)
    return _made(session, verb, collapse(session.net, inside), name)


def _do_expand(session, _verb, args, _words, _name):
    nid = session.node(args[0])
    created = reasoning.expand(session.net, nid)
    return [f"expanded #{nid}: {len(created)} nodes"]


def _do_mine(session, verb, args, _words, _name):
    options = {"--min-support": 2, "--max-nodes": 4}
    paths = _options(verb, _paths(verb, args), options)
    if not paths:
        raise _usage(verb)
    if options["--min-support"] < 2 or not 1 <= options["--max-nodes"] <= 8:
        raise _usage(verb, "--min-support must be at least 2, --max-nodes 1 to 8; ")
    loaded = [store.load(path, session.memo) for path in paths]
    templates = reasoning.mine_concepts([net for net, _ in loaded], options["--min-support"],
                                        options["--max-nodes"])
    for net, lexicon in loaded:   # mining changes no net it reads
        session.memo.keep(net, lexicon)
    return [f"template {i}: support {t.support}, {len(t.pattern.node_ids())} nodes"
            for i, t in enumerate(templates, start=1)] or ["no templates"]


def _do_isa(session, _verb, args, _words, _name):
    inst = session.node(args[0])
    concept = session.node(args[1])
    session.net.add_isa(inst, concept)
    return [f"isa #{inst} #{concept}"]


def _do_shape(session, _verb, args, _words, _name):
    created, error = reasoning.shape_all(session.net, session.node(args[0]))
    if error is not None:
        raise error
    return [f"shaped {args[0]}: {len(created)} new nodes"]


def _do_has(session, _verb, args, _words, _name):
    answer = reasoning.query_has(session.net, session.node(args[0]), " ".join(args[1:]))
    return [ANSWER_TEXT[answer]]


def _do_label(session, _verb, args, _words, _name):
    nid = session.node(args[0])
    session.lexicon.set_label(nid, args[1], args[2])
    return [f"label #{nid} {args[1]} {args[2]}"]


def _do_say(session, verb, args, _words, _name):
    options = {"--lang": "en"}
    rest = _options(verb, args, options)
    if len(rest) != 1:
        raise _usage(verb)
    # a label outlives a collapse, so the node need not be held
    text, used = session.lexicon.label_of(session.resolve(rest[0]), options["--lang"])
    return [f"{text} ({used})"]


def _do_goal(session, verb, args, _words, _name):
    anchor_tok, dot, first = args[0].partition(".")
    source = " ".join([first, *args[1:]] if dot else args[1:])
    if not source:
        raise _usage(verb)
    anchor = session.node(anchor_tok)
    if session.model is None:
        session.model = agent.SelfModel(session.net)
    gid = agent.define_goal(session.model, verb, anchor, source)
    return [f"{verb} {gid}"]


def _do_goals(session, _verb, _args, _words, _name):
    if session.model is None or not session.model.goals:
        return ["no goals"]
    statuses = dict(agent.evaluate_goals(session.model, session.net))
    return [f"goal {goal.id} ({goal.polarity}): {statuses[goal.id]}"
            for goal in session.model.goals]


def _do_compare(session, _verb, _args, _words, _name):
    if session.model is None:
        return ["no discrepancies"]
    tl = session.net.timeline
    predicted = None if tl is None else tl.latest()
    if predicted is None:
        return ["no snapshots"]
    sensed = agent.reality_snapshot(session.model)
    changes = agent.compare_with_reality(session.model, predicted, sensed)
    if not changes:
        return ["no discrepancies"]
    return _change_lines(session, changes)


def _do_validate(session, _verb, _args, _words, _name):
    report = session.net.validate_bipartite()
    return [f"{v.kind} {' '.join(f'#{n}' for n in v.nodes)}: {v.detail}"
            for v in report.violations] or ["ok"]


_MANY = sys.maxsize   # no upper bound on a verb's words

# verb -> (handler, fewest words, most words, takes `as <name>`, usage)
COMMANDS = {
    "new": (_do_new, 0, 0, False, "new"),
    "load": (_do_load, 1, 1, False, "load <path>"),
    "save": (_do_save, 1, 1, False, "save <path>"),
    "obj": (_do_obj, 1, _MANY, False, "obj <name> [k=v ...]"),
    "act": (_do_act, 2, _MANY, True,
            "act <subject|-> <target> [script='...'] [k=v ...] [as <name>]"),
    "set": (_do_set, 2, 2, False, "set <obj>.<prop> <value>"),
    "show": (_do_show, 1, 1, False, "show <obj>.<prop>"),
    "run": (_do_run, 1, 1, False, "run <action>"),
    "runs": (_do_runs, 1, _MANY, False, "runs <a1> <a2> ..."),
    "snap": (_do_snap, 0, 0, False, "snap"),
    "diff": (_do_diff, 2, 2, False, "diff <tick1> <tick2>"),
    "collapse-obj": (_do_collapse, 1, _MANY, True, "collapse-obj <ids...> [as <name>]"),
    "collapse-act": (_do_collapse, 1, _MANY, True, "collapse-act <ids...> [as <name>]"),
    "expand": (_do_expand, 1, 1, False, "expand <id>"),
    "mine": (_do_mine, 1, _MANY, False, "mine [--min-support N] [--max-nodes K] <paths...>"),
    "isa": (_do_isa, 2, 2, False, "isa <instance> <concept>"),
    "shape": (_do_shape, 1, 1, False, "shape <instance>"),
    "has": (_do_has, 2, _MANY, False, "has <instance> <fragment>"),
    "label": (_do_label, 3, 3, False, "label <node> <lang> <text>"),
    "say": (_do_say, 1, _MANY, False, "say <node> [--lang L]"),
    "goal": (_do_goal, 1, _MANY, False, "goal <node>.<condition> | goal <node> has <name>"),
    "antigoal": (_do_goal, 1, _MANY, False,
                 "antigoal <node>.<condition> | antigoal <node> has <name>"),
    "goals": (_do_goals, 0, 0, False, "goals"),
    "compare": (_do_compare, 0, 0, False, "compare"),
    "validate": (_do_validate, 0, 0, False, "validate"),
}


def run_command(session: Session, text: str) -> list[str]:
    """Execute one command and return its rendered output lines."""
    words, tokens = split_words(text)
    if not tokens:
        return []
    verb, args = tokens[0], tokens[1:]
    command = COMMANDS.get(verb)
    if command is None:
        raise CommandError(f"unknown command {verb!r}")
    handler, fewest, most, takes_as, _ = command
    name = None
    if takes_as and len(args) >= 2 and args[-2] == "as":
        args, name = args[:-2], _bindable(args[-1])
    if not fewest <= len(args) <= most:
        raise _usage(verb)
    return handler(session, verb, args, words[1:], name)


def _run(session: Session, lines, out, *, keep_going: bool) -> int:
    """Run each line's commands, printing output or the error; the exit status.

    Batch mode stops at the first error; the REPL keeps going.
    """
    status = 0
    for line in lines:
        for command in split_commands(line):
            if command.startswith("#"):
                break
            try:
                for rendered in run_command(session, command):
                    print(rendered, file=out)
            except (KrnError, OSError) as exc:
                status = _failed(exc, out)
                if not keep_going:
                    return status
    return status


def _failed(exc: Exception, out) -> int:
    """Print one error line for a failed command or input; the exit status."""
    print(f"error: {type(exc).__name__}: {exc}", file=out)
    return 1


def run_lines(lines, out=None) -> int:
    """Interpret lines in a fresh session; returns the exit status. A
    verb table the session cannot read (`KRN_VERB_TABLE`) is an error line."""
    out = sys.stdout if out is None else out
    try:
        session = Session()
    except (KrnError, OSError) as exc:
        return _failed(exc, out)
    return _run(session, lines, out, keep_going=False)


def _repl(session: Session) -> int:
    def prompted():
        while True:
            try:
                yield input("krn> ")
            except (EOFError, KeyboardInterrupt):
                print()
                return

    return _run(session, prompted(), sys.stdout, keep_going=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="krn",
        description="Bipartite object/action knowledge net engine.",
    )
    parser.add_argument("script", nargs="?",
                        help="command file to run ('-' for stdin); REPL if omitted on a tty")
    args = parser.parse_args(argv)

    lines = None   # the REPL reads its lines as they are typed
    try:   # a command file is read whole: an unreadable one fails before any command runs
        if args.script and args.script != "-":
            with open(args.script, encoding="utf-8") as fh:
                lines = fh.readlines()
        elif args.script == "-" or not sys.stdin.isatty():
            lines = sys.stdin.readlines()
        session = Session()
    except (KrnError, OSError, UnicodeDecodeError) as exc:
        return _failed(exc, sys.stdout)
    if lines is None:
        return _repl(session)
    return _run(session, lines, sys.stdout, keep_going=False)


if __name__ == "__main__":
    raise SystemExit(main())
