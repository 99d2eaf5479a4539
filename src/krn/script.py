"""The internal action-script language and its tree-walking interpreter.

An action's behaviour is a short, loop-free list of property changes:

    script  := { stmt }
    stmt    := "set" lvalue "=" expr ";"
             | "unset" lvalue ";"
             | "if" expr "{" { stmt } "}" [ "else" "{" { stmt } "}" ]
    lvalue  := role "." ident
    role    := "subject" | "object" | "self"
    expr    := or_expr
    or_expr := and_expr { "or" and_expr }
    and_expr:= cmp { "and" cmp }
    cmp     := add [ ("=="|"!="|"<"|">"|"<="|">=") add ]
    add     := mul { ("+"|"-") mul }
    mul     := unary { ("*"|"/") unary }
    unary   := [ "not" | "-" ] atom
    atom    := number | string | "true" | "false" | lvalue | "(" expr ")"
    ident   := [a-z][a-z0-9_-]*        (never a keyword)
    number  := [0-9]+ [ "." [0-9]+ ]
    string  := '"' { escape | any character but '"', '\\' or newline } '"'
    escape  := '\\n' | '\\t' | '\\\\' | '\\"'

Comments run from `#` to end of line; spaces, tabs and carriage returns
are insignificant and count one column each. Note that `-` is an
identifier character, so `object.x-1` names the property "x-1"; write
`object.x - 1` to subtract. `1.` is the number 1 and a dot.

Execution mutates the live net statement by statement and returns the
list of effective changes, which doubles as a complete undo log.
`and`/`or` evaluate the left operand first and short-circuit.
"""

from __future__ import annotations

import enum
import operator
import re
from dataclasses import dataclass, field

from .core import (
    ASSERTED,
    KIND_BOOL,
    KIND_NUM,
    ORDERINGS,
    PROP_HYDRATED,
    PROP_STUB,
    ChangeSet,
    Net,
    NodeId,
    PropertyChange,
    Value,
    values_equal,
)
from .errors import (
    BudgetExhausted,
    DivisionByZero,
    ScriptParseError,
    TypeMismatch,
    UnboundRole,
    UnknownNode,
    UnknownProperty,
)

MAX_SOURCE_BYTES = 64 * 1024
# How many characters of source the parse memo holds, summed over its
# texts; at the bound it is emptied whole. Room for 16 scripts of the
# largest size, or tens of thousands of typical one-liners.
MAX_MEMO_CHARS = 1024 * 1024
# How deep parentheses, unary operators, if blocks and chains of binary
# operators may nest, together. It bounds the parser's recursion and the
# depth of the tree that `execute` walks.
MAX_NESTING = 64


class Role(enum.Enum):
    SUBJECT = "subject"
    OBJECT = "object"
    SELF = "self"


# bound once, as core binds its members: the interpreter reads them per statement
ROLE_SUBJECT, ROLE_OBJECT = Role.SUBJECT, Role.OBJECT


# ---------------------------------------------------------------- ast

@dataclass(frozen=True)
class LValue:
    role: Role
    name: str


@dataclass(frozen=True)
class Literal:
    value: Value


@dataclass(frozen=True)
class Read:
    lvalue: LValue


def _depth(ex) -> int:
    return getattr(ex, "depth", 0)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + _depth(self.operand))


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", 1 + max(_depth(self.left), _depth(self.right)))


@dataclass(frozen=True)
class SetStmt:
    lvalue: LValue
    expr: object


@dataclass(frozen=True)
class UnsetStmt:
    lvalue: LValue


@dataclass(frozen=True)
class IfStmt:
    cond: object
    then: tuple
    otherwise: tuple


@dataclass(frozen=True)
class Ast:
    statements: tuple


# ---------------------------------------------------------------- lexer

_KEYWORDS = {
    "set", "unset", "if", "else", "or", "and", "not",
    "true", "false", "subject", "object", "self",
}
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}

# One named group per token class, then any other character and the end,
# so the matches tile the source; blanks before a token count only toward
# its column, and a comment yields no token. A final comment is part of
# eof, which so stands at its '#'. An unclosed string stops at the
# newline, the end or the backslash of a bad escape.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<word>[a-z][a-z0-9_-]*)
  | (?P<op>[=!<>]=|[-=<>+*/;.{}()])
  | (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<newline>\n)
  | (?P<string>"(?P<body>(?:[^"\\\n]|\\[nt\\"])*)(?P<closed>"?))
  | (?P<eof>(?:\#[^\n]*)?\Z)
  | (?P<comment>\#[^\n]*)
  | (?P<bad>.)
)""", re.VERBOSE)


@dataclass(slots=True)
class Token:
    type: str     # keyword text, operator text, or ident/number/string/eof
    value: object
    line: int
    column: int


def _lex(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        col = m.end() - len(text) - line_start + 1
        if kind == "word":
            tokens.append(Token(text if text in _KEYWORDS else "ident", text, line, col))
        elif kind == "op":
            tokens.append(Token(text, text, line, col))
        elif kind == "number":
            tokens.append(Token("number", float(text), line, col))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "string":
            if not m["closed"]:
                if src.startswith("\\", m.end()):
                    raise ScriptParseError("bad escape in string", line, col)
                raise ScriptParseError("unterminated string", line, col, '"')
            body = m["body"]
            if "\\" in body:
                body = re.sub(r"\\(.)", lambda e: _ESCAPES[e[1]], body)
            tokens.append(Token("string", body, line, col))
        elif kind == "eof":
            tokens.append(Token("eof", None, line, col))
            return tokens
        elif kind == "bad":
            raise ScriptParseError(f"unexpected character {text!r}", line, col)


# ---------------------------------------------------------------- parser

# binary operators by level, the loosest binding first
_LEVELS = (("or",), ("and",), ("==", "!=", "<", ">", "<=", ">="), ("+", "-"), ("*", "/"))
_COMPARISONS = 2


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0   # parens, unary operators and if blocks around the current token

    def nest(self, tok: Token, depth: int = 1) -> None:
        """Refuse a construct `depth` levels below what is open around tok."""
        if self.open + depth > MAX_NESTING:
            raise ScriptParseError(f"nesting deeper than {MAX_NESTING}", tok.line, tok.column)

    def enter(self) -> Token:
        """Consume the opener of a paren, unary operator or if block."""
        self.nest(self.peek())
        self.open += 1
        return self.advance()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def accept(self, ttype: str) -> Token | None:
        if self.peek().type == ttype:
            return self.advance()
        return None

    def expect(self, ttype: str) -> Token:
        tok = self.peek()
        if tok.type != ttype:
            raise ScriptParseError(
                f"expected {ttype!r}, found {tok.type!r}", tok.line, tok.column, ttype
            )
        return self.advance()

    def script(self) -> Ast:
        stmts = []
        while self.peek().type != "eof":
            stmts.append(self.statement())
        return Ast(tuple(stmts))

    def statement(self):
        tok = self.peek()
        if tok.type == "set":
            self.advance()
            lv = self.lvalue()
            self.expect("=")
            ex = self.expression()
            self.expect(";")
            return SetStmt(lv, ex)
        if tok.type == "unset":
            self.advance()
            lv = self.lvalue()
            self.expect(";")
            return UnsetStmt(lv)
        if tok.type == "if":
            self.enter()
            cond = self.expression()
            then = self.block()
            otherwise: tuple = ()
            if self.accept("else"):
                otherwise = self.block()
            self.open -= 1
            return IfStmt(cond, then, otherwise)
        raise ScriptParseError(
            f"expected statement, found {tok.type!r}", tok.line, tok.column, "set|unset|if"
        )

    def block(self) -> tuple:
        self.expect("{")
        stmts = []
        while self.peek().type != "}":
            if self.peek().type == "eof":
                tok = self.peek()
                raise ScriptParseError("unterminated block", tok.line, tok.column, "}")
            stmts.append(self.statement())
        self.expect("}")
        return tuple(stmts)

    def lvalue(self) -> LValue:
        tok = self.peek()
        if tok.type not in ("subject", "object", "self"):
            raise ScriptParseError(
                f"expected role, found {tok.type!r}", tok.line, tok.column,
                "subject|object|self",
            )
        self.advance()
        self.expect(".")
        name = self.expect("ident")
        return LValue(Role(tok.type), name.value)

    def expression(self, level: int = 0):
        """An expression whose binary operators bind at least as tightly as
        those of _LEVELS[level]; all but comparisons associate to the left."""
        if level == len(_LEVELS):
            return self.unary()
        left = self.expression(level + 1)
        while self.peek().type in _LEVELS[level]:
            tok = self.advance()
            left = Binary(tok.type, left, self.expression(level + 1))
            self.nest(tok, left.depth)
            if level == _COMPARISONS:   # comparisons do not chain
                break
        return left

    def unary(self):
        tok = self.peek()
        if tok.type in ("not", "-"):
            self.enter()
            operand = self.unary()
            self.open -= 1
            return Unary(tok.type, operand)
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.type == "number":
            self.advance()
            return Literal(Value.num(tok.value))
        if tok.type == "string":
            self.advance()
            return Literal(Value.text(tok.value))
        if tok.type == "true":
            self.advance()
            return Literal(Value.truth(True))
        if tok.type == "false":
            self.advance()
            return Literal(Value.truth(False))
        if tok.type in ("subject", "object", "self"):
            return Read(self.lvalue())
        if tok.type == "(":
            self.enter()
            ex = self.expression()
            self.open -= 1
            self.expect(")")
            return ex
        raise ScriptParseError(
            f"expected expression, found {tok.type!r}", tok.line, tok.column, "atom"
        )


# source text -> its Ast, shared by every caller; see `parse`
_memo: dict[str, Ast] = {}
_memo_chars = 0


def clear_parse_memo() -> None:
    """Forget every parse; the next parse of each text starts afresh."""
    global _memo_chars
    _memo.clear()
    _memo_chars = 0


def parse(source: str) -> Ast:
    """Parse script source into an Ast, reporting positions on failure.

    Parses are memoised by source text for the whole process: a repeat
    returns the very same Ast, which is safe to share because every AST
    node (and every Value a Literal holds) is frozen. So every action,
    net and load with equal text shares one Ast. The memo holds at most
    MAX_MEMO_CHARS characters of source and is emptied whole when one
    more text would pass that. A failed parse is never stored: a bad
    script raises the same ScriptParseError on every call.
    """
    global _memo_chars
    ast = _memo.get(source)
    if ast is not None:
        return ast
    try:
        size = len(source.encode("utf-8"))
    except UnicodeEncodeError as exc:   # a lone surrogate has no UTF-8 form
        line = source.count("\n", 0, exc.start) + 1
        raise ScriptParseError("character has no UTF-8 encoding", line,
                               exc.start - source.rfind("\n", 0, exc.start)) from None
    if size > MAX_SOURCE_BYTES:
        raise ScriptParseError("script exceeds 64 KiB", 1, 1)
    ast = _Parser(_lex(source)).script()
    if _memo_chars + len(source) > MAX_MEMO_CHARS:
        clear_parse_memo()
    _memo[source] = ast
    _memo_chars += len(source)
    return ast


# ---------------------------------------------------------------- interpreter

@dataclass
class ExecContext:
    """Bindings for one execution: the net, the action's endpoints, a budget."""

    net: Net
    target: NodeId
    subject: NodeId | None = None
    self_node: NodeId | None = None
    step_budget: int = 10_000


def execute(ast: Ast, ctx: ExecContext) -> ChangeSet:
    """Run statements in order against the live net.

    Returns every effective change with before and after values; no-op
    writes are filtered out and not recorded. Deterministic for a fixed
    net, ast, and bindings.
    """
    if ctx.step_budget < 1:
        raise ValueError("step_budget must be positive")
    net = ctx.net
    if ctx.target not in net.objects:
        raise UnknownNode(f"target {ctx.target} is not a live object")
    changes: ChangeSet = []
    budget = [ctx.step_budget]
    net._executing = True
    try:
        _run_block(ast.statements, ctx, budget, changes)
    finally:
        net._executing = False
    return changes


def _run_block(stmts, ctx, budget, changes) -> None:
    for st in stmts:
        if budget[0] <= 0:
            raise BudgetExhausted(f"step budget of {ctx.step_budget} exhausted")
        budget[0] -= 1
        if isinstance(st, SetStmt):
            _do_set(st, ctx, changes)
        elif isinstance(st, UnsetStmt):
            _do_unset(st, ctx, changes)
        elif isinstance(st, IfStmt):
            cond = _eval(st.cond, ctx)
            if cond.kind is not KIND_BOOL:
                raise TypeMismatch(f"if condition is {cond.kind.value}, not bool")
            _run_block(st.then if cond.data else st.otherwise, ctx, budget, changes)
        else:
            raise TypeMismatch(f"unknown statement {st!r}")


def _do_set(st: SetStmt, ctx: ExecContext, changes: ChangeSet) -> None:
    value = _eval(st.expr, ctx)
    nid = _resolve(st.lvalue.role, ctx)
    rec = ctx.net.node(nid)
    prop = rec.properties.get(st.lvalue.name)
    before = prop.value if prop is not None and prop.load_state is PROP_HYDRATED else None
    if before is not None and before == value:
        return
    ctx.net.set_property(nid, st.lvalue.name, value, ASSERTED)
    changes.append(PropertyChange(nid, st.lvalue.name, before, value, prop))


def _do_unset(st: UnsetStmt, ctx: ExecContext, changes: ChangeSet) -> None:
    nid = _resolve(st.lvalue.role, ctx)
    rec = ctx.net.node(nid)
    prop = rec.properties.get(st.lvalue.name)
    if prop is None:
        raise UnknownProperty(f"unset of missing property {st.lvalue.name!r} on {nid}")
    before = prop.value if prop.load_state is PROP_HYDRATED else None
    ctx.net.erase_property(nid, st.lvalue.name)
    changes.append(PropertyChange(nid, st.lvalue.name, before, None, prop))


def _resolve(role: Role, ctx: ExecContext) -> NodeId:
    if role is ROLE_OBJECT:
        return ctx.target
    if role is ROLE_SUBJECT:
        if ctx.subject is None:
            raise UnboundRole("script uses subject but no subject is bound")
        return ctx.subject
    if ctx.self_node is None:
        raise UnboundRole("script uses self but no self is bound")
    return ctx.self_node


def _eval(ex, ctx: ExecContext) -> Value:
    if isinstance(ex, Literal):
        return ex.value
    if isinstance(ex, Read):
        nid = _resolve(ex.lvalue.role, ctx)
        rec = ctx.net.node(nid)
        prop = rec.properties.get(ex.lvalue.name)
        if prop is None or prop.load_state is PROP_STUB:
            raise UnknownProperty(
                f"read of missing property {ex.lvalue.name!r} on node {nid}"
            )
        return prop.value
    if isinstance(ex, Unary):
        val = _eval(ex.operand, ctx)
        if ex.op == "-":
            if val.kind is not KIND_NUM:
                raise TypeMismatch(f"cannot negate {val.kind.value}")
            return Value.num(-val.data)
        if val.kind is not KIND_BOOL:
            raise TypeMismatch(f"cannot apply not to {val.kind.value}")
        return Value.truth(not val.data)
    if isinstance(ex, Binary):
        return _eval_binary(ex, ctx)
    raise TypeMismatch(f"unknown expression {ex!r}")


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval_binary(ex: Binary, ctx: ExecContext) -> Value:
    op = ex.op
    if op in ("and", "or"):
        left = _eval(ex.left, ctx)
        if left.kind is not KIND_BOOL:
            raise TypeMismatch(f"{op} needs bool operands, got {left.kind.value}")
        if op == "and" and not left.data:
            return Value.truth(False)
        if op == "or" and left.data:
            return Value.truth(True)
        right = _eval(ex.right, ctx)
        if right.kind is not KIND_BOOL:
            raise TypeMismatch(f"{op} needs bool operands, got {right.kind.value}")
        return Value.truth(bool(right.data))
    left = _eval(ex.left, ctx)
    right = _eval(ex.right, ctx)
    if op == "==":
        return Value.truth(values_equal(left, right))
    if op == "!=":
        return Value.truth(not values_equal(left, right))
    if left.kind is not KIND_NUM or right.kind is not KIND_NUM:
        what = "ordering" if op in ORDERINGS else "arithmetic"
        raise TypeMismatch(f"{what} needs numbers, got {left.kind.value} {op} {right.kind.value}")
    if op in ORDERINGS:
        return Value.truth(ORDERINGS[op](left.data, right.data))
    if op == "/" and right.data == 0.0:
        raise DivisionByZero("division by zero")
    if op not in _ARITHMETIC:
        raise TypeMismatch(f"unknown operator {op!r}")
    return Value.num(_ARITHMETIC[op](left.data, right.data))


def apply_undo(net: Net, changes: ChangeSet) -> None:
    """Put back the replaced records in reverse order, restoring the pre-run net.

    A stubbed property comes back as the same stub, still backed by the
    store.
    """
    for ch in reversed(changes):
        net.restore_property(ch.node, ch.name, ch.replaced)
