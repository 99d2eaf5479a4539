"""No debris in `src/krn`: every import is used, every module-level
private def or constant is named somewhere in the package, every
private attribute assigned is read, and every parameter is read by its
function. No module but `core.py` stores into a net's object or action
table or reads an enum member off its class in a function body, no
module but `lexicon.py` reads a lexicon's reverse index, no record a
load may share is changed in place, inside `store.StoreHandle` only
`_held` looks a node up in a net, only `store.ValueMemo`'s own methods
touch its table, only `Net.note`, `Net.touch`, `store._build` and
`store._rebase` write a net's block table and to-encode set, only `load`
and the two `StoreHandle` readers call `store._read`, and every CLI load
passes the session's memo. Every function `krn` exports is named
by the engine or the benchmark, or is on a short list of API kept for
callers. No pattern needs a newer Python than the package allows. A
nested function that calls itself is dropped in a `finally` of the
function that defines it. The README's command summary names exactly the
verbs the CLI dispatches on."""

import ast
import importlib
import inspect
import re
import tomllib
from pathlib import Path

import krn
from krn import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "krn"


def _trees():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    return {module: (source, ast.parse(source)) for module, source in sources.items()}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (elt.value for elt in node.value.elts)


def _names_used(tree) -> set[str]:
    """Every name a module reads: plain names, attributes, names inside
    quoted annotations and the entries of `__all__`."""
    used = set(_exported(tree))
    quoted = [ast.parse(node.value, mode="eval")
              for annotation in _annotations(tree) if annotation is not None
              for node in ast.walk(annotation)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for node in (n for root in [tree, *quoted] for n in ast.walk(root)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_import_is_used():
    unused = []
    for module, (source, tree) in _trees().items():
        lines = source.splitlines()
        used = _names_used(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}:{node.lineno} {bound}")
    assert not unused, unused


def _private_top_level(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def test_every_private_module_name_is_used():
    trees = _trees()
    # named anywhere in the package, a docstring included, besides its definition
    text = "\n".join(source for source, _ in trees.values())
    unused = [f"{module}:{line} {name}"
              for module, (_, tree) in trees.items()
              for line, name in _private_top_level(tree)
              if name.startswith("_") and not name.startswith("__")
              and len(re.findall(rf"(?<!\w){name}(?!\w)", text)) < 2]
    assert not unused, unused


def test_every_private_attribute_is_read():
    """A `_`-prefixed attribute assigned anywhere in the package is read
    somewhere in it; an augmented assignment is not a read."""
    assigned, read = {}, set()
    for module, (_, tree) in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.ctx, ast.Store):
                    assigned.setdefault(node.attr, f"{module}:{node.lineno}")
    unread = [f"{where} {name}" for name, where in sorted(assigned.items()) if name not in read]
    assert not unread, unread


def test_only_core_stores_into_a_node_table():
    """A new record enters a net through `Net.insert`, which wires an
    action into its endpoints' lists and moves `next_id` past the id, so
    no module but `core.py` writes `<expr>.objects[...]` or
    `<expr>.actions[...]`. `store._build` fills its fresh net's tables
    through local names, which this rule does not see."""
    stores = [f"{module}:{node.lineno}"
              for module, (_, tree) in _trees().items() if module != "core.py"
              for node in ast.walk(tree)
              if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in ("objects", "actions")]
    assert not stores, stores


def test_a_store_handle_looks_nodes_up_through_one_resolver():
    """`StoreHandle._held` is the one place a store handle finds a node in
    a net: it refuses an id the file lacks, a kind clash and a collapsed
    node. No other method of the class reads `<expr>.objects`,
    `<expr>.actions` or `<expr>.node`, the last as in `net.node(nid)`."""
    tree = _trees()["store.py"][1]
    handle = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "StoreHandle")
    lookups = [f"store.py:{node.lineno} {method.name}"
               for method in handle.body
               if isinstance(method, ast.FunctionDef) and method.name != "_held"
               for node in ast.walk(method)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
               and node.attr in ("objects", "actions", "node")]
    assert not lookups, lookups


def test_only_the_lexicon_reads_its_reverse_index():
    """`Lexicon.reverse` is laid out for `set_label` and the two lookups,
    so no module but `lexicon.py` reads `<expr>.reverse`: the others ask
    `lookup` or `lookup_any`. A list's `.reverse()` call is not a read."""
    reads = []
    for module, (_, tree) in _trees().items():
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        reads += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if module != "lexicon.py" and isinstance(node, ast.Attribute)
                  and node.attr == "reverse" and id(node) not in called]
    assert not reads, reads


def test_only_the_value_memo_touches_its_table():
    """`store.ValueMemo` keeps the nets let go into it and what they are
    charged in its slots, so no code in the package but the class's own
    methods reads or writes an attribute of a slot's name (`<expr>.nets`,
    `<expr>.size`): an owner hands it a net through `keep` or `release`,
    and `load` takes one back through `take`."""
    trees = _trees()
    memo = next(node for node in trees["store.py"][1].body
                if isinstance(node, ast.ClassDef) and node.name == "ValueMemo")
    slots = next(ast.literal_eval(node.value) for node in memo.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets))
    own = {id(node) for node in ast.walk(memo)}
    pokes = [f"{module}:{node.lineno} .{node.attr}"
             for module, (_, tree) in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in slots and id(node) not in own]
    assert slots and not pokes, pokes


def _table_writes(func, tables: set[str]) -> list:
    """The nodes in `func` that write a table named in `tables`, read off
    any object (`<expr>.blocks`) or through a local name bound to one:
    an assignment of the attribute, a store or delete of an item, an
    augmented assignment of the name, and a call of a method that changes
    a dict or a set."""
    aliases = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                aliases.update(t.id for t, v in pairs if isinstance(t, ast.Name)
                               and isinstance(v, ast.Attribute) and v.attr in tables)

    def table(expr) -> bool:
        return (isinstance(expr, ast.Attribute) and expr.attr in tables
                or isinstance(expr, ast.Name) and expr.id in aliases)

    writes = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr in tables and not isinstance(node.ctx, ast.Load):
            writes.append(node)
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) and table(node.value):
            writes.append(node)
        elif isinstance(node, ast.AugAssign) and table(node.target):
            writes.append(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("pop", "popitem", "clear", "update", "setdefault", "add", "discard",
                                     "remove", "difference_update", "intersection_update",
                                     "symmetric_difference_update")
              and table(node.func.value)):
            writes.append(node)
    return writes


def test_only_note_touch_build_and_rebase_write_the_block_tables():
    """A net's block table and to-encode set (`Net.blocks`, `Net.dirty`)
    say which blocks of its source a save copies and which nodes it
    encodes. Only `Net.note` and `Net.touch` put a node in the set, only
    `store._build` and `store._rebase` fill them from a source, and
    `Net.__init__` starts them: no other function in the package writes
    either (`_table_writes`), and no code outside a function does."""
    allowed = {("core.py", "__init__"), ("core.py", "note"), ("core.py", "touch"),
               ("store.py", "_build"), ("store.py", "_rebase")}
    tables = {"blocks", "dirty"}
    def outside_functions(body):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                yield from outside_functions(stmt.body)
            elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt

    writes = []
    for module, (_, tree) in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and (module, func.name) not in allowed:
                writes += [f"{module}:{node.lineno} in {func.name}" for node in _table_writes(func, tables)]
        writes += [f"{module}:{node.lineno}" for stmt in outside_functions(tree.body)
                   for node in _table_writes(stmt, tables)]
    assert not writes, writes


def test_every_cli_load_goes_through_the_session_memo():
    """Each `store.load` call in `cli.py` passes the session's memo
    (`session.memo`), so that no verb reads a file whose net the session
    let go, and each verb that drops the session's net or nets it loaded
    (`new`, `load`, `mine`) lets them go into it (`session.memo.keep`)."""
    tree = _trees()["cli.py"][1]

    def calls(root, attr, owner):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr == attr
                and ast.unparse(node.func.value) == owner]

    loads = calls(tree, "load", "store")
    bypass = [f"cli.py:{call.lineno} store.load" for call in loads
              if "session.memo" not in map(ast.unparse, [*call.args, *(kw.value for kw in call.keywords)])]
    assert loads and not bypass, bypass
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert all(calls(handlers[name], "keep", "session.memo") for name in ("_do_new", "_do_load", "_do_mine"))


# the fields of PropertyRecord and ScriptRef; a load shares one record
# among equal PROP lines and one ScriptRef among equal script bodies
_SHARED_FIELDS = {"value", "provenance", "load_state", "from_store", "text", "ast"}


def test_no_module_changes_a_shared_record_in_place():
    """A write, hydrate, evict or undo installs a fresh record, so no module
    stores to or deletes `<expr>.value`, `.provenance`, `.load_state`,
    `.from_store`, `.text` or `.ast`; `ScriptRef.__post_init__` alone
    sets the text of the record it is building."""
    stores = []
    for module, (_, tree) in _trees().items():
        exempt = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "ScriptRef"
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                  for node in ast.walk(fn)}
        stores += [f"{module}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in _SHARED_FIELDS
                   and isinstance(node.ctx, (ast.Store, ast.Del)) and id(node) not in exempt]
    assert not stores, stores


_ENUMS = {"Kind", "Provenance", "PropLoad", "NodeLoad", "Role"}


def test_function_bodies_read_enum_members_through_bound_names():
    """On Python 3.11 reading a member off its enum class (`Kind.NUM`) is a
    Python-level call, so outside `core.py` no function body does: it reads
    the names core and script bind once (`KIND_NUM`, `INFERRED`,
    `ROLE_SUBJECT`). Defaults and annotations are evaluated once, and exempt."""
    reads = []
    for module, (_, tree) in _trees().items():
        if module == "core.py":
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            # a nested function's defaults, and every annotation in the body
            exempt = {id(node) for root in body
                      for part in [*_annotations(root),
                                   *(d for inner in ast.walk(root) if isinstance(inner, ast.arguments)
                                     for d in [*inner.defaults, *inner.kw_defaults])]
                      if part is not None for node in ast.walk(part)}
            reads += [f"{module}:{node.lineno} {node.value.id}.{node.attr}"
                      for root in body for node in ast.walk(root)
                      if id(node) not in exempt and isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id in _ENUMS]
    assert not reads, sorted(set(reads))


def _broad(handler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return handler.type is None or any(
        isinstance(kind, ast.Name) and kind.id in ("Exception", "BaseException") for kind in kinds)


def test_every_broad_handler_reraises():
    """`except Exception`, `except BaseException` and a bare `except:` may
    clean up, but must end in a bare `raise`: no fault is swallowed."""
    swallowing = [f"{module}:{node.lineno}"
                  for module, (_, tree) in _trees().items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler) and _broad(node)
                  and not (isinstance(node.body[-1], ast.Raise) and node.body[-1].exc is None)]
    assert not swallowing, swallowing


def test_every_cleanup_handler_runs_on_an_interrupt():
    """A broad handler that cleans up and re-raises catches `BaseException`
    (or is a bare `except:`): a KeyboardInterrupt or SystemExit must not
    skip the cleanup, say leave a file open."""
    narrow = [f"{module}:{node.lineno}"
              for module, (_, tree) in _trees().items()
              for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and _broad(node)
              and isinstance(node.body[-1], ast.Raise) and node.body[-1].exc is None
              and not (node.type is None
                       or isinstance(node.type, ast.Name) and node.type.id == "BaseException")]
    assert not narrow, narrow


def _own_nodes(fn):
    """The nodes of a function's body, nested definitions included but not
    what is inside them."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_a_nested_function_that_calls_itself_is_dropped_in_a_finally():
    """A nested function that calls itself holds its own closure cell, a
    reference cycle that only the collector frees, so the function that
    defines it ends with `del` of its name in a `finally`: reference
    counting then frees each call's frames, as
    `test_mining_leaves_no_reference_cycle` checks for mining."""
    undropped = []
    for module, (_, tree) in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(fn))
            dropped = {target.id for node in own if isinstance(node, ast.Try)
                       for stmt in node.finalbody if isinstance(stmt, ast.Delete)
                       for target in stmt.targets if isinstance(target, ast.Name)}
            undropped += [f"{module}:{inner.lineno} {inner.name}" for inner in own
                          if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and inner.name not in dropped
                          and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                                  and node.func.id == inner.name for node in ast.walk(inner))]
    assert not undropped, undropped


# public signatures whose callers pass a parameter the body does not read:
# the CLI, the tests and bench/tracing.py call compare_with_reality(model, ...)
_UNREAD_KEPT = {("agent.py", "compare_with_reality", "model")}


def test_every_parameter_is_read():
    """Dunder methods, `self` and `_`-prefixed parameters are exempt."""
    unread = []
    for module, (_, tree) in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            args = fn.args
            params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            unread += [f"{module}:{fn.lineno} {name}({param.arg})" for param in params
                       if param is not None and param.arg not in read
                       and param.arg != "self" and not param.arg.startswith("_")
                       and (module, name, param.arg) not in _UNREAD_KEPT]
    assert not unread, unread


# exported functions that neither the engine nor the benchmark names, each
# kept for callers for the reason given
_API_KEPT = {
    "apply_undo": "reverts the ChangeSet that `execute` returns, for a caller running scripts itself",
    "canonical_key": "the isomorphism class of a pattern, which mined templates are ordered by",
    "concept_of": "reads a registered concept back as a template, support included",
    "nets_equal": "structural equality of two nets, what a round trip through the store keeps",
}


def test_every_exported_function_is_used_or_kept_for_callers():
    """A function in `krn.__all__` is named in `src/krn` (but the package's
    own re-export) or in `bench/`, or `_API_KEPT` says why it stays."""
    named = set()
    for path in [*SRC.glob("*.py"), *(SRC.parent.parent / "bench").rglob("*.py")]:
        if path.parent != SRC or path.name != "__init__.py":
            named |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    functions = {name for name in krn.__all__ if inspect.isfunction(getattr(krn, name))}
    assert functions - named == _API_KEPT.keys(), sorted((functions - named) ^ _API_KEPT.keys())


def _opcodes(node):
    if isinstance(node, re._parser.SubPattern):
        node = node.data
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item)
    elif hasattr(node, "name"):   # an opcode
        yield node.name


def test_every_pattern_compiles_on_the_oldest_python_allowed():
    # possessive repeats (`*+`, `++`, `?+`, `{m,n}+`) and atomic groups
    # (`(?>...)`) are new in Python 3.11; on an older Python a module-level
    # pattern with one fails the module's import
    with open(SRC.parent.parent / "pyproject.toml", "rb") as fh:
        floor = tomllib.load(fh)["project"]["requires-python"]
    newer = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":   # runs the CLI
            continue
        module = importlib.import_module("krn" if path.stem == "__init__" else f"krn.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                ops = set(_opcodes(re._parser.parse(value.pattern, value.flags)))
                newer += [f"{path.name} {name} {op}" for op in ops
                          if op in ("POSSESSIVE_REPEAT", "ATOMIC_GROUP")]
    oldest = tuple(map(int, re.fullmatch(r">=(\d+)\.(\d+)", floor).groups()))
    assert oldest >= (3, 11) or not newer, f"requires-python {floor}: {newer}"


def _dispatched_verbs() -> set[str]:
    """Every verb `cli.run_command` dispatches on: the keys of its table."""
    return set(cli.COMMANDS)


def test_the_readme_command_summary_names_every_verb_the_cli_dispatches_on():
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    # the paragraph under the heading: one `verb <args>` item per command
    summary = readme.split("### Command summary\n", 1)[1].strip().split("\n\n", 1)[0]
    named = {verb for item in re.findall(r"`([^`]+)`", summary)
             for verb in item.split(" ", 1)[0].split("|")}
    verbs = _dispatched_verbs()
    assert named == verbs, (sorted(named - verbs), sorted(verbs - named))


def _functions(body, owner=""):
    """(name, node) of each function defined in `body` or in a class
    there, a method named `Class.method`."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{owner}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{owner}{node.name}", node


def test_only_the_two_readers_call_the_whole_file_read():
    """`store._read` reads a whole file's bytes: `load`, `StoreHandle.__init__`
    (the `open` scan) and `StoreHandle.load_full` call it, and nothing else
    does. A save reads each block it wrote from its own match
    (`store._rebase`), so no second read path comes back on the save side."""
    def reads(root):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "_read"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "_read"
            and ast.unparse(node.func.value) == "store")]

    callers, outside = set(), []
    for module, (_, tree) in _trees().items():
        inside = 0
        for name, func in _functions(tree.body):
            calls = reads(func)
            inside += len(calls)
            callers.update((module, name) for _ in calls)
        outside += [module] * (len(reads(tree)) - inside)
    assert callers == {("store.py", "load"), ("store.py", "StoreHandle.__init__"),
                       ("store.py", "StoreHandle.load_full")} and not outside, (callers, outside)
