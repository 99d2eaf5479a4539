"""Span recorder for the traced run.

`Recorder.install()` replaces krn's public functions, at the attributes
their callers look them up by, with wrappers that record one span per call:
name, start, end, parent span and op id. Self time (a span's duration
minus the time its child spans cover) is summed per span name as calls
return. Spans are kept in memory and written out by `write_spans` at the
end. `gc.callbacks` gives the collector's runtime row. `uninstall()` puts
every original back. Tiny hot accessors (`Net.node`, `Net.get_property`)
are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import gc
import json
import os
from time import perf_counter_ns

from krn import agent, cli, core, lexicon, reasoning, script, sim, store

# Spans kept in memory per traced round; calls beyond it are still timed
# and counted, but their spans are dropped (reported as spans_dropped).
SPAN_CAP = 500_000


def _wrap_targets():
    """(owner, attribute, span name, pre, post) for every wrapped call site.

    `pre(rec, args)` runs before the call; `post(rec, args, result, pre_value)`
    after it, to add counts next to the span. The same function is wrapped
    at each attribute a caller reads it from (`sim.execute` as well as
    `script.execute`, `agent.find_matches` as well as
    `reasoning.find_matches`).
    """

    def count(key, fn):
        def post(rec, args, result, _pre):
            rec.counts[key] += fn(args, result)
        return post

    def bytes_read(_rec, args):
        return args[0].stats.bytes_read

    def shape_calls(rec, _args):
        return rec.calls.get("reasoning.shape", 0)

    def shaped(rec, _args, _result, shapes_before):
        rec.counts["reasoning.query_has.shaped"] += (
            rec.calls.get("reasoning.shape", 0) > shapes_before)

    def useful(rec, args, _result, before):
        rec.counts["store.hydrate.useful"] += args[0].stats.bytes_read > before

    def opened(rec, _args, handle, _pre):
        rec.handle_stats.append(handle.stats)
        rec.counts["store.open.bytes"] += handle.stats.bytes_read

    parse_bytes = count("script.parse.bytes", lambda a, r: len(a[0].encode("utf-8")))
    changes = count("script.execute.changes", lambda a, r: len(r))
    entries = count("sim.snapshot.entries", lambda a, r: len(r.state))
    hits = count("reasoning.find_matches.hits", lambda a, r: bool(r))
    created = count("reasoning.shape.nodes_created", lambda a, r: len(r))
    written = count("store.save.bytes_written", lambda a, r: os.path.getsize(a[2]))
    H = store.StoreHandle
    return [
        (cli, "run_command", "cli.run_command", None, None),
        (lexicon.Lexicon, "lookup", "lexicon.lookup", None, None),
        (lexicon.Lexicon, "label_of", "lexicon.label_of", None, None),
        (lexicon.Lexicon, "set_label", "lexicon.set_label", None, None),
        (sim, "run_action", "sim.run_action", None, None),
        (sim, "snapshot", "sim.snapshot", None, entries),
        (sim, "diff", "sim.diff", None, None),
        (agent, "diff", "sim.diff", None, None),
        (script, "parse", "script.parse", None, parse_bytes),
        (store, "parse_script", "script.parse", None, parse_bytes),
        (script, "execute", "script.execute", None, changes),
        (sim, "execute", "script.execute", None, changes),
        (store, "open", "store.open", None, opened),
        (store, "save", "store.save", None, written),
        (H, "load_stub", "store.load_stub", None, None),
        (H, "hydrate_property", "store.hydrate_property", bytes_read, useful),
        (H, "hydrate_script", "store.hydrate_script", bytes_read, useful),
        (H, "evict", "store.evict", None, None),
        (H, "load_full", "store.load_full", None, None),
        (reasoning, "mine_concepts", "reasoning.mine_concepts", None, None),
        (reasoning, "find_matches", "reasoning.find_matches", None, hits),
        (agent, "find_matches", "reasoning.find_matches", None, hits),
        (reasoning, "register_concept", "reasoning.register_concept", None, None),
        (reasoning, "query_has", "reasoning.query_has", shape_calls, shaped),
        (reasoning, "shape", "reasoning.shape", None, created),
        (agent, "evaluate_goals", "agent.evaluate_goals", None, None),
        (agent, "compare_with_reality", "agent.compare_with_reality", None, None),
        (agent, "reality_snapshot", "agent.reality_snapshot", None, None),
        (core.Net, "add_object", "core.add_object", None, None),
        (core.Net, "add_action", "core.add_action", None, None),
        (core.Net, "validate_bipartite", "core.validate_bipartite", None, None),
    ]


class Recorder:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list = []       # [op, name, start_ns, end_ns, parent index]
        self.dropped = 0
        self.stack: list = []       # open frames: [name, start, child ns, span index]
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.counts: dict = {}
        self.handle_stats: list = []
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self.op_wall_ns = 0         # summed root-span time of numbered ops
        self.op_engine_ns = 0       # summed self time of engine spans inside them
        self.op_id = None
        self.active = False
        self._gc_start = 0
        self._originals: list = []

    # -- spans --

    def enter(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([self.op_id, name, 0, 0, parent])
        else:
            idx = -1
            self.dropped += 1
        frame = [name, perf_counter_ns(), 0, idx]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter_ns()
        name, start, child, idx = frame
        self.stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if isinstance(self.op_id, int):
            if self.stack:
                self.op_engine_ns += dur - child
            else:
                self.op_wall_ns += dur
        if idx >= 0:
            self.spans[idx][2] = start
            self.spans[idx][3] = end

    def begin_op(self, op_id) -> list:
        """Open the root span of one op (or of set-up, or the end checks).

        Ops are numbered across the passes of a round, so an op id is unique.
        """
        self.op_id = op_id
        self.active = True
        return self.enter("op" if isinstance(op_id, int) else str(op_id))

    def end_op(self, frame: list) -> None:
        """Close the root span and stop recording until the next op."""
        self.exit(frame)
        self.active = False

    # -- wrapping --

    def _wrapper(self, fn, name, pre, post):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            before = pre(rec, args) if pre else None
            frame = rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(frame)
            if post:
                post(rec, args, result, before)
            return result

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("recorder already installed")
        self.counts = _zero_counts()
        for owner, attr, name, pre, post in _wrap_targets():
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, pre, post))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, _info) -> None:
        if not self.active:     # the benchmark's own collections between ops
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += perf_counter_ns() - self._gc_start

    # -- results --

    def layer_metrics(self, extra: dict) -> dict:
        """Every per-layer metric by name, as (value, unit); 0 where unused."""
        calls = lambda n: self.calls.get(n, 0)  # noqa: E731
        ms = lambda n: self.self_ns.get(n, 0) / 1e6  # noqa: E731
        c = self.counts
        hydrations = calls("store.hydrate_property") + calls("store.hydrate_script")
        m = {}
        for name in SPAN_CALLS:
            m[f"{name}.calls"] = (calls(name), "count")
        for name in SPAN_SELF:
            m[f"{name}.self_ms"] = (ms(name), "ms")
        m["lexicon.self_ms"] = (sum(ms(n) for n in self.self_ns if n.startswith("lexicon.")), "ms")
        m["sim.snapshot.entries"] = (c["sim.snapshot.entries"], "count")
        m["sim.timeline.entries_retained"] = (
            extra.get("sim.timeline.entries_retained", 0), "count")
        m["script.parse.bytes"] = (c["script.parse.bytes"], "B")
        m["script.execute.changes"] = (c["script.execute.changes"], "count")
        m["store.open.bytes"] = (c["store.open.bytes"], "B")
        m["store.bytes_read"] = (sum(s.bytes_read for s in self.handle_stats), "B")
        m["store.hydrate.useful_ratio"] = (_ratio(c["store.hydrate.useful"], hydrations), "ratio")
        m["store.save.bytes_written"] = (c["store.save.bytes_written"], "B")
        m["reasoning.find_matches.hit_ratio"] = (
            _ratio(c["reasoning.find_matches.hits"], calls("reasoning.find_matches")), "ratio")
        m["reasoning.query_has.shaped_ratio"] = (
            _ratio(c["reasoning.query_has.shaped"], calls("reasoning.query_has")), "ratio")
        m["reasoning.shape.nodes_created"] = (c["reasoning.shape.nodes_created"], "count")
        m["runtime.gc.collections"] = (self.gc_collections, "count")
        m["runtime.gc.pause_ms"] = (self.gc_pause_ns / 1e6, "ms")
        m["trace.attributed_ratio"] = (_ratio(self.op_engine_ns, self.op_wall_ns), "ratio")
        return m

    def write_spans(self, path: str) -> None:
        """One JSON array per line: op id, name, start ns, end ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, ensure_ascii=False) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _zero_counts() -> dict:
    keys = ["sim.snapshot.entries", "script.parse.bytes", "script.execute.changes",
            "store.open.bytes", "store.hydrate.useful", "store.save.bytes_written",
            "reasoning.find_matches.hits", "reasoning.query_has.shaped",
            "reasoning.shape.nodes_created"]
    return dict.fromkeys(keys, 0)


SPAN_CALLS = [
    "cli.run_command", "lexicon.lookup", "lexicon.label_of",
    "sim.run_action", "sim.snapshot", "script.parse", "script.execute",
    "store.load_stub", "store.hydrate_property", "store.hydrate_script",
    "store.evict", "store.save",
    "reasoning.mine_concepts", "reasoning.find_matches", "reasoning.query_has",
    "reasoning.shape", "agent.evaluate_goals", "core.add_object", "core.add_action",
]
SPAN_SELF = [
    "cli.run_command", "sim.run_action", "sim.snapshot", "sim.diff",
    "script.parse", "script.execute", "store.open", "store.load_stub",
    "store.hydrate_property", "store.hydrate_script", "store.load_full", "store.save",
    "reasoning.mine_concepts", "reasoning.find_matches", "reasoning.register_concept",
    "reasoning.query_has", "reasoning.shape", "agent.evaluate_goals",
    "agent.compare_with_reality", "agent.reality_snapshot", "core.add_object",
    "core.add_action", "core.validate_bipartite",
]
