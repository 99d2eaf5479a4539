"""The four benchmark workloads: seeded inputs, closed-loop ops, output checks.

Every workload is a class built from `(rng, size, workdir)`. Building it is
the set-up: inputs are generated through krn's public API, files are
written, stores opened and the world built. After that `op(i)` runs op
number i (the only timed code) and returns what the engine answered;
`check(i, out)` compares that answer with what the benchmark expects from
its own knowledge of the inputs, and `finish()` runs the end-of-round
checks. All randomness is drawn during set-up, so `op` spends its time in
the engine. Engine entry points are always looked up as module or class
attributes (`cli.run_command`, `store.open`, ...) so the traced run can
wrap them in place.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

from krn import agent, cli, reasoning, sim, store
from krn.core import Net, Value
from krn.lexicon import Lexicon
from krn.reasoning import Answer

# Default verb table of `krn.sim`; the change lines the CLI prints use it.
VERBS = {"position": "moving", "colour": "changing-colour"}
COLOURS = ["green", "black", "red", "blue", "white", "grey", "amber"]
MATERIALS = ["wood", "stone", "glass", "steel", "paper"]
# Label languages for action names; runs name actions in all of them.
LANGS = [("en", 0.5), ("fr", 0.2), ("de", 0.15), ("ja", 0.15)]
LABEL_STEM = {"fr": "agir", "de": "tun", "ja": "動く"}


def skewed_picker(rng: random.Random, items, s: float = 1.1):
    """Half Zipf(s) over a seeded ranking of `items`, half uniform."""
    order = list(items)
    rng.shuffle(order)
    cum = list(itertools.accumulate(1.0 / (r ** s) for r in range(1, len(order) + 1)))

    def pick():
        if rng.random() < 0.5:
            return rng.choices(order, cum_weights=cum)[0]
        return rng.choice(order)

    return pick


def render(v) -> str:
    """What the CLI prints for a number or text value."""
    if isinstance(v, float):
        return str(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)
    return v


def change_line(name_of, node, prop, before, after) -> str:
    verb = VERBS.get(prop)
    suffix = f" ({verb})" if verb else ""
    return f"{name_of(node)}.{prop}: {render(before)} -> {render(after)}{suffix}"


# ------------------------------------------------------------ scripts

@dataclass(frozen=True)
class ScriptSpec:
    """A script text plus the benchmark's own model of what it does.

    `steps` are (role, property, fn) in statement order; fn gets a reader
    `get(role, property)` and returns the new value.
    """

    text: str
    steps: tuple
    uses_subject: bool = False


def _plus(role, prop, k):
    return (role, prop, lambda g: g(role, prop) + k)


# The shared pool: scripts many actions have verbatim, as a parse cache would see.
POOL = [
    ScriptSpec("set object.x = object.x + 1;", (_plus("object", "x", 1.0),)),
    ScriptSpec("set object.position = object.position + 1;",
               (_plus("object", "position", 1.0),)),
    ScriptSpec('if object.x > 5 { set object.colour = "red"; } '
               'else { set object.colour = "blue"; }',
               (("object", "colour", lambda g: "red" if g("object", "x") > 5 else "blue"),)),
    ScriptSpec('set object.colour = "black";', (("object", "colour", lambda g: "black"),)),
    ScriptSpec("set subject.energy = subject.energy - 1; set object.x = object.x + 2;",
               (_plus("subject", "energy", -1.0), _plus("object", "x", 2.0)),
               uses_subject=True),
]


def unique_script(rng: random.Random, j: int) -> ScriptSpec:
    """A script whose literal makes its text unique to action j."""
    roll = rng.randrange(3)
    if roll == 0:
        colour = f"c{j}"
        return ScriptSpec(f'set object.colour = "{colour}";',
                          (("object", "colour", lambda g: colour),))
    if roll == 1:
        k = float(rng.randrange(2, 50))
        return ScriptSpec(f"set object.position = object.position + {int(k)};",
                          (_plus("object", "position", k),))
    k = float(rng.randrange(100) * 1000 + j % 1000)
    return ScriptSpec(f"set object.x = {int(k)};", (("object", "x", lambda g: k),))


def draw_script(rng: random.Random, j: int, has_subject: bool) -> ScriptSpec:
    """Half from the shared pool, half with a unique literal."""
    if rng.random() < 0.5:
        pool = POOL if has_subject else [s for s in POOL if not s.uses_subject]
        return rng.choice(pool)
    return unique_script(rng, j)


def shadow_run(spec: ScriptSpec, state: dict, subject, target) -> list:
    """Apply a script to the benchmark's value model; returns its changes."""
    ids = {"object": target, "subject": subject}

    def get(role, prop):
        return state[(ids[role], prop)]

    changes = []
    for role, prop, fn in spec.steps:
        key = (ids[role], prop)
        before, after = state[key], fn(get)
        if before == after:
            continue
        state[key] = after
        changes.append((key[0], prop, before, after))
    return changes


def object_props(rng: random.Random) -> list[tuple[str, object]]:
    """The properties every scripted object carries, plus 0-2 extras."""
    props = [
        ("colour", rng.choice(COLOURS)),
        ("energy", float(rng.randrange(10, 100))),
        ("position", float(rng.randrange(0, 20))),
        ("x", float(rng.randrange(0, 10))),
    ]
    if rng.random() < 0.5:
        props.append(("mass", rng.randrange(10, 999) / 10))
    if rng.random() < 0.3:
        props.append(("material", rng.choice(MATERIALS)))
    return props


def as_value(v) -> Value:
    if isinstance(v, float):
        return Value.num(v)
    return Value.text(v)


@dataclass
class World:
    """A generated scripted net: objects, actions with scripts, the model."""

    props: dict        # object index -> [(name, python value)]
    actions: list      # (subject index or None, target index, ScriptSpec)


def generate_world(rng: random.Random, n_objects: int, n_actions: int) -> World:
    props = {i: object_props(rng) for i in range(n_objects)}
    actions = []
    for j in range(n_actions):
        target = rng.randrange(n_objects) if j >= n_objects else j
        subject = rng.randrange(n_objects) if rng.random() < 0.8 else None
        actions.append((subject, target, draw_script(rng, j, subject is not None)))
    return World(props, actions)


def build_net(world: World) -> tuple[Net, Lexicon, list, list]:
    """The world as a net with English labels; returns object and action ids."""
    net, lex = Net(), Lexicon()
    oids = [net.add_object([(k, as_value(v)) for k, v in world.props[i]])
            for i in range(len(world.props))]
    aids = []
    for j, (subject, target, spec) in enumerate(world.actions):
        subj = None if subject is None else oids[subject]
        aids.append(net.add_action(subj, oids[target], spec.text))
    for i, oid in enumerate(oids):
        lex.set_label(oid, "en", f"o{i}")
    for j, aid in enumerate(aids):
        lex.set_label(aid, "en", f"a{j}")
    return net, lex, oids, aids


def pick_lang(rng: random.Random) -> str:
    return rng.choices([l for l, _ in LANGS], weights=[w for _, w in LANGS])[0]


class Workload:
    """Defaults for the end-of-round hooks."""

    def finish(self) -> bool:
        return True

    def layer_counts(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# ------------------------------------------------------------ whatif

class WhatIf(Workload):
    """CLI commands on one session over a scripted world, timeline kept."""

    name = "whatif"

    def __init__(self, rng: random.Random, size: dict, workdir: str):
        n_obj, n_act, n_ops = size["objects"], size["actions"], size["ops"]
        world = generate_world(rng, n_obj, n_act)
        self.specs = [spec for _, _, spec in world.actions]
        lines = []
        for i in range(n_obj):
            kv = " ".join(f"{k}={render(v)}" for k, v in world.props[i])
            lines.append(f"obj o{i} {kv}")
        for j, (subject, target, spec) in enumerate(world.actions):
            subj = "-" if subject is None else f"o{subject}"
            lines.append(f"act {subj} o{target} script='{spec.text}' as a{j}")
            for lang, stem in LABEL_STEM.items():
                lines.append(f"label a{j} {lang} {stem}{j}")
        self.goals = []
        for g in range(max(2, n_obj // 50)):
            i = rng.randrange(n_obj)
            polarity = "goal" if g % 3 else "antigoal"
            prop, op, lit = rng.choice([("x", ">", 5.0), ("position", ">=", 15.0),
                                        ("colour", "==", "red")])
            self.goals.append((g + 1, polarity, i, prop, op, lit))
            lines.append(f"{polarity} o{i}.{prop} {op} {render(lit)}")

        self.session = cli.Session()
        for line in lines:
            cli.run_command(self.session, line)
        self.oid = [self.session.symbols[f"o{i}"] for i in range(n_obj)]
        self.endpoints = [(None if s is None else self.oid[s], self.oid[t])
                          for s, t, _ in world.actions]
        self.state = {(self.oid[i], k): v for i in world.props for k, v in world.props[i]}
        self.name_of = {self.oid[i]: f"o{i}" for i in range(n_obj)}.__getitem__

        # 72 % runs, 8 % diff, 5 % goals, 15 % compare, in exact counts so
        # that every seed retains as many snapshots. Compare, about twice as
        # costly as a run and O(net) like it, makes up more than a tenth of
        # the ops, so p90 falls among the compares and p50 among the runs,
        # each well inside its own mode rather than on an edge between two.
        n_diff, n_goals, n_compare = n_ops * 8 // 100, n_ops // 20, n_ops * 15 // 100
        kinds = (["diff"] * n_diff + ["goals"] * n_goals + ["compare"] * n_compare
                 + ["run"] * (n_ops - 1 - n_diff - n_goals - n_compare))
        rng.shuffle(kinds)
        pick = skewed_picker(rng, range(n_act))
        self.plan = []
        runs = 0
        for kind in ["run"] + kinds:
            if kind == "diff":
                self.plan.append(("diff", rng.randrange(runs)))
            elif kind == "run":
                j, lang = pick(), pick_lang(rng)
                label = f"a{j}" if lang == "en" else f"{LABEL_STEM[lang]}{j}"
                self.plan.append(("run", (j, f"run {label}")))
                runs += 1
            else:
                self.plan.append((kind, None))
        self.runs = []   # per run op: (tick before, tick after, sorted changes)

    def op(self, i: int):
        kind, arg = self.plan[i]
        if kind == "run":
            return cli.run_command(self.session, arg[1])
        if kind == "diff":
            before, after, _ = self.runs[arg]
            return cli.run_command(self.session, f"diff {before} {after}")
        return cli.run_command(self.session, kind)

    def _lines(self, changes) -> list[str]:
        return [change_line(self.name_of, *c) for c in changes] or ["no changes"]

    def check(self, i: int, out) -> bool:
        kind, arg = self.plan[i]
        if kind == "run":
            j = arg[0]
            subject, target = self.endpoints[j]
            changes = shadow_run(self.specs[j], self.state, subject, target)
            clock = self.session.net.clock
            self.runs.append((clock - 1, clock, sorted(changes)))
            return out == self._lines(changes)
        if kind == "diff":
            return out == self._lines(self.runs[arg][2])
        if kind == "goals":
            return out == [f"goal {g[0]} ({g[1]}): {self._goal_status(g)}"
                           for g in self.goals]
        return out == ["no discrepancies"]

    def _goal_status(self, goal) -> str:
        _, polarity, i, prop, op, lit = goal
        v = self.state[(self.oid[i], prop)]
        holds = {">": lambda: v > lit, ">=": lambda: v >= lit, "==": lambda: v == lit}[op]()
        return ("satisfied" if holds else "violated") if polarity == "goal" else (
            "violated" if holds else "satisfied")

    def finish(self) -> bool:
        net = self.session.net
        if not net.validate_bipartite().ok:
            return False
        return all(net.get_property(nid, k).data == v for (nid, k), v in self.state.items())

    def layer_counts(self) -> dict:
        tl = sim.timeline_of(self.session.net)
        return {"sim.timeline.entries_retained": sum(len(s.state) for s in tl.snapshots)}


# ------------------------------------------------------------ store-lazy

class StoreLazy(Workload):
    """Read-only point reads on a large saved file opened once in set-up."""

    name = "store-lazy"

    def __init__(self, rng: random.Random, size: dict, workdir: str):
        n_obj, n_act, n_ops = size["objects"], size["actions"], size["ops"]
        world = generate_world(rng, n_obj, n_act)
        self.src, lex, oids, aids = build_net(world)
        for j in range(0, n_act, 7):
            lex.set_label(aids[j], rng.choice(list(LABEL_STEM)), f"l{j}")
        path = os.path.join(workdir, "lazy.krn")
        store.save(self.src, lex, path)
        self.handle = store.open(path)
        self.net = Net()
        incident = {oid: [] for oid in oids}
        for aid in aids:
            act = self.src.actions[aid]
            incident[act.target].append(aid)
            if act.subject is not None:
                incident[act.subject].append(aid)
        pick = skewed_picker(rng, oids)
        self.plan = []
        for _ in range(n_ops):
            nid = pick()
            self.plan.append((nid, rng.choice(incident[nid]), rng.random() < 0.1))

    def op(self, i: int):
        nid, aid, evict = self.plan[i]
        handle, net = self.handle, self.net
        handle.load_stub(nid, net)
        names = sorted(net.objects[nid].properties)
        values = [handle.hydrate_property(nid, name, net) for name in names]
        handle.hydrate_script(aid, net)
        text = net.actions[aid].script.text
        if evict:
            handle.evict(nid, net)
        return names, values, text

    def check(self, i: int, out) -> bool:
        nid, aid, _ = self.plan[i]
        names, values, text = out
        props = self.src.objects[nid].properties
        return (names == sorted(props)
                and values == [props[n].value for n in names]
                and text == self.src.actions[aid].script.text)

    def finish(self) -> bool:
        return self.net.validate_bipartite().ok

    def reset(self) -> None:
        """Back to nothing stubbed in; the store stays open."""
        self.net = Net()

    def close(self) -> None:
        self.handle.close()


# ------------------------------------------------------------ store-full

class StoreFull(Workload):
    """`load` -> `run` -> `save` through the CLI on a few mid-size files."""

    name = "store-full"

    def __init__(self, rng: random.Random, size: dict, workdir: str):
        n_obj, n_act, n_ops = size["objects"], size["actions"], size["ops"]
        self.files = []
        for f in range(size["files"]):
            world = generate_world(rng, n_obj, n_act)
            net, lex, oids, aids = build_net(world)
            for j in range(0, n_act, 5):
                lex.set_label(aids[j], "fr", f"{LABEL_STEM['fr']}{j}")
            path = os.path.join(workdir, f"full-{f}.krn")
            store.save(net, lex, path)
            self.files.append({
                "path": path, "net": net, "lex": lex, "world": world,
                "oids": oids, "pick": skewed_picker(rng, range(n_act)),
                "state": {(oids[i], k): v for i in world.props for k, v in world.props[i]},
            })
        self.check_path = os.path.join(workdir, "expected.krn")
        self.session = cli.Session()
        self.plan = [(i % len(self.files), self.files[i % len(self.files)]["pick"]())
                     for i in range(n_ops)]

    def op(self, i: int):
        f, j = self.plan[i]
        path = self.files[f]["path"]
        out = cli.run_command(self.session, f"load {path}")
        out += cli.run_command(self.session, f"run a{j}")
        out += cli.run_command(self.session, f"save {path}")
        return out

    def check(self, i: int, out) -> bool:
        f, j = self.plan[i]
        spec = self.files[f]
        net, world = spec["net"], spec["world"]
        subject, target, script = world.actions[j]
        oids = spec["oids"]
        changes = shadow_run(script, spec["state"],
                             None if subject is None else oids[subject], oids[target])
        for nid, prop, _, after in changes:
            net.set_property(nid, prop, as_value(after))
        name_of = {oid: f"o{i}" for i, oid in enumerate(oids)}.__getitem__
        expected = ([f"loaded {len(net.objects)} objects, {len(net.actions)} actions"]
                    + ([change_line(name_of, *c) for c in changes] or ["no changes"])
                    + [f"saved {spec['path']}"])
        store.save(net, spec["lex"], self.check_path)
        with open(spec["path"], "rb") as got, open(self.check_path, "rb") as want:
            return out == expected and got.read() == want.read()

    def finish(self) -> bool:
        return self.session.net.validate_bipartite().ok


# ------------------------------------------------------------ concepts

PARTS = ["head", "arm", "leg", "seat", "door", "leaf", "roof", "tail"]
ABSENT_PART = "wing"   # never generated, so `has wing` never holds


def scene_net(rng: random.Random, n_objects: int) -> Net:
    """Hubs with two named parts each, from a small shared vocabulary.

    The shape is fixed (n_objects // 3 hubs, two parts each, a few cross
    links) so that episodes differ in names, not in size.
    """
    net = Net()
    objs = []
    for _ in range(n_objects // 3):
        hub = net.add_object([("colour", Value.text(rng.choice(COLOURS)))])
        objs.append(hub)
        for _ in range(2):
            names = rng.sample(PARTS[:5] if rng.random() < 0.7 else PARTS, rng.randrange(1, 3))
            props = [(n, Value.truth(True)) for n in sorted(names)]
            if rng.random() < 0.5:
                props.append(("size", Value.num(rng.randrange(1, 9))))
            part = net.add_object(props)
            objs.append(part)
            net.add_action(hub, part)
    for _ in range(max(1, n_objects // 5)):
        a, b = rng.sample(objs, 2)
        net.add_action(a if rng.random() < 0.7 else None, b)
    return net


def carried_parts(template) -> list[str]:
    """Part names the template's root is the subject of an action towards."""
    pat = template.pattern
    names = set()
    for act in pat.actions.values():
        if act.subject == template.root:
            names |= set(pat.objects[act.target].properties)
    return sorted(names)


class Concepts(Workload):
    """Learning episodes: mine, register, declare instances, query, goals."""

    name = "concepts"
    MIN_SUPPORT = 2

    def __init__(self, rng: random.Random, size: dict, workdir: str):
        self.max_nodes = size["max_pattern_nodes"]
        self.top = size["top"]
        self.episodes = []
        for _ in range(size["ops"]):
            nets = [scene_net(rng, size["scene_objects"]) for _ in range(size["scenes"])]
            world = Net()
            model = agent.SelfModel(world)
            insts = [world.add_object([("colour", Value.text(rng.choice(COLOURS))),
                                       ("size", Value.num(rng.randrange(1, 9)))])
                     for _ in range(size["instances"])]
            self.episodes.append((nets, world, model, insts))

    def op(self, i: int):
        nets, world, model, insts = self.episodes[i]
        templates = reasoning.mine_concepts(nets, self.MIN_SUPPORT, self.max_nodes)
        top = templates[:self.top]
        cids = [reasoning.register_concept(world, t) for t in top]
        answers = []
        for k, inst in enumerate(insts if top else ()):
            t = k % len(top)
            world.add_isa(inst, cids[t])
            parts = carried_parts(top[t])[:2]
            for frag in ["colour"] + [f"has {p}" for p in parts]:
                answers.append((frag, reasoning.query_has(world, inst, frag)))
            cond = f"has {parts[0]}" if parts else "colour"
            agent.define_goal(model, "goal", inst, cond)
            agent.define_goal(model, "antigoal", inst, f"has {ABSENT_PART}")
        statuses = agent.evaluate_goals(model, world)
        return templates, answers, statuses

    def check(self, i: int, out) -> bool:
        nets, world, _, insts = self.episodes[i]
        self.episodes[i] = None     # done with; later ops do not carry it
        templates, answers, statuses = out
        if not templates or len(statuses) != 2 * len(insts):
            return False
        if not world.validate_bipartite().ok:
            return False
        for t in templates:
            images = sum(len(reasoning.match_images(t.pattern, net)) for net in nets)
            if t.support < self.MIN_SUPPORT or images < self.MIN_SUPPORT:
                return False
        for frag, answer in answers:
            want = ({Answer.YES_ASSERTED} if frag == "colour"
                    else {Answer.YES_ASSERTED, Answer.YES_INFERRED})
            if answer not in want:
                return False
        return all(status == "satisfied" for _, status in statuses)


WORKLOADS = {cls.name: cls for cls in (WhatIf, StoreLazy, StoreFull, Concepts)}

# Input sizes per workload. A round sets up once and runs `ops` ops (at
# least 100 at full size, so ten samples lie beyond p90), in `passes`
# passes where set-up is costly. `round_s` is a round's nominal length on
# the machine the benchmark was written on; a plain run makes
# `--seconds / round_s` rounds (at least three) with the same inputs,
# whatever the speed of the code. `block` is the unit the latency metrics
# filter noise by (see run.measure): about a tenth to a quarter of a
# second of ops. "tiny" is for the smoke test.
SIZES = {
    "whatif": {
        "full": {"objects": 1000, "actions": 1000, "ops": 400, "block": 25, "round_s": 4.0},
        "tiny": {"objects": 20, "actions": 20, "ops": 40, "block": 10, "round_s": 1.0},
    },
    "store-lazy": {
        "full": {"objects": 20000, "actions": 20000, "ops": 4000, "block": 250, "passes": 4,
                 "round_s": 7.0},
        "tiny": {"objects": 40, "actions": 40, "ops": 40, "block": 10, "passes": 2,
                 "round_s": 1.0},
    },
    "store-full": {
        "full": {"objects": 200, "actions": 200, "files": 3, "ops": 120, "block": 5,
                 "round_s": 5.0},
        "tiny": {"objects": 20, "actions": 20, "files": 2, "ops": 6, "block": 2, "round_s": 1.0},
    },
    "concepts": {
        "full": {"scenes": 3, "scene_objects": 15, "max_pattern_nodes": 5,
                 "top": 3, "instances": 8, "ops": 150, "block": 10, "round_s": 5.0},
        "tiny": {"scenes": 3, "scene_objects": 8, "max_pattern_nodes": 3,
                 "top": 2, "instances": 3, "ops": 4, "block": 2, "round_s": 1.0},
    },
}

# The traced size sweep: per-layer numbers at 10^2, 10^3 and 10^4 objects,
# with fewer ops where the retained timeline or the file is large.
SWEEP = {
    "whatif": [
        {"objects": 100, "actions": 100, "ops": 400, "block": 25},
        {"objects": 1000, "actions": 1000, "ops": 400, "block": 25},
        {"objects": 10000, "actions": 10000, "ops": 40, "block": 5},
    ],
    "store-full": [
        {"objects": 100, "actions": 100, "files": 3, "ops": 30, "block": 5},
        {"objects": 1000, "actions": 1000, "files": 3, "ops": 12, "block": 3},
        {"objects": 10000, "actions": 10000, "files": 1, "ops": 3, "block": 1},
    ],
}
