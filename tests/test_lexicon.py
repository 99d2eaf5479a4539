import gc
import random
import re
import tracemalloc

import pytest

from krn import Lexicon, Value
from krn.errors import BadLanguageTag, NoLabel


def test_shared_labels_within_language():
    lex = Lexicon()
    lex.set_label(1, "en", "flying")
    lex.set_label(2, "en", "flying")
    assert lex.lookup("en", "flying") == {1, 2}


def test_label_fallback_to_english():
    lex = Lexicon()
    lex.set_label(5, "en", "wall")
    assert lex.label_of(5, "fr") == ("wall", "en")


def test_direct_hit_beats_fallback():
    lex = Lexicon()
    lex.set_label(5, "en", "wall")
    lex.set_label(5, "fr", "mur")
    assert lex.label_of(5, "fr") == ("mur", "fr")
    assert lex.label_of(5, "en") == ("wall", "en")


def test_configurable_fallback_chain():
    lex = Lexicon(fallback_chain=("de", "en"))
    lex.set_label(7, "de", "wand")
    lex.set_label(7, "en", "wall")
    assert lex.label_of(7, "fr") == ("wand", "de")


def test_no_label_raises():
    lex = Lexicon()
    with pytest.raises(NoLabel):
        lex.label_of(9, "en")


def test_overwrite_repairs_reverse_index():
    lex = Lexicon()
    lex.set_label(3, "en", "wall")
    lex.set_label(3, "en", "fence")
    assert lex.lookup("en", "wall") == set()
    assert lex.lookup("en", "fence") == {3}
    assert lex.label_of(3, "en") == ("fence", "en")


def test_languages_independent():
    lex = Lexicon()
    lex.set_label(4, "en", "wall")
    lex.set_label(4, "fr", "mur")
    assert lex.lookup("fr", "wall") == set()
    assert lex.lookup("en", "mur") == set()


def test_lookup_is_exact_and_case_sensitive():
    lex = Lexicon()
    lex.set_label(1, "en", "flying")
    assert lex.lookup("en", "Flying") == set()
    assert lex.lookup("en", "unheard-of") == set()


def test_bad_language_tag_rejected():
    lex = Lexicon()
    for bad in ("", "en us", "toolongtag99", "-en"):
        with pytest.raises(BadLanguageTag):
            lex.set_label(1, bad, "x")
    lex.set_label(1, "zh-Hant", "x")  # well-formed compound tag


def test_inverse_consistency():
    lex = Lexicon()
    entries = [(1, "en", "a"), (2, "en", "a"), (2, "fr", "b"), (3, "de", "c")]
    for node, lang, text in entries:
        lex.set_label(node, lang, text)
    for node, lang, _ in entries:
        text, used = lex.label_of(node, lang)
        assert used == lang  # direct hits only here
        assert node in lex.lookup(lang, text)


def test_engine_operations_never_consult_labels():
    """The thinking/communication separation, exercised structurally."""
    from krn import mine_concepts, query_has, run_action
    from helpers import peter_net, person_net, wall_net

    # a full reasoning and simulation pass with a completely empty lexicon
    net, man, wall, paint = wall_net()
    run_action(net, paint)
    assert net.get_property(wall, "colour") == Value.text("black")
    p_net, peter, concept_id = peter_net()
    assert query_has(p_net, peter, "head").value == "yes-inferred"
    templates = mine_concepts([person_net(1, 2), person_net(3, 4)], 2, 7)
    assert len(templates) == 1


def test_labels_add_no_collector_tracked_object_per_label():
    """A loaded net labels every node; its reverse index must not cost one
    collector-tracked container per label."""
    lex = Lexicon()
    gc.collect()
    before = len(gc.get_objects())
    for node in range(1000):
        lex.set_label(node, "en", f"word{node}")
    gc.collect()
    added = len(gc.get_objects()) - before
    assert added <= 5


class _ScanningLexicon:
    """The reference: one labels dict, every lookup a scan of it."""

    def __init__(self, chain):
        self.labels, self.chain = {}, chain

    def set_label(self, node, lang, text):
        if not re.fullmatch(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*", lang):
            raise BadLanguageTag(lang)
        self.labels[(node, lang)] = text

    def lookup(self, lang, text):
        return {n for (n, lg), t in self.labels.items() if (lg, t) == (lang, text)}

    def lookup_any(self, text):
        return {n for (n, _), t in self.labels.items() if t == text}

    def label_of(self, node, lang):
        for lg in (lang, *self.chain):
            if (node, lg) in self.labels:
                return self.labels[(node, lg)], lg
        raise NoLabel(node)


def test_lexicon_agrees_with_a_scanning_reference():
    """Relabels, texts shared across nodes and languages, several
    languages and bad tags, compared after every step."""
    nodes = range(1, 7)
    good, bad = ["en", "fr", "de", "zh-Hant"], ["", "en us", "-en", "toolongtag9", "en\n"]
    texts = ["wall", "mur", "Wall", "", "a b", "w\u00e4nd"]
    for seed in range(12):
        rng = random.Random(seed)
        chain = rng.choice([("en",), ("de", "en"), ()])
        lex, ref = Lexicon(fallback_chain=chain), _ScanningLexicon(chain)
        for _ in range(150):
            lang = rng.choice(good if rng.random() < 0.8 else bad)
            node, text = rng.choice(nodes), rng.choice(texts)
            outcomes = []
            for lexicon in (lex, ref):
                try:
                    lexicon.set_label(node, lang, text)
                    outcomes.append("set")
                except BadLanguageTag:
                    outcomes.append("bad tag")
            assert outcomes[0] == outcomes[1], (seed, lang, outcomes)
            assert lex.labels == ref.labels
            assert lex.items() == sorted((n, lg, t) for (n, lg), t in ref.labels.items())
            for t in texts:
                assert lex.lookup_any(t) == ref.lookup_any(t)
                for lg in good + bad:
                    assert lex.lookup(lg, t) == ref.lookup(lg, t)
            for n in (*nodes, 99):
                for lg in good + bad:
                    try:
                        want = ref.label_of(n, lg)
                    except NoLabel:
                        with pytest.raises(NoLabel):
                            lex.label_of(n, lg)
                    else:
                        assert lex.label_of(n, lg) == want
        # the lookups hand out fresh sets
        for got in (lex.lookup("en", "wall"), lex.lookup_any("wall")):
            got.add(-1)
        assert -1 not in lex.lookup("en", "wall") | lex.lookup_any("wall")


def test_lexicon_of_equals_a_set_label_replay():
    """`Lexicon.of` builds in one pass what `set_label` of each label in
    turn builds: duplicate (node, language) pairs, where the later wins,
    several languages and texts shared across nodes; a bad tag raises."""
    nodes = range(1, 9)
    langs, texts = ["en", "fr", "de", "zh-Hant"], ["wall", "mur", "Wall", "", "a b", "w\u00e4nd"]
    for seed in range(20):
        rng = random.Random(seed)
        labels = [(rng.choice(nodes), rng.choice(langs), rng.choice(texts))
                  for _ in range(rng.randrange(60))]
        built, replay = Lexicon.of(labels), Lexicon()
        for node, lang, text in labels:
            replay.set_label(node, lang, text)
        assert built.labels == replay.labels and built.items() == replay.items()
        assert built.source is None and built.fallback_chain == replay.fallback_chain
        for text in [*texts, "absent"]:
            assert built.lookup_any(text) == replay.lookup_any(text)
            for lang in [*langs, "es"]:
                assert built.lookup(lang, text) == replay.lookup(lang, text)
        for node in (*nodes, 99):
            for lang in [*langs, "es"]:
                try:
                    want = replay.label_of(node, lang)
                except NoLabel:
                    with pytest.raises(NoLabel):
                        built.label_of(node, lang)
                else:
                    assert built.label_of(node, lang) == want
    with pytest.raises(BadLanguageTag):
        Lexicon.of([(1, "en", "wall"), (2, "en us", "wall")])


def test_a_label_costs_under_200_bytes():
    """A text one node holds maps to that node's id, not to a collection:
    10^4 distinct `en` texts, each on its own node, take at most 200 B a
    label by tracemalloc beyond the texts themselves (about 360 B when each
    text kept a dict of its nodes)."""
    texts = [f"word{n}" for n in range(10_000)]
    gc.collect()
    tracemalloc.start()
    try:
        lex = Lexicon()
        for node, text in enumerate(texts):
            lex.set_label(node, "en", text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(texts) <= 200, held / len(texts)
    assert lex.lookup("en", "word7") == {7}


def test_relabelling_one_node_keeps_nothing_of_its_old_texts():
    lex = Lexicon()
    lex.set_label(1, "en", "start")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1000):
            lex.set_label(1, "en", f"text{n}")
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 10_000, grown
    assert lex.lookup("en", "text999") == {1} and lex.lookup_any("start") == set()
