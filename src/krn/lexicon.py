"""Natural-language labels over internal node ids.

Labels are communication only: nothing in the engine core consults
them. A node may carry one label per language, many nodes may share a
label within a language, and reads fall back along a configurable
language chain (ending in English by default).
"""

from __future__ import annotations

import re

from .core import NodeId
from .errors import BadLanguageTag, NoLabel

_LANG_RE = re.compile(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*\Z")


def valid_language_tag(lang: str) -> bool:
    return bool(_LANG_RE.match(lang))


def _hold(texts: dict, text: str, node: NodeId) -> None:
    """Add `node`, which does not hold `text`, to its holders in `texts`."""
    held = texts.get(text)
    if held is None:
        texts[text] = node
    elif type(held) is dict:
        held[node] = None
    else:
        texts[text] = {held: None, node: None}


class Lexicon:
    def __init__(self, fallback_chain: tuple[str, ...] = ("en",)):
        self.labels: dict[tuple[NodeId, str], str] = {}
        # language (once its tag passed) -> text -> the id of the one node
        # that holds it, or, while two or more do, their ids as the keys of
        # a dict: a dict of ints, unlike a set, is never collector-tracked
        self.reverse: dict[str, dict[str, NodeId | dict[NodeId, None]]] = {}
        self.fallback_chain = list(fallback_chain)
        # the LABEL lines of the file this lexicon was loaded from, or that a
        # save wrote of it, while it holds just those labels: `store.save`
        # copies them
        self.source: bytes | None = None

    @staticmethod
    def index(labels) -> tuple[dict, dict]:
        """The (labels, reverse) of (node, language, text) labels in one pass,
        as `set_label` of each in turn leaves them: of two for one node and
        language the later wins, and a text one node holds maps to its id.
        A bad tag raises BadLanguageTag."""
        pairs, reverse = {}, {}
        for node, lang, text in labels:
            if lang not in reverse:
                if not valid_language_tag(lang):
                    raise BadLanguageTag(f"bad language tag {lang!r}")
                reverse[lang] = {}
            pairs[(node, lang)] = text
        for (node, lang), text in pairs.items():
            _hold(reverse[lang], text, node)
        return pairs, reverse

    @classmethod
    def of(cls, labels) -> "Lexicon":
        """A lexicon of (node, language, text) labels (`index`)."""
        lexicon = cls()
        lexicon.labels, lexicon.reverse = cls.index(labels)
        return lexicon

    def set_label(self, node: NodeId, lang: str, text: str) -> None:
        if lang not in self.reverse and not valid_language_tag(lang):
            raise BadLanguageTag(f"bad language tag {lang!r}")
        texts = self.reverse.setdefault(lang, {})
        old = self.labels.get((node, lang))
        if old is not None:
            held = texts[old]
            if type(held) is dict:
                del held[node]
                if len(held) == 1:
                    texts[old] = next(iter(held))
            else:
                del texts[old]
        self.labels[(node, lang)] = text
        _hold(texts, text, node)
        self.source = None

    def saved(self, source: bytes) -> None:
        """Take `source`, LABEL lines a save wrote of every label held, in
        order, as the lines the labels came from."""
        self.labels = dict(sorted(self.labels.items()))
        self.source = source

    def labelled(self, node: NodeId) -> bool:
        """Whether `node` has a label in some language."""
        return any((node, lang) in self.labels for lang in self.reverse)

    def label_of(self, node: NodeId, lang: str) -> tuple[str, str]:
        """Label in the requested language, or the first fallback hit.

        Returns (text, language that supplied it).
        """
        hit = self.labels.get((node, lang))
        if hit is not None:
            return hit, lang
        for fb in self.fallback_chain:
            hit = self.labels.get((node, fb))
            if hit is not None:
                return hit, fb
        raise NoLabel(f"node {node} has no label in {lang!r} or its fallbacks")

    def lookup(self, lang: str, text: str) -> set[NodeId]:
        """Exact-match reverse lookup; no fallback, no normalization."""
        held = self.reverse.get(lang, {}).get(text, {})
        return set(held) if type(held) is dict else {held}

    def lookup_any(self, text: str) -> set[NodeId]:
        """Exact-match reverse lookup in every language that has labels."""
        hits: set[NodeId] = set()
        for texts in self.reverse.values():
            held = texts.get(text, {})
            if type(held) is dict:
                hits.update(held)
            else:
                hits.add(held)
        return hits

    def items(self) -> list[tuple[NodeId, str, str]]:
        """All entries as (node, lang, text), sorted for stable output."""
        return sorted((n, lang, t) for (n, lang), t in self.labels.items())
