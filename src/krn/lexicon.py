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


class Lexicon:
    def __init__(self, fallback_chain: tuple[str, ...] = ("en",)):
        self.labels: dict[tuple[NodeId, str], str] = {}
        self.reverse: dict[tuple[str, str], set[NodeId]] = {}
        self.fallback_chain = list(fallback_chain)
        self.languages: set[str] = set()

    def set_label(self, node: NodeId, lang: str, text: str) -> None:
        # `languages` holds only tags that passed this check
        if lang not in self.languages and not valid_language_tag(lang):
            raise BadLanguageTag(f"bad language tag {lang!r}")
        old = self.labels.get((node, lang))
        if old is not None:
            bucket = self.reverse.get((lang, old))
            if bucket is not None:
                bucket.discard(node)
                if not bucket:
                    del self.reverse[(lang, old)]
        self.labels[(node, lang)] = text
        self.languages.add(lang)
        self.reverse.setdefault((lang, text), set()).add(node)

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
        return set(self.reverse.get((lang, text), set()))

    def lookup_any(self, text: str) -> set[NodeId]:
        """Exact-match reverse lookup in every language that has labels."""
        hits: set[NodeId] = set()
        for lang in self.languages:
            hits.update(self.reverse.get((lang, text), ()))
        return hits

    def items(self) -> list[tuple[NodeId, str, str]]:
        """All entries as (node, lang, text), sorted for stable output."""
        return sorted((n, lang, t) for (n, lang), t in self.labels.items())
