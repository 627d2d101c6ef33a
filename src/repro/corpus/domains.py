"""Entity domains, lexicons, and formatting variants for synthetic corpora.

The real evaluation corpora (NextiaJD testbeds, Spider, the Sigma Sample
Database) are not shippable offline, so we rebuild their *structure*: a
universe of semantic **domains** (companies, countries, tickers, people,
products, ...), each with its own lexicon of content words. A joinable
column pair is two columns whose values are drawn from the same domain's
entity pool — possibly rendered with different surface **formats**
(case, separators, prefixes, id suffixes) so that syntactic set overlap
is broken while semantic identity is preserved. That is exactly the
regime WarpGate targets ("columns that can be transformed to become
joinable even if they are not joinable as currently represented").

Design choices that matter downstream:

* Lexicons are deterministic pseudo-word sets generated from
  domain-seeded RNGs, guaranteeing near-disjoint vocabularies between
  unrelated domains (so embeddings can separate them) while *related*
  domains (``kind`` families, e.g. two geo domains) share a fraction of
  words — the confusable distractors that keep precision below 1.0.
* A small, fixed fraction of each entity pool is generated OOV relative
  to the embedding training corpus (see ``embed_model.webtable_corpus``),
  exercising the char-n-gram fallback path.
"""
from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.embed_model.tokenizer import normalize

_SYLLABLES = [
    "ba", "co", "da", "fe", "gi", "ho", "ja", "ka", "lu", "mi",
    "no", "pa", "qu", "ra", "sa", "ti", "ur", "va", "wo", "xe",
    "yo", "zu", "bri", "cla", "dro", "fli", "gra", "ple", "sta", "tru",
]

# Family stems give related domains a shared flavour of words so that
# e.g. two different "geo" domains produce confusable embeddings.
KIND_FAMILIES = {
    "company": ["corp", "inc", "group", "systems", "labs", "holdings"],
    "geo": ["land", "ville", "port", "stan", "ia", "burg"],
    "person": ["son", "sen", "ez", "ova", "ini", "ton"],
    "product": ["pro", "max", "lite", "ultra", "mini", "plus"],
    "finance": ["fund", "bond", "cap", "index", "share", "asset"],
    "usage": ["node", "host", "proc", "svc", "api", "job"],
}


def _words(seed: int, n: int, suffixes: list[str]) -> list[str]:
    """Deterministic pseudo-words: 2-3 syllables + an optional family suffix."""
    g = np.random.default_rng(seed)
    out: set[str] = set()
    while len(out) < n:
        k = int(g.integers(2, 4))
        w = "".join(g.choice(_SYLLABLES) for _ in range(k))
        if g.random() < 0.4:
            w += str(g.choice(suffixes))
        out.add(w)
    return sorted(out)


@dataclass(frozen=True)
class Domain:
    """One semantic domain: a lexicon plus an entity pool drawn from it."""

    name: str
    kind: str  # one of KIND_FAMILIES keys
    lexicon: list[str]
    entities: list[str]  # canonical (unformatted) entity strings

    def pool(self) -> list[str]:
        return self.entities


def make_domain(
    name: str,
    kind: str,
    seed: int,
    *,
    n_words: int = 60,
    n_entities: int = 400,
    words_per_entity: tuple[int, int] = (1, 3),
    shared_words: list[str] | None = None,
    oov_frac: float = 0.1,
) -> Domain:
    """Build a domain with ``n_entities`` multi-word entities.

    ``shared_words`` injects family-level vocabulary overlap between
    sibling domains. ``oov_frac`` of entities get an extra pseudo-word
    that is *excluded from the embedding training corpus* by convention:
    training only sees lexicon words, and OOV markers are built with a
    distinct RNG stream (see ``Domain``'s ``lexicon`` vs entity text).
    """
    suffixes = KIND_FAMILIES.get(kind, ["x"])
    lex = _words(seed, n_words, suffixes)
    if shared_words:
        lex = sorted(set(lex) | set(shared_words))
    g = np.random.default_rng(seed + 1_000_003)
    oov_words = _words(seed + 7_777_777, max(4, n_words // 8), suffixes)
    ents: set[str] = set()
    attempts = 0
    while len(ents) < n_entities and attempts < n_entities * 50:
        attempts += 1
        k = int(g.integers(words_per_entity[0], words_per_entity[1] + 1))
        words = [str(g.choice(lex)) for _ in range(k)]
        if g.random() < oov_frac:
            words.append(str(g.choice(oov_words)))
        ents.add(" ".join(words).title())
    return Domain(name=name, kind=kind, lexicon=lex, entities=sorted(ents))


# ---------------------------------------------------------------------------
# Formatting variants
# ---------------------------------------------------------------------------

def _fmt_identity(v: str) -> str:
    return v


def _fmt_upper(v: str) -> str:
    return v.upper()


def _fmt_lower(v: str) -> str:
    return v.lower()


def _fmt_snake(v: str) -> str:
    return v.lower().replace(" ", "_")


def _fmt_dashed(v: str) -> str:
    return v.upper().replace(" ", "-")


def _fmt_prefixed(v: str) -> str:
    return f"ref/{v.lower().replace(' ', '/')}"


def _fmt_suffix_id(v: str) -> str:
    # Deterministic per-value numeric suffix (crc32, not hash() — the
    # latter is salted per process); numeric bin tokens keep the core
    # words dominant in the embedding.
    h = zlib.crc32(v.encode()) % 900 + 100
    return f"{v} #{h}"


FORMATS = {
    "identity": _fmt_identity,
    "upper": _fmt_upper,
    "lower": _fmt_lower,
    "snake": _fmt_snake,
    "dashed": _fmt_dashed,
    "prefixed": _fmt_prefixed,
    "suffix_id": _fmt_suffix_id,
}

# Formats whose output still *string-matches* identity output for ASCII
# title-case single tokens are none — every non-identity format breaks
# raw-string equality on multi-word entities, which is the point.
FORMAT_NAMES = list(FORMATS)


def format_values(values: list[str], fmt: str) -> list[str]:
    f = FORMATS[fmt]
    return [f(v) for v in values]


@dataclass
class DomainUniverse:
    """The full set of domains available to corpus generators.

    One universe is shared by the embedding-model training corpus and the
    evaluation corpora — the analogue of web tables and enterprise
    warehouses covering the same real-world domains.
    """

    domains: list[Domain] = field(default_factory=list)

    def by_name(self, name: str) -> Domain:
        for d in self.domains:
            if d.name == name:
                return d
        raise KeyError(name)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.domains]


def build_universe(
    *,
    n_per_kind: int = 8,
    n_entities: int = 400,
    seed: int = 42,
) -> DomainUniverse:
    """Standard universe: ``n_per_kind`` domains per family.

    Sibling domains within a family share a small common word set (drawn
    once per family) — the source of semantic confusability.
    """
    domains: list[Domain] = []
    for fi, kind in enumerate(sorted(KIND_FAMILIES)):
        fam_seed = seed + 10_000 * (fi + 1)
        shared = _words(fam_seed, 8, KIND_FAMILIES[kind])
        for j in range(n_per_kind):
            domains.append(
                make_domain(
                    f"{kind}_{j}",
                    kind,
                    fam_seed + 97 * (j + 1),
                    n_entities=n_entities,
                    shared_words=shared if j % 2 == 0 else None,
                )
            )
    return DomainUniverse(domains=domains)


@functools.lru_cache(maxsize=1)
def default_universe() -> DomainUniverse:
    """The canonical domain universe shared by the embedding training
    corpus and every evaluation corpus (the analogue of web tables and
    enterprise warehouses covering the same real-world domains).

    Pools are sized so that per-column distinct counts keep growing with
    table size at benchmark scale (the effective pool is ``rows/3``
    capped by the domain pool) — the property Table 2's linear-growth
    claim rests on.
    """
    return build_universe(n_per_kind=12, n_entities=1200, seed=1017)
