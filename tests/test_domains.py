"""Unit tests for entity domains, lexicons, and formatting variants."""
from __future__ import annotations

import pytest

from repro.corpus.domains import (
    FORMAT_NAMES,
    FORMATS,
    KIND_FAMILIES,
    build_universe,
    default_universe,
    format_values,
    make_domain,
)


@pytest.fixture(scope="module")
def dom():
    return make_domain("company_test", "company", seed=5, n_entities=100)


def test_make_domain_deterministic():
    a = make_domain("d", "geo", seed=9, n_entities=50)
    b = make_domain("d", "geo", seed=9, n_entities=50)
    assert a.entities == b.entities
    assert a.lexicon == b.lexicon


def test_make_domain_seed_changes_entities():
    a = make_domain("d", "geo", seed=9, n_entities=50)
    b = make_domain("d", "geo", seed=10, n_entities=50)
    assert a.entities != b.entities


def test_domain_entity_count(dom):
    assert len(dom.entities) == 100
    assert len(set(dom.entities)) == 100


def test_domain_entities_titlecased(dom):
    assert all(e == e.title() for e in dom.entities)


def test_disjoint_lexicons_across_kinds():
    a = make_domain("a", "company", seed=1, n_entities=20)
    b = make_domain("b", "person", seed=2, n_entities=20)
    overlap = set(a.lexicon) & set(b.lexicon)
    # Pseudo-word construction makes collisions rare, not impossible.
    assert len(overlap) <= 0.1 * min(len(a.lexicon), len(b.lexicon))


def test_shared_words_injected():
    shared = ["zzcommonzz"]
    d = make_domain("d", "geo", seed=3, shared_words=shared)
    assert "zzcommonzz" in d.lexicon


@pytest.mark.parametrize("fmt", FORMAT_NAMES)
def test_formats_preserve_semantics(fmt, dom):
    """Every format is a normalization-invariant rendering (modulo the
    numeric suffix variant, which only appends magnitude tokens)."""
    from repro.embed_model.tokenizer import normalize

    v = dom.entities[0]
    formatted = FORMATS[fmt](v)
    if fmt == "suffix_id":  # appends a magnitude token
        assert normalize(formatted).startswith(normalize(v))
    elif fmt == "prefixed":  # prepends a constant token
        assert normalize(formatted).endswith(normalize(v))
    else:
        assert normalize(formatted) == normalize(v)


@pytest.mark.parametrize("fmt", [f for f in FORMAT_NAMES if f != "identity"])
def test_formats_break_raw_equality_on_multiword(fmt):
    v = "Alpha Beta Gamma"
    assert FORMATS[fmt](v) != v


def test_format_values_batch(dom):
    vals = dom.entities[:5]
    out = format_values(vals, "upper")
    assert out == [v.upper() for v in vals]


def test_suffix_id_deterministic(dom):
    v = dom.entities[0]
    assert FORMATS["suffix_id"](v) == FORMATS["suffix_id"](v)


def test_build_universe_shape():
    uni = build_universe(n_per_kind=2, n_entities=30, seed=7)
    assert len(uni.domains) == 2 * len(KIND_FAMILIES)
    assert len(set(uni.names)) == len(uni.domains)


def test_universe_by_name():
    uni = build_universe(n_per_kind=2, n_entities=30, seed=7)
    d = uni.domains[3]
    assert uni.by_name(d.name) is d
    with pytest.raises(KeyError):
        uni.by_name("nope")


def test_default_universe_cached_and_sized():
    a = default_universe()
    b = default_universe()
    assert a is b
    assert len(a.domains) == 12 * len(KIND_FAMILIES)


def test_sibling_domains_share_family_words():
    uni = build_universe(n_per_kind=4, n_entities=30, seed=7)
    fam = [d for d in uni.domains if d.kind == "company"]
    # Even-indexed siblings carry the injected shared words.
    shared_even = set(fam[0].lexicon) & set(fam[2].lexicon)
    assert shared_even, "even siblings should share family vocabulary"
