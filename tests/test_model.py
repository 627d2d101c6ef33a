"""Unit tests for EmbeddingModel (lookup, pooling, OOV fallback, I/O)."""
from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embed_model import model as model_module
from repro.embed_model.model import EmbeddingModel, _ngram_vector, cosine
from repro.embed_model.tokenizer import char_ngrams, tokenize


@pytest.fixture(scope="module")
def tiny_model():
    g = np.random.default_rng(0)
    vocab = {t: i for i, t in enumerate(["alpha", "beta", "gamma", "delta"])}
    vecs = g.standard_normal((4, 16)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return EmbeddingModel(vocab=vocab, vectors=vecs)


def test_dim(tiny_model):
    assert tiny_model.dim == 16


def test_token_vector_in_vocab(tiny_model):
    v = tiny_model.token_vector("alpha")
    assert np.allclose(v, tiny_model.vectors[0])


def test_token_vector_oov_deterministic(tiny_model):
    a = tiny_model.token_vector("zzunknown")
    b = tiny_model.token_vector("zzunknown")
    assert np.allclose(a, b)
    assert a.shape == (16,)


def test_oov_scale_bounds_norm(tiny_model):
    v = tiny_model.token_vector("zzunknown")
    assert np.linalg.norm(v) <= tiny_model.oov_scale + 1e-5


def test_distinct_oov_tokens_differ(tiny_model):
    a = tiny_model.token_vector("zzunknown")
    b = tiny_model.token_vector("qqother")
    assert not np.allclose(a, b)


def test_embed_tokens_normalized(tiny_model):
    v = tiny_model.embed_tokens(["alpha", "beta"])
    assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-5)


def test_embed_tokens_empty(tiny_model):
    assert tiny_model.embed_tokens([]) is None


def test_embed_value_none(tiny_model):
    assert tiny_model.embed_tokens(tokenize(None)) is None
    assert tiny_model.embed_tokens(tokenize("")) is None


def test_embed_values_dedups(tiny_model):
    """Value multiplicity must not move the column embedding."""
    once = tiny_model.embed_values(["alpha beta", "gamma"])
    dup = tiny_model.embed_values(["alpha beta"] * 100 + ["gamma"])
    assert np.allclose(once, dup, atol=1e-6)


def test_embed_values_order_of_duplicates_irrelevant(tiny_model):
    a = tiny_model.embed_values(["alpha", "beta", "alpha"])
    b = tiny_model.embed_values(["beta", "alpha", "beta"])
    assert np.allclose(a, b, atol=1e-6)


def test_embed_values_mixed_types(tiny_model):
    v = tiny_model.embed_values(["alpha", 42, None])
    assert v is not None and v.shape == (16,)


def test_save_load_roundtrip(tiny_model, tmp_path):
    p = str(tmp_path / "m.npz")
    tiny_model.save(p)
    loaded = EmbeddingModel.load(p)
    assert loaded.vocab == tiny_model.vocab
    assert np.allclose(loaded.vectors, tiny_model.vectors)
    assert loaded.oov_scale == tiny_model.oov_scale


def test_cosine_basics():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, b) == pytest.approx(0.0)
    assert cosine(a, -a) == pytest.approx(-1.0)
    assert cosine(a, np.zeros(2)) == 0.0


def test_ngram_vector_scale():
    v = _ngram_vector("token", 32, 0.5)
    assert v.shape == (32,)
    assert np.isclose(np.linalg.norm(v), 0.5, atol=1e-5)


def _per_gram_rng_vector(token: str, dim: int, scale: float) -> np.ndarray:
    """Reference OOV vector without the row cache: a fresh seeded
    generator per trigram, rows summed one at a time in float64."""
    acc = np.zeros(dim, dtype=np.float64)
    for gram in char_ngrams(token):
        bucket = zlib.crc32(gram.encode()) % (1 << 15)
        acc += np.random.default_rng(bucket).standard_normal(dim)
    n = np.linalg.norm(acc)
    if n > 0:
        acc = acc / n * scale
    return acc.astype(np.float32)


def _cache_within_bound() -> bool:
    return all(len(rows) <= 1 << 15 for rows in model_module._BUCKET_ROWS.values())


_oov_tokens = st.one_of(
    st.just(""),
    st.text(max_size=1),
    st.text(alphabet="abcxyz019", max_size=12),
    st.text(max_size=20),  # any code point, non-ASCII included
)


@given(_oov_tokens, st.sampled_from([1, 3, 16, 64, 150]))
@settings(max_examples=300, deadline=None)
def test_ngram_vector_bit_identical_to_per_gram_rng(token, dim):
    got = _ngram_vector(token, dim, 0.5)
    assert np.array_equal(got, _per_gram_rng_vector(token, dim, 0.5))
    assert _cache_within_bound()


@given(_oov_tokens)
@settings(max_examples=200, deadline=None)
def test_token_vector_bit_identical_to_per_gram_rng(tiny_model, token):
    got = tiny_model.token_vector(token)
    if token in tiny_model.vocab:
        expected = tiny_model.vectors[tiny_model.vocab[token]]
    else:
        expected = _per_gram_rng_vector(token, tiny_model.dim, tiny_model.oov_scale)
    assert np.array_equal(got, expected)
    assert _cache_within_bound()


def test_bucket_cache_holds_only_used_buckets():
    """More distinct trigrams than buckets: the cache ends up with
    exactly the buckets they hash to, at most 2**15 read-only rows."""
    dim = 2
    model_module._BUCKET_ROWS.pop(dim, None)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    used: set[int] = set()
    for chars in itertools.product(alphabet, repeat=3):
        token = "".join(chars)
        _ngram_vector(token, dim, 0.5)
        used.update(zlib.crc32(g.encode()) % (1 << 15) for g in char_ngrams(token))
    rows = model_module._BUCKET_ROWS[dim]
    assert set(rows) == used
    assert len(rows) <= 1 << 15
    assert not any(r.flags.writeable for r in rows.values())


def test_trained_model_clusters_domains(model, universe):
    """Same-domain columns embed close; cross-domain far (the property
    the whole system rests on)."""
    from repro.corpus.domains import format_values

    d0 = universe.domains[0]
    d_far = next(d for d in universe.domains if d.kind != d0.kind)
    a = model.embed_values(format_values(d0.entities[:50], "identity"))
    b = model.embed_values(format_values(d0.entities[25:75], "snake"))
    c = model.embed_values(format_values(d_far.entities[:50], "upper"))
    assert cosine(a, b) > 0.85
    assert cosine(a, c) < 0.5
    assert cosine(a, b) > cosine(a, c) + 0.3
