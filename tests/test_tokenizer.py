"""Unit tests for the shared tokenizer/normalizer."""
from __future__ import annotations

import pytest

from repro.embed_model.tokenizer import (
    char_ngrams,
    normalize,
    numeric_bin,
    tokenize,
)


@pytest.mark.parametrize(
    "value,expected",
    [
        ("Acme Corp", ["acme", "corp"]),
        ("ACME CORP", ["acme", "corp"]),
        ("acme-corp", ["acme", "corp"]),
        ("acme_corp", ["acme", "corp"]),
        ("ref/acme/corp", ["ref", "acme", "corp"]),
        ("  spaced   out ", ["spaced", "out"]),
        ("", []),
        (None, []),
        ("Acme#123", ["acme", "<num:2>"]),
        ("A.B.C", ["a", "b", "c"]),
        ("ümlaut", ["mlaut"]),  # non-ascii folded to separators
    ],
)
def test_tokenize_strings(value, expected):
    assert tokenize(value) == expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (42, ["<num:1>"]),
        (0, ["<num:0>"]),
        (0.5, ["<num:-1>"]),
        (1234.5, ["<num:3>"]),
        (-17, ["<num:1>"]),
        ("3.14", ["<num:0>"]),
        ("1000000", ["<num:6>"]),
    ],
)
def test_tokenize_numbers(value, expected):
    assert tokenize(value) == expected


@pytest.mark.parametrize(
    "tok,expected",
    [
        ("42", "<num:1>"),
        ("0", "<num:0>"),
        ("0.05", "<num:-2>"),
        ("999", "<num:2>"),
        ("1000", "<num:3>"),
        ("abc", None),
        ("12ab", None),
        ("", None),
    ],
)
def test_numeric_bin(tok, expected):
    assert numeric_bin(tok) == expected


@pytest.mark.parametrize(
    "a,b",
    [
        ("Acme Corp", "ACME-CORP"),
        ("Acme Corp", "acme_corp"),
        ("one two three", "One  Two  THREE"),
    ],
)
def test_normalize_format_invariance(a, b):
    assert normalize(a) == normalize(b)


def test_normalize_prefixed_format_is_suffix():
    """The 'prefixed' rendering adds a prefix token but keeps the
    entity's normalized form as a suffix."""
    assert normalize("ref/acme/corp").endswith(normalize("Acme Corp"))


@pytest.mark.parametrize(
    "a,b",
    [
        ("Acme Corp", "Acme Inc"),
        ("alpha", "beta"),
        ("x 1", "x 100"),  # different magnitude bins
    ],
)
def test_normalize_distinguishes(a, b):
    assert normalize(a) != normalize(b)


def test_nan_string_dropped():
    assert tokenize("nan") == []
    assert tokenize("None") == []


@pytest.mark.parametrize(
    "tok,n,expected",
    [
        ("ab", 3, ["^ab", "ab$"]),
        ("abc", 3, ["^ab", "abc", "bc$"]),
        ("a", 3, ["^a$"]),
    ],
)
def test_char_ngrams(tok, n, expected):
    assert char_ngrams(tok, n) == expected


def test_char_ngrams_cover_token():
    grams = char_ngrams("warpgate")
    assert grams[0].startswith("^")
    assert grams[-1].endswith("$")
    assert all(len(g) == 3 for g in grams)


def test_normalize_idempotent_on_word_values():
    v = "Acme Corp Holdings"
    assert normalize(normalize(v)) == normalize(v)
