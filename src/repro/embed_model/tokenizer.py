"""Shared value normalization and tokenization.

Every system in this repo (WarpGate's embedding pipeline, the embedding
model trainer, and the D3L word-embedding signal) tokenizes cell values
the same way, mirroring the preprocessing of Web Table Embeddings
(Günther et al., aiDM@SIGMOD 2021): lowercase, punctuation folded to
whitespace, whitespace split. Numeric tokens are binned into magnitude
placeholder tokens (``<num:k>`` where ``k = floor(log10(|x|))``) so that
numeric columns embed by order of magnitude rather than by exact value —
the standard trick for making distributional embeddings usable on
numbers.

Kept dependency-free (pure Python + ``re``) so it can run inside Spark
executors via pandas UDFs without pickling surprises.
"""
from __future__ import annotations

import math
import re

_PUNCT_RE = re.compile(r"[^0-9a-z]+")
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)$")


def numeric_bin(tok: str) -> str | None:
    """Magnitude-bin token for a numeric literal, else ``None``.

    ``"42" -> "<num:1>"``, ``"0.5" -> "<num:-1>"``, ``"0" -> "<num:0>"``.
    """
    if not _NUM_RE.match(tok):
        return None
    x = abs(float(tok))
    if x == 0:
        return "<num:0>"
    return f"<num:{int(math.floor(math.log10(x)))}>"


def tokenize(value) -> list[str]:
    """Tokenize one cell value into normalized tokens.

    ``None``/NaN yield no tokens. Non-string values are stringified
    first, so the same path serves string, numeric, and date columns.
    """
    if value is None:
        return []
    s = str(value)
    if not s or s == "nan" or s == "None":
        return []
    # Whole-value numeric literal (incl. decimals, whose '.' would
    # otherwise be split as punctuation): one magnitude-bin token.
    whole = numeric_bin(s.strip().lower())
    if whole is not None:
        return [whole]
    out: list[str] = []
    for raw in _PUNCT_RE.split(s.lower()):
        if not raw:
            continue
        nb = numeric_bin(raw)
        out.append(nb if nb is not None else raw)
    return out


def normalize(value) -> str:
    """Canonical join-key form of a value: its tokens joined by spaces.

    Two values that differ only in case/punctuation/format normalize to
    the same string — this is the "transformed to become joinable"
    notion used by the ground-truth containment labeler.
    """
    return " ".join(tokenize(value))


def char_ngrams(tok: str, n: int = 3) -> list[str]:
    """Padded character n-grams of a token (fastText-style OOV units)."""
    padded = f"^{tok}$"
    if len(padded) <= n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]
