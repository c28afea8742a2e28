"""Shared text utilities: the frozen tokenizer, and a finder for bytes that are not UTF-8."""

from __future__ import annotations

import re
from pathlib import Path

_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Case-fold and split on runs of non-alphanumeric characters.

    Empty pieces are dropped, so ``tokenize("head, skin of body")`` yields
    ``["head", "skin", "of", "body"]``. This tokenizer is frozen: both the
    answer-overlap metric and ``kg.retrieve_node``'s name index rely on it,
    and changing it would shift every reported score and retrieval.
    """
    return _TOKEN_RE.findall(text.lower())


def first_undecodable_line(path: str | Path) -> int:
    """The number, from 1, of the line holding the first byte of ``path`` that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    raise ValueError(f"{path} decodes as UTF-8")
