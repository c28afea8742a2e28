"""Shared text utilities: the frozen tokenizer, the rule for names that become
paths, a finder for bytes that are not UTF-8, the one JSON decoder, and the
clip for input values an error line echoes."""

from __future__ import annotations

import json
import re
from pathlib import Path

_TOKEN_RE = re.compile(r"[0-9a-z]+")
# What a path component may not hold: a separator, NUL, or a surrogate, which
# UTF-8 cannot encode.
_NOT_IN_PATH_RE = re.compile(r"[/\\\x00\ud800-\udfff]")


def tokenize(text: str) -> list[str]:
    """Case-fold and split on runs of non-alphanumeric characters.

    Empty pieces are dropped, so ``tokenize("head, skin of body")`` yields
    ``["head", "skin", "of", "body"]``. This tokenizer is frozen: both the
    answer-overlap metric and ``kg.retrieve_node``'s name index rely on it,
    and changing it would shift every reported score and retrieval.
    """
    return _TOKEN_RE.findall(text.lower())


def is_path_component(name: str) -> bool:
    """Can ``name`` stand alone in a path, naming one entry of one directory?

    It must be UTF-8 text with no separator or NUL, and not ``.`` or ``..``.
    """
    return name not in ("", ".", "..") and _NOT_IN_PATH_RE.search(name) is None


# The most characters of a rendered input value an error line echoes.
CLIP_CHARS = 80


def clip(rendered: str) -> str:
    """``rendered`` itself if it is at most ``CLIP_CHARS`` long, else its
    first ``CLIP_CHARS`` characters and how long it was, so a hostile value
    cannot stretch an error line."""
    if len(rendered) <= CLIP_CHARS:
        return rendered
    return f"{rendered[:CLIP_CHARS]}... ({len(rendered):,} characters)"


def first_undecodable_line(path: str | Path) -> int:
    """The number, from 1, of the line holding the first byte of ``path`` that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    raise ValueError(f"{path} decodes as UTF-8")


# JSON's own whitespace; ``str.strip()`` with no argument strips more (a form
# feed, say), which the decoder rejects.
_JSON_WHITESPACE = " \t\n\r"
_decode_prefix = json.JSONDecoder().raw_decode


def decode_json(text: str | bytes) -> object:
    """``json.loads(text)``, but every decoding failure is a
    ``json.JSONDecodeError`` (or, for bytes, a ``UnicodeDecodeError``), so
    every reader's handler for malformed JSON covers it: a value nested too
    deeply to decode ("nested too deeply") instead of ``RecursionError``, and
    a number too long for ``int()`` ("number too long") instead of the
    ``ValueError`` of Python's 4,300-digit limit.

    A string that opens with its value is decoded in one pass, skipping
    ``json.loads``' whitespace scans. Anything else (leading whitespace, a
    byte-order mark, bytes, an error) goes to ``json.loads``, which accepts
    what it accepts and words each error its own way.
    """
    try:
        if isinstance(text, str):
            try:
                value, end = _decode_prefix(text)
            except json.JSONDecodeError:
                pass
            else:
                if not text[end:].strip(_JSON_WHITESPACE):
                    return value
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:
        # The digit limit is the one other ValueError the decoder raises.
        raise json.JSONDecodeError("number too long", "", 0) from None
