"""Canonical structural digests for compilation-cache keys.

Hash-consing needs a key that is (a) *injective* on the structures being
interned — two regexes share a digest iff they are structurally equal —
and (b) cheap to compare and store.  Python's frozen dataclasses give
structural equality, but hashing them is O(size) on every lookup and the
hash is per-process; a content digest is stable across processes, which
is what lets the on-disk cache warm-start peer restarts and repeated CLI
runs (see :mod:`repro.compile.persist`).

The serialization below is a prefix code: every variable-length field
(symbols, child lists) is length-prefixed, so distinct ASTs can never
serialize to the same byte string.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.regex.ast import (
    Alt,
    AnySymbol,
    Atom,
    Empty,
    Epsilon,
    Regex,
    Repeat,
    Seq,
    Star,
)


def _symbol(out: List[str], symbol: str) -> None:
    out.append("%d:%s" % (len(symbol), symbol))


def _serialize(r: Regex, out: List[str]) -> None:
    if isinstance(r, Atom):
        out.append("a")
        _symbol(out, r.symbol)
    elif isinstance(r, Epsilon):
        out.append("e")
    elif isinstance(r, Empty):
        out.append("0")
    elif isinstance(r, AnySymbol):
        exclude = sorted(r.exclude)
        out.append("w%d" % len(exclude))
        for symbol in exclude:
            _symbol(out, symbol)
    elif isinstance(r, Seq):
        out.append("s%d(" % len(r.items))
        for item in r.items:
            _serialize(item, out)
        out.append(")")
    elif isinstance(r, Alt):
        out.append("|%d(" % len(r.options))
        for option in r.options:
            _serialize(option, out)
        out.append(")")
    elif isinstance(r, Star):
        out.append("*(")
        _serialize(r.item, out)
        out.append(")")
    elif isinstance(r, Repeat):
        out.append("r%d,%s(" % (r.low, "" if r.high is None else r.high))
        _serialize(r.item, out)
        out.append(")")
    else:
        raise TypeError("cannot digest unknown regex node %r" % (r,))


def _hexdigest(parts: Iterable[str]) -> str:
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


def regex_digest(r: Regex) -> str:
    """Content digest of a regex AST (injective on structural equality)."""
    out: List[str] = []
    _serialize(r, out)
    return _hexdigest(out)


def symbols_digest(symbols: Iterable[str]) -> str:
    """Content digest of a symbol set (alphabets, invocable partitions)."""
    out: List[str] = ["S"]
    for symbol in sorted(symbols):
        _symbol(out, symbol)
    return _hexdigest(out)


def word_digest(word: Sequence[str]) -> str:
    """Content digest of a children word."""
    out: List[str] = ["W%d" % len(word)]
    out.extend(["%d:%s" % (len(symbol), symbol) for symbol in word])
    return _hexdigest(out)


def mapping_digest(pairs: Dict[str, str]) -> str:
    """Content digest of a ``name -> digest`` mapping (output types)."""
    out: List[str] = ["M%d" % len(pairs)]
    for name in sorted(pairs):
        _symbol(out, name)
        _symbol(out, pairs[name])
    return _hexdigest(out)


def key_digest(key: Tuple) -> str:
    """Filename-safe digest of a fully-interned cache key.

    Keys are flat tuples of strings and ints by construction (see
    :meth:`repro.compile.cache.CompilationCache`), so ``repr`` is stable
    and unambiguous.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
