"""Embedding providers for context scoring.

A provider exposes ``tokenize(text) -> list[str]`` and
``vector(token) -> Vector | None`` and must be deterministic across
calls with a constant vector width.  Implementations must be safe for
concurrent reads.  A vector brings its provider's dot product,
``v.dot(w)``, and its support, ``v.support()``, the indices of its
nonzero entries; linking takes every norm and cosine through that dot.

Two providers ship:

* :class:`TrigramHashEmbedding`: character-trigram hashing into a fixed
  width.  Fully offline and deterministic, so the whole linking pipeline
  is testable without model files.  Identical tokens get identical
  vectors (cosine 1); strings sharing trigrams get positive cosine.  Each
  vector is a :class:`TrigramVector`, whose dot product is plain Python
  summed in one fixed order.
* :class:`WordVectorEmbedding`: loads a standard text vector file
  ("<count> <dim>" header, then exactly <count> "<token> <floats>"
  lines) for realistic use with pretrained vectors.  Each vector is a
  :class:`WordVector`, whose dot product is correctly rounded.

So every score has the same bits on any IEEE-754 machine and interpreter.
"""

from __future__ import annotations

import math
import operator
import re
import zlib
from pathlib import Path
from typing import Collection, Protocol

from .errors import InputError
from .util import read_lines

# Latin/digit runs stay whole; each CJK character is its own token, which
# keeps Chinese keyword matching exact without a segmenter.
_TOKEN_RE = re.compile(r"[A-Za-z]+|[0-9]+|[㐀-鿿]")


def tokenize(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class Vector(Protocol):
    """What linking reads of a vector: its provider's dot product, and its
    support, the indices of its nonzero entries."""

    def dot(self, other: Vector) -> float: ...

    def support(self) -> Collection[int]: ...


class EmbeddingProvider(Protocol):
    """Tokens and their vectors.  Linking takes every norm and cosine
    through the vectors' own dot product, so the provider fixes the
    summation order, and with it the bits of every context score.  A
    vector's dot with itself must be finite, and positive if its support
    is not empty, or linking raises LinkingConfigError naming the token."""

    dim: int

    def tokenize(self, text: str) -> list[str]: ...

    def vector(self, token: str) -> Vector | None: ...


def cosine(a: Vector, b: Vector) -> float:
    """``a.dot(b)`` over the product of the norms, the token's first; 0
    when either norm is 0.  A norm is the root of the vector's dot with
    itself."""
    na, nb = math.sqrt(a.dot(a)), math.sqrt(b.dot(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return a.dot(b) / (na * nb)


# Veltkamp's splitter for a 53-bit significand: 2**27 + 1.
_SPLIT = 134217729.0


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c with one rounding (math.fma exists only from 3.13).

    Dekker's TwoProduct (1971) gives the product's rounding error
    exactly, from Veltkamp's halves of each factor, and ``math.fsum``
    rounds the exact sum of product, error and c correctly (Shewchuk
    1997).  Exact while a * b neither overflows nor underflows, which
    holds for unit-norm trigram entries.
    """
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return c + p if err == 0.0 else math.fsum((p, err, c))


def _lane_sum(acc: list[float]) -> float:
    """The fixed reduction of the 32 partial sums: each 8-lane block folds
    its upper half onto its lower one, the four blocks are added in
    order, and the four lanes left are summed as (0 + 2) + (1 + 3)."""
    u = [
        (((acc[j] + acc[j + 4]) + (acc[8 + j] + acc[12 + j])) + (acc[16 + j] + acc[20 + j]))
        + (acc[24 + j] + acc[28 + j])
        for j in range(4)
    ]
    return (u[0] + u[2]) + (u[1] + u[3])


class TrigramVector:
    """A 512-wide vector held by its nonzero entries, in increasing index
    order.

    :meth:`dot` sums in the order of OpenBLAS's AVX-512 ``ddot``, the one
    the recorded outputs encode: entry ``i`` goes into partial sum
    ``i % 32`` by a fused multiply-add, in increasing ``i``, and the 32
    partial sums are reduced by :func:`_lane_sum`.  Only the indices
    where both vectors are nonzero are visited: every other product is
    a zero, which leaves a partial sum unchanged (no partial sum is ever
    -0.0, as the sums start at +0.0).
    """

    __slots__ = ("entries",)
    dim = 512

    def __init__(self, entries: dict[int, float]):
        self.entries = entries

    def support(self) -> Collection[int]:
        return self.entries.keys()

    def dot(self, other: TrigramVector) -> float:
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        acc = [0.0] * 32
        for i, x in a.items():
            y = b.get(i)
            if y is not None:
                acc[i & 31] = _fma(x, y, acc[i & 31])
        return _lane_sum(acc)


class TrigramHashEmbedding:
    """Deterministic character-trigram hashing embedder.

    The width keeps the cosine of unrelated tokens near zero, so context
    scores of unrelated units stay comparable instead of being dominated
    by hash-collision noise.  A token's vector is its signed trigram
    counts over the root of their sum of squares; a token whose counts
    all cancel gets the zero vector.
    """

    dim = TrigramVector.dim

    def __init__(self):
        self._cache: dict[str, TrigramVector] = {}

    def tokenize(self, text: str) -> list[str]:
        return tokenize(text)

    def vector(self, token: str) -> TrigramVector:
        token = token.lower()
        hit = self._cache.get(token)
        if hit is not None:
            return hit
        padded = f"^{token}$"
        counts: dict[int, int] = {}
        for i in range(max(1, len(padded) - 2)):
            h = zlib.crc32(padded[i : i + 3].encode("utf-8"))
            index = h % self.dim
            counts[index] = counts.get(index, 0) + (1 if (h >> 16) & 1 else -1)
        norm = math.sqrt(sum(c * c for c in counts.values()))
        v = self._cache[token] = TrigramVector(
            {i: c / norm for i, c in sorted(counts.items()) if c}
        )
        return v


class WordVector(tuple):
    """A word vector's float entries.  :meth:`dot` rounds each product
    once and their exact sum once (``math.fsum``), so its bits depend on
    no machine, interpreter or order of the entries."""

    __slots__ = ()

    def dot(self, other: WordVector) -> float:
        return math.fsum(map(operator.mul, self, other))

    def support(self) -> Collection[int]:
        return [i for i, x in enumerate(self) if x]


class WordVectorEmbedding:
    """File-backed provider over a text vector file.  A row fails to load
    when its squared norm is not finite, or is 0 while a value is not."""

    def __init__(self, path: str | Path):
        lines = read_lines(path)
        lineno = 1
        self._table: dict[str, WordVector] = {}
        try:
            header, *rows = lines or [""]
            count, self.dim = map(int, header.split())
            if count != len(rows):
                raise ValueError(f"header declares {count} vectors, file has {len(rows)}")
            for lineno, line in enumerate(rows, 2):
                token, *values = line.rstrip().split(" ")
                if len(values) != self.dim:
                    raise ValueError(f"expected {self.dim} values, got {len(values)}")
                vector = WordVector(map(float, values))
                try:
                    square = vector.dot(vector)
                except OverflowError:  # fsum's partial sum left the float range
                    square = math.inf
                if not (0.0 < square < math.inf or square == 0.0 and not any(vector)):
                    raise ValueError(f"a nonzero row's squared norm is {square!r}")
                self._table[token] = vector
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: malformed vector file ({exc})") from None

    def tokenize(self, text: str) -> list[str]:
        return tokenize(text)

    def vector(self, token: str) -> WordVector | None:
        return self._table.get(token.lower(), self._table.get(token))
