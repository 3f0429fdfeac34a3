"""Embedding providers for context scoring.

A provider exposes ``tokenize(text) -> list[str]`` and
``vector(token) -> ndarray | None`` and must be deterministic across
calls with a constant vector width.  Implementations must be safe for
concurrent reads.

Two providers ship:

* :class:`TrigramHashEmbedding`: character-trigram hashing into a fixed
  width.  Fully offline and deterministic, so the whole linking pipeline
  is testable without model files.  Identical tokens get identical
  vectors (cosine 1); strings sharing trigrams get positive cosine.
* :class:`WordVectorEmbedding`: loads a standard text vector file
  ("<count> <dim>" header, then exactly <count> "<token> <floats>"
  lines, every float finite) for realistic use with pretrained vectors.
"""

from __future__ import annotations

import re
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

from .errors import InputError
from .util import read_lines

# numpy is imported where vectors are built or compared, so commands that
# never embed (convert, dim, score) do not pay for it.
if TYPE_CHECKING:
    import numpy as np

# Latin/digit runs stay whole; each CJK character is its own token, which
# keeps Chinese keyword matching exact without a segmenter.
_TOKEN_RE = re.compile(r"[A-Za-z]+|[0-9]+|[㐀-鿿]")


def tokenize(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class EmbeddingProvider(Protocol):
    dim: int

    def tokenize(self, text: str) -> list[str]: ...

    def vector(self, token: str) -> np.ndarray | None: ...


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    import numpy as np

    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class TrigramHashEmbedding:
    """Deterministic character-trigram hashing embedder.

    The width keeps the cosine of unrelated tokens near zero, so context
    scores of unrelated units stay comparable instead of being dominated
    by hash-collision noise.
    """

    dim = 512

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}

    def tokenize(self, text: str) -> list[str]:
        return tokenize(text)

    def vector(self, token: str) -> np.ndarray | None:
        token = token.lower()
        hit = self._cache.get(token)
        if hit is not None:
            return hit
        import numpy as np

        padded = f"^{token}$"
        v = np.zeros(self.dim, dtype=np.float64)
        for i in range(max(1, len(padded) - 2)):
            gram = padded[i : i + 3]
            h = zlib.crc32(gram.encode("utf-8"))
            sign = 1.0 if (h >> 16) & 1 else -1.0
            v[h % self.dim] += sign
        norm = np.linalg.norm(v)
        if norm > 0:
            v /= norm
        self._cache[token] = v
        return v


class WordVectorEmbedding:
    """File-backed provider over a text vector file."""

    def __init__(self, path: str | Path):
        import numpy as np

        lines = read_lines(path)
        lineno = 1
        self._table: dict[str, np.ndarray] = {}
        try:
            header, *rows = lines or [""]
            count, self.dim = map(int, header.split())
            if count != len(rows):
                raise ValueError(f"header declares {count} vectors, file has {len(rows)}")
            for lineno, line in enumerate(rows, 2):
                token, *values = line.rstrip().split(" ")
                if len(values) != self.dim:
                    raise ValueError(f"expected {self.dim} values, got {len(values)}")
                vector = np.asarray([float(x) for x in values], dtype=np.float64)
                if not np.isfinite(vector).all():
                    raise ValueError("non-finite value")
                self._table[token] = vector
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: malformed vector file ({exc})") from None

    def tokenize(self, text: str) -> list[str]:
        return tokenize(text)

    def vector(self, token: str) -> np.ndarray | None:
        return self._table.get(token.lower(), self._table.get(token))
