"""Trigram and word vectors and their dot products.

``TrigramVector.dot`` sums in the order of OpenBLAS's AVX-512 ``ddot``,
the order the recorded perfbench digests and golden files encode: entry
i goes into partial sum i % 32 by a fused multiply-add, in increasing i,
and the 32 partial sums are reduced by a fixed tree.  Two pins: an
exact-rational reference of that order, and numpy itself wherever its
BLAS picks that kernel.  ``WordVector.dot`` is the exact sum of the
rounded products, rounded once: pinned to the same rationals.
"""

import math
import random
import struct
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimkit.embeddings import TrigramHashEmbedding, TrigramVector, WordVector, cosine

WIDTH = TrigramVector.dim


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def reference_dot(x: list[float], y: list[float]) -> float:
    """Over two dense lists: partial sum i % 32 takes x[i] * y[i] with one
    rounding (the exact sum in rationals, rounded once), for every i in
    increasing order; then f[k][j] = acc[8k+j] + acc[8k+j+4], u[j] the
    four f[.][j] added in order, and (u[0] + u[2]) + (u[1] + u[3])."""
    acc = [0.0] * 32
    for i in range(WIDTH):
        acc[i % 32] = float(Fraction(acc[i % 32]) + Fraction(x[i]) * Fraction(y[i]))
    f = [[acc[8 * k + j] + acc[8 * k + j + 4] for j in range(4)] for k in range(4)]
    u = [((f[0][j] + f[1][j]) + f[2][j]) + f[3][j] for j in range(4)]
    return (u[0] + u[2]) + (u[1] + u[3])


def dense(v: TrigramVector) -> list[float]:
    return [v.entries.get(i, 0.0) for i in range(WIDTH)]


def sparse(values: list[float]) -> TrigramVector:
    return TrigramVector({i: x for i, x in enumerate(values) if x})


def random_entries(r: random.Random, density: float, counts: bool) -> dict[int, float]:
    """Entries at about density * 512 indices: signed counts over the root
    of their sum of squares, as the embedder makes them, or uniform
    floats."""
    if counts:
        c = {i: r.choice((-2, -1, -1, 1, 1, 2)) for i in range(WIDTH) if r.random() < density}
        norm = math.sqrt(sum(n * n for n in c.values()))
        return {i: n / norm for i, n in c.items()}
    return {i: r.uniform(-1.0, 1.0) for i in range(WIDTH) if r.random() < density}


@st.composite
def vector_pairs(draw):
    """Two vectors, sparse to dense, that share many indices.  Some
    indices of x are mirrored 32 places on (negated, same y), so their
    products cancel inside one partial sum; some entries are held as
    explicit +0.0 or -0.0, and the indices one vector lacks and the other
    holds stand for a cancelled trigram count."""
    r = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from((0.005, 0.02, 0.1, 0.5, 1.0)))
    counts = draw(st.booleans())
    x = random_entries(r, density, counts)
    y = random_entries(r, density, counts)
    for i in list(x):
        if r.random() < 0.5:
            y[i] = r.choice(list(x.values()))
        if i + 32 < WIDTH and r.random() < 0.2:
            x[i + 32] = -x[i]
            y[i + 32] = y.get(i, 1.0)
        if r.random() < 0.05:
            x[i] = r.choice((0.0, -0.0))
    return TrigramVector(dict(sorted(x.items()))), TrigramVector(dict(sorted(y.items())))


@settings(max_examples=150, deadline=None)
@given(vector_pairs())
def test_dot_is_the_fixed_order_with_one_rounding_per_step(pair):
    x, y = pair
    want = bits(reference_dot(dense(x), dense(y)))
    assert bits(x.dot(y)) == want
    assert bits(y.dot(x)) == want


_TOKENS = st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789温度米"), max_size=14)


@settings(max_examples=100, deadline=None)
@given(_TOKENS, _TOKENS)
def test_trigram_dot_and_cosine_follow_the_reference(a, b):
    emb = TrigramHashEmbedding()
    x, y = emb.vector(a), emb.vector(b)
    dx, dy = dense(x), dense(y)
    d = reference_dot(dx, dy)
    assert bits(x.dot(y)) == bits(d)
    na, nb = math.sqrt(reference_dot(dx, dx)), math.sqrt(reference_dot(dy, dy))
    assert bits(cosine(x, y)) == bits(0.0 if na == 0.0 or nb == 0.0 else d / (na * nb))


@settings(max_examples=200, deadline=None)
@given(_TOKENS)
def test_vector_is_the_normalized_count_vector(token):
    """Each entry is +-1 per trigram at its crc32 bucket, summed, over the
    vector's norm: the root of the exact sum of the squared counts."""
    emb = TrigramHashEmbedding()
    padded = f"^{token}$"
    v = [0.0] * WIDTH
    for i in range(max(1, len(padded) - 2)):
        h = zlib.crc32(padded[i : i + 3].encode("utf-8"))
        v[h % WIDTH] += 1.0 if (h >> 16) & 1 else -1.0
    norm = math.sqrt(math.fsum(x * x for x in v))
    if norm > 0:
        v = [x / norm for x in v]
    got = emb.vector(token)
    assert [bits(x) for x in dense(got)] == [bits(x) for x in v]
    assert list(got.support()) == [i for i, x in enumerate(v) if x]
    assert emb.vector(token.upper()) is got


# A dense pair on which OpenBLAS's x86 kernels disagree.  Found by running
# np.dot on dense_pair(0..3) under OPENBLAS_CORETYPE=SkylakeX, Haswell and
# Sandybridge: for seed 3 they give -0x1.efbe1991d7648p+0, ...764ap+0 and
# ...764ap+0 (seed 0 gives SkylakeX's value under Haswell too).
CANARY_SEED = 3
CANARY_DOT = float.fromhex("-0x1.efbe1991d7648p+0")  # SkylakeX: AVX-512


def dense_pair(seed: int, density: float = 1.0) -> tuple[list[float], list[float]]:
    r = random.Random(seed)
    return tuple(
        [r.uniform(-1.0, 1.0) if r.random() < density else 0.0 for _ in range(WIDTH)]
        for _ in range(2)
    )


def test_canary_pair_gives_the_avx512_sum():
    x, y = dense_pair(CANARY_SEED)
    assert bits(sparse(x).dot(sparse(y))) == bits(CANARY_DOT)


def test_matches_numpy_where_it_sums_in_the_recorded_order():
    np = pytest.importorskip("numpy")
    x, y = dense_pair(CANARY_SEED)
    if float(np.dot(np.asarray(x), np.asarray(y))) != CANARY_DOT:
        pytest.skip(
            "numpy's BLAS kernel is not the AVX-512 ddot whose order the recorded outputs "
            "encode: np.dot of the canary pair differs"
        )
    for seed in range(1, 501):
        x, y = dense_pair(seed, density=(0.02, 0.1, 0.5, 1.0)[seed % 4])
        want = float(np.dot(np.asarray(x), np.asarray(y)))
        assert bits(sparse(x).dot(sparse(y))) == bits(want), seed


_FLOATS = st.floats(-1e150, 1e150, allow_nan=False) | st.sampled_from((0.0, -0.0, 5e-324, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_FLOATS, _FLOATS), max_size=40), st.randoms(use_true_random=False))
def test_word_vector_dot_is_the_rounded_products_summed_exactly(pairs, r):
    """Each product rounded once, their exact sum rounded once: so the
    bits do not depend on the order of the entries."""
    x, y = WordVector(a for a, _ in pairs), WordVector(b for _, b in pairs)
    want = float(sum(Fraction(a * b) for a, b in pairs))
    assert bits(x.dot(y)) == bits(want)
    r.shuffle(pairs)
    assert bits(WordVector(a for a, _ in pairs).dot(WordVector(b for _, b in pairs))) == bits(x.dot(y))


def test_word_vector_support_is_its_nonzero_indices():
    assert WordVector([0.0, -0.0, 2.0, 5e-324, -1.0, 0.0]).support() == [2, 3, 4]
    assert WordVector([0.0, -0.0]).support() == []
