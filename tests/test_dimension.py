import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimkit import dimension
from dimkit.dimension import (
    BASES,
    DIMENSIONLESS,
    EXPONENT_MAX,
    EXPONENT_MIN,
    SYMBOLIC_ORDER,
    DimensionVector,
    format_dimension,
    format_symbolic,
    is_comparable,
    parse_dimension,
)
from dimkit.errors import DimensionParseError, DimensionRangeError, DimensionValidationError

exponents = st.tuples(*[st.integers(min_value=-4, max_value=4) for _ in range(7)])
vectors = exponents.map(DimensionVector)


def test_parse_force_per_length_encoding():
    dv = parse_dimension("A0E0L0I0M1H0T-2D0")
    assert dv == DimensionVector.of(M=1, T=-2)
    assert not dv.dimensionless


def test_parse_dimensionless_identity():
    dv = parse_dimension("A0E0L0I0M0H0T0D1")
    assert dv == DIMENSIONLESS
    assert dv.dimensionless


def test_parse_force_encoding():
    assert parse_dimension("A0E0L1I0M1H0T-2D0") == DimensionVector.of(L=1, M=1, T=-2)


@pytest.mark.parametrize(
    "text",
    ["", "A0E0L0", "B0E0L0I0M1H0T-2D0", "A0E0L0I0M1H0T-2D0x", "A0E0L0I0MxH0T-2D0"],
)
def test_parse_malformed_reports_offset(text):
    with pytest.raises(DimensionParseError) as err:
        parse_dimension(text)
    assert err.value.offset >= 0


def test_parse_inconsistent_d_digit():
    with pytest.raises(DimensionValidationError):
        parse_dimension("A0E0L0I0M1H0T-2D1")  # nonzero exponents demand D0
    with pytest.raises(DimensionValidationError):
        parse_dimension("A0E0L0I0M0H0T0D0")  # all-zero demands D1
    with pytest.raises(DimensionValidationError):
        parse_dimension("A0E0L0I0M0H0T0D2")


def test_parse_rejects_out_of_range_exponent():
    with pytest.raises(DimensionRangeError):
        parse_dimension("A0E0L13I0M0H0T0D0")


def test_format_examples():
    assert format_dimension(DimensionVector.of(M=1, T=-2)) == "A0E0L0I0M1H0T-2D0"
    assert format_dimension(DIMENSIONLESS) == "A0E0L0I0M0H0T0D1"
    assert parse_dimension(format_dimension(DimensionVector.of(L=3, T=-1))) == DimensionVector.of(
        L=3, T=-1
    )


def test_format_symbolic_examples():
    assert format_symbolic(DimensionVector.of(L=1, M=1, T=-2)) == "LMT^-2"
    assert format_symbolic(DimensionVector.of(M=1, T=-2)) == "MT^-2"
    assert format_symbolic(DIMENSIONLESS) == "D"


@given(vectors)
def test_format_symbolic_omits_zero_bases(dv):
    text = format_symbolic(dv)
    for base, e in zip("AELIMHT", dv.exponents):
        assert (base in text) == (e != 0 and not dv.dimensionless) or dv.dimensionless


def test_mul_composes_energy_and_length(kb):
    joule = kb.unit("J").dimension
    meter = kb.unit("M").dimension
    assert joule * meter == DimensionVector.of(L=3, M=1, T=-2)


def test_div_and_pow_examples():
    length = DimensionVector.of(L=1)
    time = DimensionVector.of(T=1)
    assert length / time == DimensionVector.of(L=1, T=-1)
    assert length / length == DIMENSIONLESS
    assert length**3 == DimensionVector.of(L=3)
    assert DimensionVector.of(L=2, M=-1) ** 0 == DIMENSIONLESS


def test_overflow_raises():
    big = DimensionVector.of(L=12)
    with pytest.raises(DimensionRangeError):
        big * DimensionVector.of(L=1)
    with pytest.raises(DimensionRangeError):
        big**2


def test_bool_exponents_and_powers_rejected():
    """True == 1, but it would format as "True", and the format memo
    would then answer for L=1 and L=True alike."""
    for bad in ((True, 0, 0, 0, 0, 0, 0), (0, 0, False, 0, 0, 0, 0)):
        with pytest.raises(DimensionValidationError):
            DimensionVector(bad)
    with pytest.raises(DimensionValidationError):
        DimensionVector.of(L=True)
    for power in (True, False):
        with pytest.raises(DimensionValidationError):
            DimensionVector.of(L=1) ** power
    assert format_dimension(DimensionVector.of(L=1)) == "A0E0L1I0M0H0T0D0"


def test_comparable_examples():
    poundal = DimensionVector.of(L=1, M=1, T=-2)
    dyn_per_cm = DimensionVector.of(M=1, T=-2)
    assert is_comparable(poundal, poundal)
    assert not is_comparable(poundal, dyn_per_cm)


@given(vectors, vectors, vectors)
@settings(max_examples=200)
def test_abelian_group_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * DIMENSIONLESS == a
    assert a * a**-1 == DIMENSIONLESS


@given(vectors, vectors)
def test_div_inverts_mul(a, b):
    assert a / b * b == a


@given(vectors)
def test_pow_two_is_self_product(a):
    assert a**2 == a * a


@given(vectors)
def test_roundtrip_parse_format(dv):
    assert parse_dimension(format_dimension(dv)) == dv


@given(vectors, vectors, vectors)
@settings(max_examples=200)
def test_comparable_is_equivalence(a, b, c):
    assert is_comparable(a, a)
    assert is_comparable(a, b) == is_comparable(b, a)
    if is_comparable(a, b) and is_comparable(b, c):
        assert is_comparable(a, c)


def test_randomized_roundtrip_bulk():
    rng = random.Random(20240501)
    for _ in range(2000):
        dv = DimensionVector(tuple(rng.randint(-12, 12) for _ in range(7)))
        assert parse_dimension(format_dimension(dv)) == dv


# ---------------------------------------------------------------------------
# Oracles for the memoized algebra: each memoized result equals the value
# built fresh, on a first call and on a repeat, and failures never stick.

in_range = st.tuples(*[st.integers(EXPONENT_MIN, EXPONENT_MAX) for _ in range(7)])


def ref_format_dimension(exponents) -> str:
    parts = [f"{base}{e}" for base, e in zip(BASES, exponents)]
    parts.append(f"D{1 if all(e == 0 for e in exponents) else 0}")
    return "".join(parts)


def ref_format_symbolic(exponents) -> str:
    if all(e == 0 for e in exponents):
        return "D"
    parts = []
    for base in SYMBOLIC_ORDER:
        e = exponents[BASES.index(base)]
        if e == 0:
            continue
        parts.append(base if e == 1 else f"{base}^{e}")
    return "".join(parts)


def ref_parse_dimension(text: str) -> tuple:
    """The exponents text encodes, or the (error type, offset) parsing it
    raises, computed without the module's parser."""
    pos = 0
    values = []
    for base in BASES + ("D",):
        if pos >= len(text) or text[pos] != base:
            return (DimensionParseError, pos)
        pos += 1
        start = pos
        if pos < len(text) and text[pos] == "-":
            pos += 1
        digits = pos
        while pos < len(text) and text[pos].isascii() and text[pos].isdigit():
            pos += 1
        if pos == digits:
            return (DimensionParseError, pos)
        values.append(int(text[start:pos]))
    if pos != len(text):
        return (DimensionParseError, pos)
    exponents, d = tuple(values[:7]), values[7]
    if any(not EXPONENT_MIN <= e <= EXPONENT_MAX for e in exponents):
        return (DimensionRangeError, None)
    if d not in (0, 1) or bool(d) != all(e == 0 for e in exponents):
        return (DimensionValidationError, None)
    return exponents


def outcome(fn, *args):
    """fn's result, or the type and offset of the error it raises."""
    try:
        return fn(*args)
    except (DimensionParseError, DimensionRangeError, DimensionValidationError) as exc:
        return (type(exc), getattr(exc, "offset", None))


@given(in_range, in_range)
@settings(max_examples=300)
def test_memoized_mul_and_div_match_fresh_tuples(x, y):
    a, b = DimensionVector(x), DimensionVector(y)
    for op, memo, fresh in (
        (operator.mul, dimension._PRODUCTS, tuple(p + q for p, q in zip(x, y))),
        (operator.truediv, dimension._QUOTIENTS, tuple(p - q for p, q in zip(x, y))),
    ):
        memo.pop((x, y), None)  # the next call is a first call
        if all(EXPONENT_MIN <= e <= EXPONENT_MAX for e in fresh):
            first, repeat = op(a, b), op(a, b)
            assert first.exponents == fresh and repeat.exponents == fresh
            assert repeat is first
        else:
            for _ in range(2):
                with pytest.raises(DimensionRangeError):
                    op(a, b)
            assert (x, y) not in memo


@given(in_range, st.sampled_from(range(7)), st.booleans())
def test_out_of_range_product_raises_on_every_call(x, slot, negative):
    sign = -1 if negative else 1
    a = DimensionVector(tuple(sign * EXPONENT_MAX if i == slot else e for i, e in enumerate(x)))
    step = DimensionVector(tuple(sign if i == slot else 0 for i in range(7)))
    for _ in range(2):
        with pytest.raises(DimensionRangeError):
            a * step
        with pytest.raises(DimensionRangeError):
            a / DimensionVector(tuple(-e for e in step.exponents))


@given(in_range)
@settings(max_examples=300)
def test_memoized_formats_match_reference(x):
    dv = DimensionVector(x)
    for _ in range(2):
        assert format_dimension(dv) == ref_format_dimension(x)
        assert format_symbolic(dv) == ref_format_symbolic(x)
        assert parse_dimension(ref_format_dimension(x)).exponents == x


encoded_texts = st.one_of(
    in_range.map(ref_format_dimension),
    st.text(alphabet="AELIMHTD-0123456789x", max_size=24),
    st.tuples(st.lists(st.integers(-15, 15), min_size=8, max_size=8)).map(
        lambda t: "".join(f"{b}{e}" for b, e in zip(BASES + ("D",), t[0]))
    ),
)


@given(encoded_texts)
@settings(max_examples=400)
def test_memoized_parse_matches_reference(text):
    expected = ref_parse_dimension(text)
    for _ in range(2):  # the repeat reads the memo, or raises again
        got = outcome(parse_dimension, text)
        if isinstance(got, DimensionVector):
            got = got.exponents
        if expected[0] in (DimensionRangeError, DimensionValidationError):
            assert got[0] is expected[0]
        else:
            assert got == expected
