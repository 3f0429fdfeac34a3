"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes, so new error conditions should
reuse or subclass one of the classes below rather than raising bare
ValueError from library code.
"""

from __future__ import annotations


class DimkitError(Exception):
    """Base class for all library errors."""


class InputError(DimkitError, ValueError):
    """Malformed or out-of-range input from outside the program: a
    parameter, a data file line, a vector file."""


class DimensionParseError(DimkitError):
    """Malformed encoded dimension string.  Carries the byte offset of the
    first offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DimensionValidationError(DimkitError):
    """Structurally valid encoding with inconsistent content (e.g. the D
    digit contradicting the other exponents)."""


class DimensionRangeError(DimkitError):
    """An exponent left the supported [-12, 12] range."""


class KbValidationError(DimkitError):
    """A knowledge-base record violates a type invariant.

    record_id/field identify the offending record so batch loads can be
    diagnosed from the message alone.
    """

    def __init__(self, message: str, record_id: str = "", field: str = ""):
        detail = message
        if record_id:
            detail += f" [record={record_id}"
            if field:
                detail += f", field={field}"
            detail += "]"
        super().__init__(detail)
        self.record_id = record_id
        self.field = field


class UnknownUnitError(DimkitError):
    """A unit_id not present in the knowledge base."""


class UnknownKindError(DimkitError):
    """A kind_id not present in the knowledge base."""


class IncomparableUnitsError(DimkitError):
    """Conversion requested between units of different dimensions.

    Carries both dimensions so callers can report e.g. "LMT^-2 vs MT^-2".
    """

    def __init__(self, unit_a: str, unit_b: str, dim_a, dim_b):
        from .dimension import format_symbolic

        self.unit_a, self.unit_b = unit_a, unit_b
        self.dim_a, self.dim_b = dim_a, dim_b
        super().__init__(
            f"units {unit_a} and {unit_b} are not comparable: "
            f"{format_symbolic(dim_a)} vs {format_symbolic(dim_b)}"
        )


class AffineConversionError(DimkitError):
    """Conversion involving a unit with a nonzero affine offset (degree
    Celsius style); only multiplicative conversions are supported."""


class ConversionRangeError(DimkitError):
    """A conversion factor that over- or underflows the float range."""


class UnitResolutionError(DimkitError):
    """A surface form could not be resolved to any unit."""


class LinkingConfigError(DimkitError):
    """Linking asked to score a record that cannot be scored (e.g. a
    record with no keywords)."""


class FrequencyDomainError(DimkitError):
    """Raw frequency input outside the log-transformable domain."""


class DegenerateScoreError(DimkitError):
    """All frequency scores equal; min-max normalization undefined."""


class GenerationError(DimkitError):
    """Task generation could not satisfy its preconditions or exhausted
    its resampling budget."""


class AugmentationError(DimkitError):
    """An augmentation method is inapplicable to the given problem."""


class EquationError(DimkitError):
    """Equation tokenization or evaluation failure.  Carries the character
    offset for tokenizer errors."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset
