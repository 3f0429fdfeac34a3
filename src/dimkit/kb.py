"""Unit knowledge base: load, validate, index, query.

File format (UTF-8, one record per line, tab-separated, no header), in
the schema's field order:

    unit_id  label_zh  label_en  symbol  alias  description  keywords
    frequency  quantity_kind  dimension  conversion_val  [affine_offset]

List fields (symbol, alias, keywords) use '|' as the internal separator;
the dimension field is the encoded string of :mod:`dimkit.dimension`;
an empty field is the empty string, but keywords must be non-empty.
conversion_val must be finite and > 0. The optional 12th column is the
affine offset (finite, 0 when absent); only degree-Celsius-style units
set it.

The frequency sidecar file is ``unit_id TAB freq_gt TAB freq_hs TAB
freq_cf`` with strictly positive raw scores, one line per unit_id.

``KnowledgeBase(records)`` validates the records and derives, once, the
unit facts other modules read: ``records`` keyed and sorted by unit_id,
whatever order the records arrive in, and indexes from a normalized
surface form, a dimension vector or a kind id to sorted unit ids
(``surface_index``, ``dimension_index``, ``kind_index``).  The
padded-bigram postings of the normalized forms that candidate generation
counts, and each form's edit-distance bit pattern (``bigram_index``), are
derived once as well, on first use, so commands that never link do not
build them.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .dimension import DimensionVector, format_dimension, is_comparable, parse_dimension
from .errors import (
    AffineConversionError,
    ConversionRangeError,
    DegenerateScoreError,
    FrequencyDomainError,
    IncomparableUnitsError,
    KbValidationError,
    UnknownKindError,
    UnknownUnitError,
)
from .util import normalize_surface, read_rows


class UnitRecord(NamedTuple):
    """One knowledge-base unit."""

    unit_id: str
    label_en: str
    label_zh: str
    symbol: tuple[str, ...]
    alias: tuple[str, ...]
    description: str
    keywords: tuple[str, ...]
    frequency: float
    quantity_kind: str
    dimension: DimensionVector
    conversion_val: float
    affine_offset: float = 0.0

    def surface_forms(self) -> tuple[str, ...]:
        """All textual forms the unit may take in text, unnormalized."""
        forms = [self.label_en]
        if self.label_zh:
            forms.append(self.label_zh)
        forms.extend(self.symbol)
        forms.extend(self.alias)
        return tuple(f for f in forms if f)

    @property
    def normalized_forms(self) -> tuple[str, ...]:
        """normalize_surface of each surface form, in the same order."""
        return tuple(normalize_surface(f) for f in self.surface_forms())


class QuantityKind(NamedTuple):
    """A family of units measuring one physical concept."""

    kind_id: str
    dimension: DimensionVector
    standard_unit: str


#: Weights of the three raw popularity signals (gt, hs, cf), and the
#: frequency floor delta.
FREQUENCY_ALPHAS = (0.3, 0.3, 0.4)
FREQUENCY_DELTA = 0.1


def padded_bigrams(form: str) -> list[str]:
    """The bigrams of form framed by a start and an end mark, in order.

    A form of length n yields n + 1 bigrams.  The marks may also occur
    inside a form: the q-gram count bound stays valid for any padding,
    it only filters less.
    """
    padded = f"\x02{form}\x03"
    return [padded[i : i + 2] for i in range(len(padded) - 1)]


def char_masks(form: str) -> dict[str, int]:
    """Bit-parallel pattern of form: bit i of masks[ch] is set iff
    form[i] == ch (the Peq table of Myers' edit-distance algorithm)."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(form):
        masks[ch] = masks.get(ch, 0) | 1 << i
    return masks


class BigramIndex(NamedTuple):
    """Inverted padded-bigram index over the distinct normalized forms.

    ``forms[m]`` lists the forms of length m.  ``postings[g]`` splits the
    forms holding bigram g by occurrence count: entry c - 1 lists each of
    them min(c, its count of g) times, so counting the forms of entry
    min(c, len) - 1 over the bigrams g of a query, each held c times,
    counts every form's shared bigrams with multiplicity.  ``masks[form]``
    is the form's :func:`char_masks`.  The units owning a form are
    ``KnowledgeBase.surface_index[form]``.
    """

    forms: dict[int, tuple[str, ...]]
    postings: dict[str, tuple[tuple[str, ...], ...]]
    masks: dict[str, dict[str, int]]


class KnowledgeBase:
    """The validated records and their indexes: immutable after
    construction; unrestricted concurrent reads.

    ``records`` is sorted by unit_id, whatever order the records arrive
    in, and every index lists unit ids in that order;
    ``dimension_index`` iterates its dimensions in encoded-string order.
    bigram_index is derived from surface_index on first use.  match_cache
    memoizes candidate generation per normalized surface and threshold;
    each knowledge base starts with an empty one.  Concurrent first uses
    at worst build or recompute a value twice.
    """

    def __init__(self, records: Iterable[UnitRecord]):
        """Validate every type invariant and build the indexes."""
        by_id: dict[str, UnitRecord] = {}
        by_kind: dict[str, list[UnitRecord]] = {}
        for rec in records:
            if rec.unit_id in by_id:
                raise KbValidationError("duplicate unit_id", record_id=rec.unit_id, field="unit_id")
            for name in ("conversion_val", "affine_offset"):
                if not math.isfinite(getattr(rec, name)):
                    raise KbValidationError(f"{name} must be finite", record_id=rec.unit_id, field=name)
            if rec.conversion_val <= 0:
                raise KbValidationError(
                    "conversion_val must be > 0", record_id=rec.unit_id, field="conversion_val"
                )
            if not (0.0 < rec.frequency <= 1.0):
                raise KbValidationError(
                    f"frequency {rec.frequency} outside (0, 1]",
                    record_id=rec.unit_id,
                    field="frequency",
                )
            if not rec.keywords:  # context scoring is lazy: fail here, not mid-run
                raise KbValidationError(
                    "keywords must be non-empty", record_id=rec.unit_id, field="keywords"
                )
            by_id[rec.unit_id] = rec
            by_kind.setdefault(rec.quantity_kind, []).append(rec)

        kinds: dict[str, QuantityKind] = {}
        for kind_id, members in sorted(by_kind.items()):
            dims = {format_dimension(r.dimension) for r in members}
            if len(dims) > 1:
                bad = sorted(m.unit_id for m in members)
                raise KbValidationError(
                    f"kind {kind_id} mixes dimensions {sorted(dims)} across units {bad}",
                    record_id=bad[0],
                    field="dimension",
                )
            # Affine members (nonzero offset) do not compete for standard-unit
            # status; the standard must be purely multiplicative.
            standards = [
                m for m in members if m.conversion_val == 1.0 and m.affine_offset == 0.0
            ]
            if len(standards) != 1:
                raise KbValidationError(
                    f"kind {kind_id} needs exactly one standard unit "
                    f"(conversion_val == 1, offset 0), found {len(standards)}",
                    record_id=members[0].unit_id,
                    field="conversion_val",
                )
            kinds[kind_id] = QuantityKind(
                kind_id=kind_id,
                dimension=members[0].dimension,
                standard_unit=standards[0].unit_id,
            )

        surface: dict[str, set[str]] = {}
        dimension: dict[DimensionVector, set[str]] = {}
        for rec in by_id.values():
            for form in rec.normalized_forms:
                surface.setdefault(form, set()).add(rec.unit_id)
            dimension.setdefault(rec.dimension, set()).add(rec.unit_id)

        self.records = dict(sorted(by_id.items()))
        self.kinds = kinds
        self.surface_index = {k: tuple(sorted(v)) for k, v in sorted(surface.items())}
        self.dimension_index = {
            dv: tuple(sorted(dimension[dv])) for dv in sorted(dimension, key=format_dimension)
        }
        self.kind_index = {k: tuple(sorted(m.unit_id for m in by_kind[k])) for k in kinds}
        self.match_cache: dict = {}

    def __len__(self) -> int:
        return len(self.records)

    def unit(self, unit_id: str) -> UnitRecord:
        try:
            return self.records[unit_id]
        except KeyError:
            raise UnknownUnitError(f"unknown unit_id {unit_id!r}") from None

    def kind(self, kind_id: str) -> QuantityKind:
        try:
            return self.kinds[kind_id]
        except KeyError:
            raise UnknownKindError(f"unknown kind_id {kind_id!r}") from None

    def units_of_kind(self, kind_id: str) -> tuple[str, ...]:
        self.kind(kind_id)
        return self.kind_index[kind_id]

    def units_with_dimension(self, dv: DimensionVector) -> tuple[str, ...]:
        """Ids of the units whose dimension equals dv, sorted."""
        return self.dimension_index.get(dv, ())

    @cached_property
    def bigram_index(self) -> BigramIndex:
        forms: dict[int, list[str]] = {}
        holders: dict[str, list[str]] = {}
        repeated = set()  # bigrams some form holds more than once
        for form in self.surface_index:
            forms.setdefault(len(form), []).append(form)
            for gram in padded_bigrams(form):
                held = holders.setdefault(gram, [])
                if held and held[-1] == form:
                    repeated.add(gram)
                held.append(form)  # once per occurrence, each form's copies adjacent
        postings = {gram: (tuple(held),) for gram, held in holders.items()}
        for gram in repeated:
            counts = Counter(holders[gram])
            postings[gram] = tuple(
                tuple(form for form, k in counts.items() for _ in range(min(c, k)))
                for c in range(1, max(counts.values()) + 1)
            )
        return BigramIndex(
            forms={m: tuple(fs) for m, fs in forms.items()},
            postings=postings,
            masks={form: char_masks(form) for form in self.surface_index},
        )

def _parse_record(cols: list[str]) -> UnitRecord:
    """One KB line's fields as a record.  A malformed line raises
    ValueError, which read_rows reports with the file and the line; a bad
    dimension raises KbValidationError naming the record."""
    if len(cols) not in (11, 12):
        raise ValueError(f"expected 11 or 12 tab-separated fields, got {len(cols)}")
    unit_id = cols[0].strip()
    if not unit_id:
        raise ValueError("empty unit_id")

    def split_list(value: str) -> tuple[str, ...]:
        return tuple(part.strip() for part in value.split("|") if part.strip())

    try:
        dim = parse_dimension(cols[9].strip())
    except Exception as exc:
        raise KbValidationError(
            f"bad dimension string {cols[9]!r}: {exc}", record_id=unit_id, field="dimension"
        ) from exc
    return UnitRecord(
        unit_id=unit_id,
        label_zh=cols[1].strip(),
        label_en=cols[2].strip(),
        symbol=split_list(cols[3]),
        alias=split_list(cols[4]),
        description=cols[5].strip(),
        keywords=split_list(cols[6]),
        frequency=float(cols[7]),
        quantity_kind=cols[8].strip(),
        dimension=dim,
        conversion_val=float(cols[10]),
        affine_offset=float(cols[11]) if len(cols) == 12 and cols[11].strip() else 0.0,
    )


def load_kb(source: str | Path) -> KnowledgeBase:
    """Load and validate a KB file.  Deterministic; an empty file yields
    an empty knowledge base."""
    return KnowledgeBase(read_rows(source, _parse_record))


def _sidecar_row(cols: list[str]) -> tuple[str, tuple[float, float, float]]:
    unit_id, gt, hs, cf = cols
    return unit_id.strip(), (float(gt), float(hs), float(cf))


def load_frequency_sidecar(path: str | Path) -> dict[str, tuple[float, float, float]]:
    """Read the raw (freq_gt, freq_hs, freq_cf) sidecar file.  A repeated
    unit_id raises InputError naming the file and the repeating line."""
    raw: dict[str, tuple[float, float, float]] = {}

    def add(cols: list[str]) -> None:
        unit_id, triple = _sidecar_row(cols)
        if unit_id in raw:
            raise ValueError(f"duplicate unit_id {unit_id!r}")
        raw[unit_id] = triple

    read_rows(path, add)
    return raw


def compute_frequency(raw: Mapping[str, tuple[float, float, float]]) -> dict[str, float]:
    """FREQUENCY_ALPHAS-weighted log-score of the three raw signals,
    min-max rescaled to [FREQUENCY_DELTA, 1]: the min-score unit gets
    exactly delta, the max exactly 1.
    """
    scores: dict[str, float] = {}
    for unit_id, triple in raw.items():
        if len(triple) != 3:
            raise FrequencyDomainError(f"unit {unit_id}: need a (gt, hs, cf) triple")
        if any(v <= 0 for v in triple):
            raise FrequencyDomainError(
                f"unit {unit_id}: raw frequencies must be positive, got {triple}"
            )
        scores[unit_id] = sum(a * math.log(v) for a, v in zip(FREQUENCY_ALPHAS, triple))

    if not scores:
        return {}
    lo, hi = min(scores.values()), max(scores.values())
    if lo == hi:
        raise DegenerateScoreError("all units share one score; range normalization undefined")
    span = hi - lo
    return {
        unit_id: (1.0 - FREQUENCY_DELTA) * ((s - lo) / span) + FREQUENCY_DELTA
        for unit_id, s in scores.items()
    }


def kind_frequency(kb: KnowledgeBase, kind_id: str) -> float:
    """Mean frequency of the kind's top five units (all units if fewer)."""
    members = kb.units_of_kind(kind_id)
    top = sorted((kb.records[u].frequency for u in members), reverse=True)[:5]
    return sum(top) / len(top)


def conversion_factor(kb: KnowledgeBase, u1: str, u2: str) -> float:
    """Multiplicative factor beta such that a magnitude q expressed in u1
    equals q * beta expressed in u2.

    This is the Dimension Law enforcement point: incomparable pairs
    raise, as do pairs involving affine units and pairs whose factor
    over- or underflows a float.
    """
    a, b = kb.unit(u1), kb.unit(u2)
    if not is_comparable(a.dimension, b.dimension):
        raise IncomparableUnitsError(u1, u2, a.dimension, b.dimension)
    if a.affine_offset != 0.0 or b.affine_offset != 0.0:
        raise AffineConversionError(
            f"affine conversion unsupported: {u1} offset {a.affine_offset}, "
            f"{u2} offset {b.affine_offset}"
        )
    beta = a.conversion_val / b.conversion_val
    if beta == 0.0 or math.isinf(beta):
        raise ConversionRangeError(f"conversion factor {u1} -> {u2} leaves the float range")
    return beta


def lookup_surface(kb: KnowledgeBase, form: str) -> frozenset[str]:
    """Units having the normalized form among label/symbol/alias."""
    return frozenset(kb.surface_index.get(normalize_surface(form), ()))


def units_of_dimension(kb: KnowledgeBase, dv: DimensionVector) -> frozenset[str]:
    """All and only units whose dimension equals dv."""
    return frozenset(kb.units_with_dimension(dv))
