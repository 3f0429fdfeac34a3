"""Independent reader of the KB file format (no dimkit import).

The benchmark builds its inputs and checks the program's outputs from
the KB file itself, so a defect in the program's own loader cannot hide
from the checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

_DIM_RE = re.compile(r"A(-?\d+)E(-?\d+)L(-?\d+)I(-?\d+)M(-?\d+)H(-?\d+)T(-?\d+)D([01])")


@dataclass(frozen=True)
class KbUnit:
    line: str
    unit_id: str
    label_zh: str
    label_en: str
    symbol: tuple[str, ...]
    alias: tuple[str, ...]
    keywords: tuple[str, ...]
    frequency: float
    quantity_kind: str
    dimension: str
    conversion_val: float
    affine_offset: float

    def surface_forms(self) -> tuple[str, ...]:
        return tuple(f for f in (self.label_en, self.label_zh, *self.symbol, *self.alias) if f)

    @property
    def exponents(self) -> tuple[int, ...]:
        return dimension_exponents(self.dimension)


def dimension_exponents(encoded: str) -> tuple[int, ...]:
    m = _DIM_RE.fullmatch(encoded)
    if not m:
        raise ValueError(f"bad dimension string {encoded!r}")
    return tuple(int(x) for x in m.groups()[:7])


def _split(value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split("|") if p.strip())


def read_kb(path: Path) -> list[KbUnit]:
    units = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        c = line.split("\t")
        units.append(
            KbUnit(
                line=line,
                unit_id=c[0].strip(),
                label_zh=c[1].strip(),
                label_en=c[2].strip(),
                symbol=_split(c[3]),
                alias=_split(c[4]),
                keywords=_split(c[6]),
                frequency=float(c[7]),
                quantity_kind=c[8].strip(),
                dimension=c[9].strip(),
                conversion_val=float(c[10]),
                affine_offset=float(c[11]) if len(c) == 12 and c[11].strip() else 0.0,
            )
        )
    return units
