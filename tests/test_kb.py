import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimkit.dimension import DimensionVector, format_dimension, parse_dimension
from dimkit.errors import (
    AffineConversionError,
    ConversionRangeError,
    DegenerateScoreError,
    FrequencyDomainError,
    IncomparableUnitsError,
    KbValidationError,
    UnknownKindError,
)
from dimkit.kb import (
    KnowledgeBase,
    UnitRecord,
    compute_frequency,
    conversion_factor,
    kind_frequency,
    load_frequency_sidecar,
    load_kb,
    lookup_surface,
    units_of_dimension,
)
from dimkit.util import normalize_surface


def make_record(unit_id, kind, dim, cv, freq=0.5, **kwargs):
    defaults = dict(
        label_en=unit_id.lower(),
        label_zh="",
        symbol=(),
        alias=(),
        description="",
        keywords=("k",),
        frequency=freq,
        quantity_kind=kind,
        dimension=dim,
        conversion_val=cv,
    )
    defaults.update(kwargs)
    return UnitRecord(unit_id=unit_id, **defaults)


LEN = DimensionVector.of(L=1)
MASS = DimensionVector.of(M=1)

# ---------------------------------------------------------------------------
# Random small KBs for the brute-force tests here and in test_tasks.py.
# Surface forms collide under normalization, conversion values range over
# all positive finite floats (their ratios may overflow), and records
# arrive in a random order.

FUZZ_DIMS = (
    LEN, MASS, DimensionVector.of(L=1, T=-1), DimensionVector.of(T=-1),
    DimensionVector.of(L=2), DimensionVector.of(),
)
_FORMS = st.sampled_from(["m", "M", "ｍ", " m ", "米", "kg", "KG", "千克", "s", "sec", "K", "°C", ""])
positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@st.composite
def small_kbs(draw):
    """A KnowledgeBase built from records in a random order; drawings it rejects are skipped."""
    records = []
    for k in range(draw(st.integers(1, 6))):
        dim = draw(st.sampled_from(FUZZ_DIMS))
        for j in range(draw(st.integers(1, 5))):
            records.append(make_record(
                f"K{k}U{j}", f"Kind{k}", dim,
                1.0 if j == 0 else draw(positive_floats),
                freq=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
                label_en=draw(_FORMS),
                label_zh=draw(_FORMS),
                symbol=tuple(draw(st.lists(_FORMS, max_size=2))),
                alias=tuple(draw(st.lists(_FORMS, max_size=2))),
                affine_offset=draw(st.sampled_from([0.0, 0.0, 0.0, 273.15])) if j else 0.0,
            ))
    try:
        return KnowledgeBase(draw(st.permutations(records)))
    except KbValidationError:
        assume(False)


class TestLoad:
    def test_fixture_loads_with_indexes(self, kb, data_dir):
        file_lines = [
            line
            for line in (data_dir / "units.tsv").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(kb) == len(file_lines)
        file_kinds = {line.split("\t")[8] for line in file_lines}
        assert set(kb.kinds) == file_kinds
        assert len(kb) >= 60
        assert len(kb.kinds) >= 12
        assert len(kb.surface_index) >= len(kb)
        # index totality: every record reachable from all its forms and its dimension
        for uid, rec in kb.records.items():
            for form in rec.surface_forms():
                assert uid in lookup_surface(kb, form), (uid, form)
            assert uid in units_of_dimension(kb, rec.dimension)

    def test_paper_named_units_present(self, kb):
        for uid in ("POUNDAL", "DYN-PER-CentiM", "M", "CentiM", "KiloGM", "GM",
                    "TON_Metric", "GILL_US-PER-HR", "J", "DEG_C", "DIOPTER"):
            assert uid in kb.records

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        kb = load_kb(path)
        assert len(kb) == 0 and kb.kinds == {}

    def test_duplicate_unit_id(self, tmp_path):
        row = "X\t\tx\t\t\t\tk\t0.5\tLength\tA0E0L1I0M0H0T0D0\t1"
        path = tmp_path / "dup.tsv"
        path.write_text(row + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(KbValidationError, match="duplicate.*X|X.*duplicate"):
            load_kb(path)

    def test_missing_standard_unit(self, tmp_path):
        row = "X\t\tx\t\t\t\tk\t0.5\tLength\tA0E0L1I0M0H0T0D0\t2"
        path = tmp_path / "nostd.tsv"
        path.write_text(row + "\n", encoding="utf-8")
        with pytest.raises(KbValidationError, match="standard"):
            load_kb(path)

    def test_dimension_mismatch_within_kind(self, tmp_path):
        rows = [
            "X\t\tx\t\t\t\tk\t0.5\tLength\tA0E0L1I0M0H0T0D0\t1",
            "Y\t\ty\t\t\t\tk\t0.5\tLength\tA0E0L0I0M1H0T0D0\t2",
        ]
        path = tmp_path / "mix.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(KbValidationError, match="mixes dimensions"):
            load_kb(path)

    def test_malformed_dimension_string(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("X\t\tx\t\t\t\tk\t0.5\tLength\tnot-a-dim\t1\n", encoding="utf-8")
        with pytest.raises(KbValidationError, match="dimension"):
            load_kb(path)

    def test_unit_without_keywords_rejected(self, tmp_path):
        path = tmp_path / "nokw.tsv"
        path.write_text("X\t\tx\t\t\t\t | \t0.5\tLength\tA0E0L1I0M0H0T0D0\t1\n", encoding="utf-8")
        with pytest.raises(KbValidationError, match=r"keywords.*\[record=X, field=keywords\]"):
            load_kb(path)
        record = make_record("Y", "Length", DimensionVector.of(L=1), 1.0, keywords=())
        with pytest.raises(KbValidationError, match="record=Y"):
            KnowledgeBase([record])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("conversion_val", math.nan),
            ("conversion_val", math.inf),
            ("conversion_val", float("1e309")),
            ("affine_offset", math.nan),
            ("affine_offset", -math.inf),
        ],
        ids=["cv-nan", "cv-inf", "cv-1e309", "offset-nan", "offset-minus-inf"],
    )
    def test_non_finite_value_rejected(self, field, value):
        record = make_record("X", "Length", LEN, 1.0, **{field: value})
        with pytest.raises(KbValidationError, match=rf"finite.*\[record=X, field={field}\]"):
            KnowledgeBase([record])

    def test_load_is_order_insensitive(self, tmp_path, data_dir):
        lines = (data_dir / "units.tsv").read_text(encoding="utf-8").splitlines()
        random.Random(7).shuffle(lines)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        a, b = load_kb(data_dir / "units.tsv"), load_kb(shuffled)
        assert a.records == b.records
        assert a.surface_index == b.surface_index
        assert a.dimension_index == b.dimension_index


class TestDerivedFacts:
    """The indexes the constructor builds against the scans they replaced."""

    @given(small_kbs())
    @settings(max_examples=100, deadline=None)
    def test_units_of_kind_matches_sorted_scan(self, kb):
        for kind_id in kb.kinds:
            expected = tuple(
                uid for uid, r in sorted(kb.records.items()) if r.quantity_kind == kind_id
            )
            assert kb.units_of_kind(kind_id) == expected

    @given(small_kbs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_iteration_orders_do_not_depend_on_the_record_order(self, kb, data):
        """records iterate in unit_id order and dimension_index in
        encoded-string order, whatever order the records arrive in:
        candidate generation and the task generators draw over them."""
        again = KnowledgeBase(data.draw(st.permutations(list(kb.records.values()))))
        for k in (kb, again):
            assert list(k.records) == sorted(k.records)
            encoded = [format_dimension(dv) for dv in k.dimension_index]
            assert encoded == sorted(encoded)
        assert list(again.records.items()) == list(kb.records.items())
        assert list(again.dimension_index.items()) == list(kb.dimension_index.items())

    @given(small_kbs())
    @settings(max_examples=100, deadline=None)
    def test_normalized_forms_follow_surface_forms(self, kb):
        for rec in kb.records.values():
            assert rec.normalized_forms == tuple(map(normalize_surface, rec.surface_forms()))
        for form, units in kb.surface_index.items():
            assert units == tuple(
                uid for uid, r in sorted(kb.records.items())
                if form in map(normalize_surface, r.surface_forms())
            )


class TestFrequency:
    def test_endpoints(self):
        raw = {"a": (1.0, 1.0, 1.0), "b": (5.0, 2.0, 7.0), "c": (100.0, 50.0, 900.0)}
        freqs = compute_frequency(raw)
        assert freqs["a"] == 0.1
        assert freqs["c"] == 1.0

    def test_log_linear_fixture(self):
        raw = {
            "low": (10.0, 10.0, 10.0),
            "mid": (100.0, 100.0, 100.0),
            "high": (1000.0, 1000.0, 1000.0),
        }
        freqs = compute_frequency(raw)
        assert freqs["low"] == pytest.approx(0.1, abs=1e-12)
        assert freqs["mid"] == pytest.approx(0.55, abs=1e-12)
        assert freqs["high"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_formula(self):
        # independent recomputation of Score and min-max rescale
        raw = {"u1": (3.0, 9.0, 27.0), "u2": (5.0, 2.0, 88.0), "u3": (41.0, 7.0, 13.0)}
        scores = {
            u: 0.3 * math.log(gt) + 0.3 * math.log(hs) + 0.4 * math.log(cf)
            for u, (gt, hs, cf) in raw.items()
        }
        lo, hi = min(scores.values()), max(scores.values())
        expected = {u: 0.9 * (s - lo) / (hi - lo) + 0.1 for u, s in scores.items()}
        assert compute_frequency(raw) == pytest.approx(expected)

    def test_domain_errors(self):
        with pytest.raises(FrequencyDomainError):
            compute_frequency({"a": (0.0, 1.0, 1.0), "b": (2.0, 2.0, 2.0)})
        with pytest.raises(DegenerateScoreError):
            compute_frequency({"a": (2.0, 2.0, 2.0), "b": (2.0, 2.0, 2.0)})

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.tuples(*[st.floats(min_value=0.01, max_value=1e6) for _ in range(3)]),
            min_size=2,
            max_size=4,
        ),
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=1.1, max_value=100.0),
    )
    @settings(max_examples=150)
    def test_monotone_in_raw_components(self, raw, unit, slot, factor):
        if unit not in raw:
            return
        try:
            before = compute_frequency(raw)
        except DegenerateScoreError:
            return
        bumped = dict(raw)
        triple = list(bumped[unit])
        triple[slot] *= factor
        bumped[unit] = tuple(triple)
        try:
            after = compute_frequency(bumped)
        except DegenerateScoreError:
            return
        assert after[unit] >= before[unit] - 1e-12

    def test_shipped_kb_consistent_with_sidecar(self, kb, data_dir):
        raw = load_frequency_sidecar(data_dir / "unit_frequencies.tsv")
        freqs = compute_frequency(raw)
        assert set(freqs) == set(kb.records)
        for uid, rec in kb.records.items():
            assert rec.frequency == pytest.approx(freqs[uid], abs=1e-12)
            assert 0.1 <= rec.frequency <= 1.0


class TestKindFrequency:
    def test_top_five_mean(self):
        freqs = [1.0, 0.8, 0.6, 0.4, 0.2, 0.1]
        records = [
            make_record(f"U{i}", "Length", LEN, 1.0 if i == 0 else 2.0, freq=f)
            for i, f in enumerate(freqs)
        ]
        kb = KnowledgeBase(records)
        assert kind_frequency(kb, "Length") == pytest.approx(
            (1.0 + 0.8 + 0.6 + 0.4 + 0.2) / 5
        )

    def test_single_unit_kind(self):
        kb = KnowledgeBase([make_record("U", "Length", LEN, 1.0, freq=0.7)])
        assert kind_frequency(kb, "Length") == 0.7

    def test_unknown_kind(self, kb):
        with pytest.raises(UnknownKindError):
            kind_frequency(kb, "NoSuchKind")


class TestConversion:
    def test_meter_centimeter(self, kb):
        assert conversion_factor(kb, "M", "CentiM") == pytest.approx(100.0)

    def test_self_conversion(self, kb):
        for uid in ("M", "KiloGM", "J"):
            assert conversion_factor(kb, uid, uid) == 1.0

    def test_unit_trap_is_rejected(self, kb):
        with pytest.raises(IncomparableUnitsError) as err:
            conversion_factor(kb, "POUNDAL", "DYN-PER-CentiM")
        assert "LMT^-2" in str(err.value) and "MT^-2" in str(err.value)

    def test_affine_units_rejected(self, kb):
        with pytest.raises(AffineConversionError):
            conversion_factor(kb, "DEG_C", "K")
        with pytest.raises(AffineConversionError):
            conversion_factor(kb, "K", "DEG_C")

    def test_factor_outside_float_range_rejected(self):
        wide = KnowledgeBase([
            make_record("M", "Length", LEN, 1.0),
            make_record("HUGE", "Length", LEN, 1e200),
            make_record("TINY", "Length", LEN, 1e-200),
        ])
        assert conversion_factor(wide, "HUGE", "M") == 1e200
        for a, b in (("HUGE", "TINY"), ("TINY", "HUGE")):
            with pytest.raises(ConversionRangeError, match=f"{a} -> {b}"):
                conversion_factor(wide, a, b)

    def test_reciprocity_over_fixture(self, kb):
        for units in kb.dimension_index.values():
            for a in units:
                for b in units:
                    if kb.unit(a).affine_offset or kb.unit(b).affine_offset:
                        continue
                    assert abs(conversion_factor(kb, a, b) * conversion_factor(kb, b, a) - 1.0) < 1e-12

    def test_transitivity_over_fixture(self, kb):
        for units in kb.dimension_index.values():
            group = [u for u in units if not kb.unit(u).affine_offset]
            for a in group:
                for b in group:
                    for c in group:
                        lhs = conversion_factor(kb, a, b) * conversion_factor(kb, b, c)
                        rhs = conversion_factor(kb, a, c)
                        assert abs(lhs / rhs - 1.0) < 1e-9


class TestLookup:
    def test_symbol_lookup(self, kb):
        assert lookup_surface(kb, "kg") == {"KiloGM"}

    def test_empty_surface(self, kb):
        assert lookup_surface(kb, "") == frozenset()

    def test_chinese_label(self, kb):
        assert lookup_surface(kb, "千克") == {"KiloGM"}

    def test_normalization_variants(self, kb):
        assert lookup_surface(kb, "  Meter ") == {"M"}
        assert lookup_surface(kb, "DEGREES   celsius") == {"DEG_C"}

    def test_units_of_dimension(self, kb):
        lengths = units_of_dimension(kb, LEN)
        assert {"M", "CentiM", "KiloM"} <= lengths
        assert units_of_dimension(kb, DimensionVector.of(A=3, I=2)) == frozenset()

    def test_dimension_index_union_is_total(self, kb):
        union = set()
        for key in kb.dimension_index:
            union |= units_of_dimension(kb, key)
        assert union == set(kb.records)

    def test_canonical_dimension_strings_in_kb(self, kb, data_dir):
        for line in (data_dir / "units.tsv").read_text(encoding="utf-8").splitlines():
            encoded = line.split("\t")[9]
            assert format_dimension(parse_dimension(encoded)) == encoded
