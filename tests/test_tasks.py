import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimkit.dimension import is_comparable
from dimkit.errors import DimkitError, GenerationError
from dimkit.quantity_text import AnnotatedSentence, ConstantOracle, QuantityMention, annotate_corpus
from dimkit.tasks import (
    GENERATORS,
    ORACLES,
    TASK_TYPES,
    TaskInstance,
    _distractor_sampler,
    expression_dimension,
    gen_comparable,
    gen_dimension_arithmetic,
    gen_dimension_prediction,
    gen_kind_match,
    gen_magnitude_comparison,
    gen_unit_conversion,
    verify_instance,
)
from dimkit.util import jsonl_lines, read_records, write_lines
from test_kb import FUZZ_DIMS, small_kbs

# ---------------------------------------------------------------------------
# Independent oracle: dimension strings parsed with a standalone regex and
# plain list arithmetic, no dimkit.dimension involved.

_DIM_RE = re.compile(r"A(-?\d+)E(-?\d+)L(-?\d+)I(-?\d+)M(-?\d+)H(-?\d+)T(-?\d+)D(-?\d+)")


def raw_dim(kb, unit_id):
    from dimkit.dimension import format_dimension

    return [int(g) for g in _DIM_RE.fullmatch(format_dimension(kb.unit(unit_id).dimension)).groups()][:7]


def oracle_correct_flags(kb, inst):
    t = inst.task_type
    if t == "kind_match":
        return [kb.unit(c).quantity_kind == inst.prompt["kind"] for c in inst.candidates]
    if t == "comparable":
        anchor = raw_dim(kb, inst.prompt["anchor"])
        return [raw_dim(kb, c) == anchor for c in inst.candidates]
    if t == "dimension_prediction":
        target = raw_dim(kb, inst.prompt["source_unit"])
        return [raw_dim(kb, c) == target for c in inst.candidates]
    if t == "dimension_arithmetic":
        dim = raw_dim(kb, inst.prompt["terms"][0])
        for op, term in zip(inst.prompt["ops"], inst.prompt["terms"][1:]):
            other = raw_dim(kb, term)
            sign = 1 if op in ("×", "*") else -1
            dim = [a + sign * b for a, b in zip(dim, other)]
        return [raw_dim(kb, c) == dim for c in inst.candidates]
    if t == "magnitude_comparison":
        values = [kb.unit(c).conversion_val for c in inst.candidates]
        return [v == max(values) for v in values]
    if t == "unit_conversion":
        beta = kb.unit(inst.prompt["from_unit"]).conversion_val / kb.unit(
            inst.prompt["to_unit"]
        ).conversion_val
        return [abs(float(c) - beta) <= 1e-9 * abs(beta) for c in inst.candidates]
    raise AssertionError(t)


def assert_single_correct(kb, instances):
    for inst in instances:
        flags = oracle_correct_flags(kb, inst)
        assert sum(flags) == 1, inst
        assert flags[inst.answer_index], inst
        assert len(set(inst.candidates)) == len(inst.candidates) == 4
        assert inst.rationale.startswith("<bos> ") and inst.rationale.endswith(" <eos>")
        assert " <sep> " in inst.rationale


@pytest.fixture(scope="module")
def annotated(kb, emb):
    from corpus_fixture import corpus_lines

    sentences, _ = annotate_corpus(corpus_lines(), kb, emb, ConstantOracle("5"), 0.5)
    return sentences


class TestKindMatch:
    def test_examples_and_oracle(self, kb):
        instances = gen_kind_match(kb, random.Random(11), 60)
        assert_single_correct(kb, instances)
        inst = instances[0]
        assert inst.prompt["kind"] in kb.kinds

    def test_zero_instances(self, kb):
        assert gen_kind_match(kb, random.Random(0), 0) == []

    def test_insufficient_kinds(self):
        from dimkit.dimension import DimensionVector
        from dimkit.kb import KnowledgeBase
        from test_kb import make_record

        tiny = KnowledgeBase(
            [make_record("X", "Length", DimensionVector.of(L=1), 1.0)]
        )
        with pytest.raises(GenerationError):
            gen_kind_match(tiny, random.Random(0), 1)


class TestComparable:
    def test_oracle(self, kb):
        instances = gen_comparable(kb, random.Random(13), 60)
        assert_single_correct(kb, instances)

    def test_anchor_not_among_candidates(self, kb):
        for inst in gen_comparable(kb, random.Random(5), 40):
            assert inst.prompt["anchor"] not in inst.candidates

    def test_poundal_anchor_accepts_newton_not_dyn_per_cm(self, kb):
        # hand-built candidate set mirroring the unit-trap example
        from dimkit.tasks import TaskInstance

        inst = TaskInstance(
            id="manual-0", task_type="comparable",
            prompt={"anchor": "POUNDAL"},
            candidates=("N", "DYN-PER-CentiM", "SEC", "MOL"),
            answer_index=0, rationale="<bos> r <sep> a <eos>", seed=0,
        )
        verify_instance(kb, inst)
        assert oracle_correct_flags(kb, inst) == [True, False, False, False]


class TestDimensionPrediction:
    def test_oracle(self, kb, annotated):
        instances = gen_dimension_prediction(annotated, kb, random.Random(17), 60)
        assert_single_correct(kb, instances)
        for inst in instances:
            assert "[MASK]" in inst.prompt["masked_text"]

    def test_masked_text_removes_quantity(self, kb, annotated):
        [inst] = gen_dimension_prediction(annotated, kb, random.Random(3), 1)
        source_texts = {s.text for s in annotated}
        assert inst.prompt["masked_text"] not in source_texts

    def test_empty_annotated_input(self, kb):
        with pytest.raises(GenerationError):
            gen_dimension_prediction([], kb, random.Random(0), 1)

    def test_height_mask_accepts_centimeter(self, kb):
        # the masked height admits any length unit, here centimeter
        from dimkit.tasks import TaskInstance

        inst = TaskInstance(
            id="manual-2", task_type="dimension_prediction",
            prompt={"masked_text": "LeBron James's height is [MASK]", "source_unit": "M"},
            candidates=("CentiM", "KiloGM", "SEC", "A"),
            answer_index=0, rationale="<bos> r <sep> a <eos>", seed=0,
        )
        verify_instance(kb, inst)
        assert oracle_correct_flags(kb, inst) == [True, False, False, False]


class TestDimensionArithmetic:
    def test_oracle(self, kb):
        instances = gen_dimension_arithmetic(kb, random.Random(19), 60)
        assert_single_correct(kb, instances)

    def test_joule_times_meter(self, kb):
        from dimkit.dimension import DimensionVector

        dim = expression_dimension(kb, ["J", "M"], ["×"])
        assert dim == DimensionVector.of(L=3, M=1, T=-2)
        from dimkit.kb import units_of_dimension

        assert "J-M" in units_of_dimension(kb, dim)

    def test_self_division_is_dimensionless(self, kb):
        from dimkit.dimension import DIMENSIONLESS

        assert expression_dimension(kb, ["M", "M"], ["÷"]) == DIMENSIONLESS

    def test_expression_string_uses_labels(self, kb):
        for inst in gen_dimension_arithmetic(kb, random.Random(7), 20):
            rebuilt = inst.prompt["expression"]
            for term in inst.prompt["terms"]:
                assert kb.unit(term).label_en in rebuilt


class TestMagnitudeComparison:
    def test_oracle(self, kb):
        instances = gen_magnitude_comparison(kb, random.Random(23), 60)
        assert_single_correct(kb, instances)

    def test_same_dimension_candidates(self, kb):
        for inst in gen_magnitude_comparison(kb, random.Random(29), 40):
            dims = {tuple(raw_dim(kb, c)) for c in inst.candidates}
            assert len(dims) == 1

    def test_known_group_answer(self, kb):
        from dimkit.tasks import TaskInstance

        inst = TaskInstance(
            id="manual-1", task_type="magnitude_comparison",
            prompt={"question": "largest?"},
            candidates=("MilliM", "CentiM", "M", "KiloM"),
            answer_index=3, rationale="<bos> r <sep> a <eos>", seed=0,
        )
        verify_instance(kb, inst)


class TestUnitConversion:
    def test_oracle(self, kb):
        instances = gen_unit_conversion(kb, random.Random(31), 60)
        assert_single_correct(kb, instances)

    def test_gold_matches_conversion_factor(self, kb):
        from dimkit.kb import conversion_factor

        for inst in gen_unit_conversion(kb, random.Random(37), 50):
            beta = conversion_factor(kb, inst.prompt["from_unit"], inst.prompt["to_unit"])
            gold = float(inst.candidates[inst.answer_index])
            assert gold == pytest.approx(beta, rel=1e-9)

    def test_identity_pairs_excluded(self, kb):
        for inst in gen_unit_conversion(kb, random.Random(41), 50):
            assert inst.prompt["from_unit"] != inst.prompt["to_unit"]
            assert float(inst.candidates[inst.answer_index]) != 1.0

    def test_near_duplicate_distractor_is_filtered(self):
        from dimkit.dimension import DimensionVector
        from dimkit.kb import KnowledgeBase
        from test_kb import make_record

        # 0.1 vs 1e-6 * 1e5 == 0.09999999999999999 (DeciPA vs MicroBAR on an
        # SI-prefixed KB): distractors such as the alternative pair's factor or
        # the reciprocal land within the oracle's tolerance of beta, and must
        # be dropped rather than abort generation.
        dim = DimensionVector.of(M=1, L=-1, T=-2)
        tiny = KnowledgeBase([
            make_record("PA", "Pressure", dim, 1.0),
            make_record("DeciPA", "Pressure", dim, 0.1),
            make_record("MicroBAR", "Pressure", dim, 1e-6 * 1e5),
        ])
        assert_single_correct(tiny, gen_unit_conversion(tiny, random.Random(0), 60))


    def test_non_finite_distractors_are_filtered(self):
        from dimkit.dimension import DimensionVector
        from dimkit.kb import KnowledgeBase
        from test_kb import make_record

        # beta = 1e306 puts beta * 1e3 past the float range; the reciprocal
        # of beta = 1e-306 stays finite.  inf must be dropped like a
        # near-duplicate, leaving six finite distractors to choose from.
        dim = DimensionVector.of(M=1, L=-1, T=-2)
        tiny = KnowledgeBase([
            make_record("PA", "Pressure", dim, 1.0),
            make_record("HUGE", "Pressure", dim, 1e306),
        ])
        instances = gen_unit_conversion(tiny, random.Random(0), 60)
        assert_single_correct(tiny, instances)
        assert {inst.prompt["from_unit"] for inst in instances} == {"PA", "HUGE"}


def _every_draw_rejected_kb(family):
    """A tiny KB on which every draw of a resampling family is rejected."""
    from dimkit.dimension import DimensionVector
    from dimkit.kb import KnowledgeBase
    from test_kb import make_record

    length, mass = DimensionVector.of(L=1), DimensionVector.of(M=1)
    if family == "magnitude_comparison":
        # three units tie at the top among five: every 4-subset contains
        # at least two of them, so the maximum is always tied
        records = [
            make_record("A0", "Length", length, 1.0),  # standard unit
            make_record("A1", "Length", length, 0.1),
            make_record("T1", "Length", length, 1000.0),
            make_record("T2", "Length", length, 1000.0),
            make_record("T3", "Length", length, 1000.0),
        ]
    elif family == "unit_conversion":
        # two kinds share one dimension, each with a standard unit of
        # conversion value 1, so every pair converts with beta 1.0
        records = [
            make_record("KG", "Mass", mass, 1.0),
            make_record("KGW", "Weight", mass, 1.0),
        ]
    else:
        # length units only: two terms give L^2 or D, which no unit has;
        # three terms can give L, but then no unit is left to be a
        # distractor of another dimension
        records = [make_record(f"L{i}", "Length", length, 10.0**i) for i in range(5)]
    return KnowledgeBase(records)


@pytest.mark.parametrize(
    "family", ["dimension_arithmetic", "magnitude_comparison", "unit_conversion"]
)
def test_resample_budget_exhausted(family):
    tiny = _every_draw_rejected_kb(family)
    with pytest.raises(GenerationError, match=f"{family} instance 0"):
        GENERATORS[family](kb=tiny, rng=random.Random(1), n=1)


class TestDeterminismAndIO:
    def test_same_seed_same_instances(self, kb, annotated):
        gens = [
            lambda rng: gen_kind_match(kb, rng, 8),
            lambda rng: gen_comparable(kb, rng, 8),
            lambda rng: gen_dimension_prediction(annotated, kb, rng, 8),
            lambda rng: gen_dimension_arithmetic(kb, rng, 8),
            lambda rng: gen_magnitude_comparison(kb, rng, 8),
            lambda rng: gen_unit_conversion(kb, rng, 8),
        ]
        for g in gens:
            assert g(random.Random(99)) == g(random.Random(99))

    def test_jsonl_roundtrip(self, kb, tmp_path):
        instances = gen_kind_match(kb, random.Random(1), 5)
        path = tmp_path / "tasks.jsonl"
        write_lines((path, jsonl_lines(instances)))
        assert read_records(path, TaskInstance.from_dict) == instances
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert set(first) == {"id", "task_type", "prompt", "candidates",
                              "answer_index", "rationale", "seed"}


class TestRegistry:
    def test_generator_and_oracle_keys_follow_task_types(self):
        assert tuple(GENERATORS) == tuple(ORACLES) == TASK_TYPES

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 0), (-1, 4)])
    def test_degenerate_sizes_rejected(self, kb, annotated, n, m):
        for task_type in TASK_TYPES:
            options = {"annotated": annotated} if task_type == "dimension_prediction" else {}
            with pytest.raises(GenerationError):
                GENERATORS[task_type](kb=kb, rng=random.Random(0), n=n, m=m, **options)


class TestRandomKbs:
    """The distractor pool against the scan it replaced, and every family
    on random small KBs: valid instances or a DimkitError."""

    @given(
        small_kbs(),
        st.integers(0, 2**32 - 1),
        st.sampled_from(FUZZ_DIMS),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_distractor_pool_matches_comparable_scan(self, kb, seed, avoid, k):
        pool = sorted(uid for uid, rec in kb.records.items() if not is_comparable(rec.dimension, avoid))
        sample = _distractor_sampler(kb)
        for _ in range(2):  # the second draw reads the memoized pool
            if len(pool) < k:
                with pytest.raises(GenerationError):
                    sample(random.Random(seed), avoid, k)
            else:
                expected = random.Random(seed).sample(pool, k)
                assert sample(random.Random(seed), avoid, k) == expected

    @given(kb=small_kbs(), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 20),
           m=st.integers(2, 5), linked=st.lists(st.integers(0, 29), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_valid_instances_or_documented_error(self, kb, seed, n, m, linked):
        units = list(kb.records)
        annotated = [
            AnnotatedSentence(f"it is 5 {uid}", (QuantityMention((6, 7), None, 5.0, uid, uid),))
            for uid in (units[i % len(units)] for i in linked)
        ]
        for task_type in TASK_TYPES:
            options = {"annotated": annotated} if task_type == "dimension_prediction" else {}
            try:
                instances = GENERATORS[task_type](kb=kb, rng=random.Random(seed), n=n, m=m, **options)
            except DimkitError:
                continue
            assert len(instances) == n
            for inst in instances:
                verify_instance(kb, inst)
                assert len(inst.candidates) == m
                assert TaskInstance.from_dict(json.loads(json.dumps(inst.to_dict()))) == inst
