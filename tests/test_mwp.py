import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dimkit import mwp
from dimkit.dimension import DimensionVector
from dimkit.errors import AugmentationError, EquationError, InputError
from dimkit.kb import KnowledgeBase, conversion_factor
from dimkit.mwp import (
    AUGMENT_METHODS,
    MAX_NESTING,
    AugmentationRecord,
    MwpProblem,
    annotate_problem,
    augment_context_dimension,
    augment_context_format,
    augment_dataset,
    augment_question_dimension,
    augment_question_format,
    evaluate_equation,
    find_unit_mentions,
    load_problems,
    tokenize_equation,
)
from dimkit.linking import link
from dimkit.util import format_plain, jsonl_lines, normalize_surface, on_word_boundary, write_lines
from test_kb import make_record, small_kbs


@pytest.fixture(scope="module")
def problems(data_dir):
    return load_problems(data_dir / "mwp_sample.jsonl")


@pytest.fixture()
def pesticide(problems):
    return problems[0]


class TestTokenizer:
    def test_digit_split_with_percent(self):
        assert tokenize_equation("150*20%") == ["1", "5", "0", "*", "2", "0", "%"]

    def test_empty(self):
        assert tokenize_equation("") == []

    def test_parentheses(self):
        assert tokenize_equation("(3+4)") == ["(", "3", "+", "4", ")"]

    def test_whitespace_discarded_and_rejoinable(self):
        eq = " (1.5 + 2) * 3 "
        tokens = tokenize_equation(eq)
        assert "".join(tokens) == eq.replace(" ", "")

    def test_illegal_character_offset(self):
        with pytest.raises(EquationError) as err:
            tokenize_equation("3+x")
        assert err.value.offset == 2


class TestEvaluator:
    @pytest.mark.parametrize(
        "eq,expected",
        [
            ("1+2*3", 7.0),
            ("(1+2)*3", 9.0),
            ("10/4", 2.5),
            ("20%", 0.2),
            ("(150*20%)/5%-150", 450.0),
            ("100-10-5", 85.0),
            ("2*3/4", 1.5),
            ("-(3+4)", -7.0),
            ("x=3+4".replace("x", "7"), 4.0 + 3),  # '=' evaluates the right side
        ],
    )
    def test_values(self, eq, expected):
        assert evaluate_equation(eq) == pytest.approx(expected)

    def test_errors(self):
        with pytest.raises(EquationError):
            evaluate_equation("3+")
        with pytest.raises(EquationError):
            evaluate_equation("(3")
        with pytest.raises(EquationError):
            evaluate_equation("1/0")
        with pytest.raises(EquationError):
            evaluate_equation("1..2")
        with pytest.raises(EquationError, match="evaluates to nan"):
            evaluate_equation("9" * 400 + "*0")
        with pytest.raises(EquationError, match="evaluates to inf"):
            evaluate_equation("9" * 400)

    def test_nesting_limit(self):
        assert evaluate_equation("(" * MAX_NESTING + "1" + ")" * MAX_NESTING) == 1.0
        with pytest.raises(EquationError, match="nested deeper"):
            evaluate_equation("(" * 400 + "1" + ")" * 400)

    def test_problem_invariant_checked_on_load(self, tmp_path):
        bad = {"id": "x", "body": "b", "question": "q", "equation": "1+1", "answer": 3.0}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(EquationError):
            load_problems(path)

    @pytest.mark.parametrize(
        "equation,answer",
        [("3", "NaN"), ("3", "Infinity"), ("9" * 400 + "*0", "7"), ("(" * 400 + "1" + ")" * 400, "1")],
        ids=["nan-answer", "inf-answer", "nan-equation", "deep-nesting"],
    )
    def test_non_finite_or_too_deep_rejected_on_load(self, tmp_path, equation, answer):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            f'{{"id": "x", "body": "b", "question": "q", "equation": "{equation}", '
            f'"answer": {answer}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(EquationError):
            load_problems(path)


class TestQuestionUnits:
    def test_pesticide_question_unit(self, pesticide, kb, emb):
        found = find_unit_mentions(pesticide.question, kb, emb)
        assert [(m.surface, m.unit_id) for m in found] == [("千克", "KiloGM")]

    def test_multiword_unit(self, kb, emb):
        found = find_unit_mentions("How many liters per minute is that?", kb, emb)
        assert found[-1].unit_id == "L-PER-MIN"
        assert found[-1].surface == "liters per minute"


def reference_unit_mentions(text, kb, emb, threshold=0.5):
    """The scan as it stood before the boundary test moved first: every
    stripped substring of up to 24 characters is normalized, then tested
    on its word boundary."""
    out = []
    byte_pos = 0
    i = 0
    while i < len(text):
        hit = None
        for length in range(min(24, len(text) - i), 0, -1):
            candidate = text[i : i + length]
            if candidate != candidate.strip():
                continue
            exact = kb.surface_index.get(normalize_surface(candidate))
            if not exact or not on_word_boundary(text, i, i + length):
                continue
            hit = (length, candidate, exact)
            break
        if hit is None:
            byte_pos += len(text[i].encode("utf-8"))
            i += 1
            continue
        length, candidate, exact = hit
        ranked = link(kb, candidate, text, emb, threshold) if len(exact) > 1 else []
        unit_id = next((c.unit_id for c in ranked if c.unit_id in exact), exact[0])
        end = byte_pos + len(candidate.encode("utf-8"))
        out.append(mwp.UnitMention((byte_pos, end), candidate, unit_id))
        byte_pos = end
        i += length
    return out


class TestUnitMentionScan:
    """find_unit_mentions equals the normalize-first reference scan."""

    @staticmethod
    def texts(kb):
        surfaces = sorted({f for r in kb.records.values() for f in r.surface_forms()})
        filler = st.text(st.sampled_from(list("abmsxAKM019 \t\u3000.,?千克米的")), max_size=6)
        pieces = st.one_of(st.sampled_from(surfaces), filler)
        return st.lists(pieces, max_size=8).map("".join)

    def test_packaged_problems(self, problems, kb, emb):
        for p in problems:
            for text in (p.body, p.question, p.text):
                assert find_unit_mentions(text, kb, emb) == reference_unit_mentions(text, kb, emb)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, kb, emb, data):
        text = data.draw(self.texts(kb))
        assert find_unit_mentions(text, kb, emb) == reference_unit_mentions(text, kb, emb), text


class TestContextFormat:
    def test_table_v_format_substitution(self, pesticide, kb, emb):
        class PickKg:
            # choose the mention deterministically, then the "kg" form
            def randrange(self, n):
                return 0

        p = annotate_problem(pesticide, kb, emb)
        forms = [f for f in kb.unit("KiloGM").surface_forms() if f != "千克"]
        target = forms.index("kg") if "kg" in forms else 0

        class Picker:
            def __init__(self):
                self.calls = 0

            def randrange(self, n):
                self.calls += 1
                return 0 if self.calls == 1 else target

        augmented, record = augment_context_format(p, kb, Picker(), emb)
        assert "150 kg" in augmented.body
        assert augmented.answer == pesticide.answer == record.answer_after
        assert record.method == "context_format"
        assert record.original_unit == record.new_unit == "KiloGM"
        assert record.scale == 1.0
        augmented.check()

    def test_no_linked_body_mention(self, kb, emb):
        p = MwpProblem("x", "nothing numeric here", "多少千克？", "1+1", 2.0)
        with pytest.raises(AugmentationError):
            augment_context_format(p, kb, random.Random(0), emb)

    def test_single_form_unit_errors(self, emb):
        records = [
            make_record("U1", "Mass", DimensionVector.of(M=1), 1.0,
                        label_en="blim", keywords=("mass",)),
        ]
        tiny = KnowledgeBase(records)
        p = MwpProblem("x", "a crate of 5 blim arrived", "how many?", "5", 5.0)
        with pytest.raises(AugmentationError, match="single surface form"):
            augment_context_format(p, tiny, random.Random(0), emb)


class TestContextDimension:
    def test_table_v_dimension_substitution(self, pesticide, kb, emb):
        augmented, record = augment_context_dimension(
            pesticide, kb, random.Random(0), emb, target_unit="GM"
        )
        assert "150000克" in augmented.body
        assert "150千克" not in augmented.body
        assert augmented.answer == 450.0 == record.answer_after
        assert record.scale == pytest.approx(1000.0)
        assert evaluate_equation(augmented.equation) == pytest.approx(450.0, rel=1e-9)

    def test_magnitude_invariance(self, pesticide, kb, emb):
        for target in ("GM", "TON_Metric", "LB"):
            augmented, record = augment_context_dimension(
                pesticide, kb, random.Random(1), emb, target_unit=target
            )
            old_cv = kb.unit(record.original_unit).conversion_val
            new_cv = kb.unit(record.new_unit).conversion_val
            new_value = 150.0 * record.scale
            assert new_value * new_cv == pytest.approx(150.0 * old_cv, rel=1e-9)

    def test_same_unit_excluded(self, pesticide, kb, emb):
        with pytest.raises(AugmentationError):
            augment_context_dimension(pesticide, kb, random.Random(0), emb, target_unit="KiloGM")

    def test_implausible_magnitudes_rejected(self, pesticide, kb, emb):
        # 150 kg in milligrams would be 1.5e8... still plausible; use a unit
        # that blows past 1e9: none in Mass, so check the guard directly
        augmented, record = augment_context_dimension(
            pesticide, kb, random.Random(2), emb, target_unit="MilliGM"
        )
        assert 150.0 * record.scale <= 1e9

    def test_answer_always_preserved(self, problems, kb, emb):
        for p in problems:
            try:
                augmented, record = augment_context_dimension(p, kb, random.Random(3), emb)
            except AugmentationError:
                continue
            assert augmented.answer == p.answer
            assert record.answer_before == record.answer_after
            augmented.check()


class TestQuestionFormat:
    def test_table_v_question_format(self, pesticide, kb, emb):
        forms = [f for f in kb.unit("KiloGM").surface_forms() if f != "千克"]
        target = forms.index("kg")

        class Picker:
            def randrange(self, n):
                return target

        augmented, record = augment_question_format(pesticide, kb, Picker(), emb)
        assert augmented.question == "需要加水多少kg？"
        assert augmented.answer == 450.0
        augmented.check()

    def test_question_without_unit_errors(self, kb, emb):
        p = MwpProblem("x", "有150千克货物。", "一共多少？", "150", 150.0)
        with pytest.raises(AugmentationError):
            augment_question_format(p, kb, random.Random(0), emb)


class TestQuestionDimension:
    def test_table_v_kg_to_ton(self, pesticide, kb, emb):
        augmented, record = augment_question_dimension(
            pesticide, kb, random.Random(0), emb, target_unit="TON_Metric"
        )
        assert augmented.question == "需要加水多少吨？"
        assert record.scale == pytest.approx(conversion_factor(kb, "KiloGM", "TON_Metric"))
        assert record.scale == pytest.approx(0.001)
        assert augmented.answer == pytest.approx(0.45, rel=1e-9)
        assert augmented.answer_unit == "TON_Metric"
        assert evaluate_equation(augmented.equation) == pytest.approx(augmented.answer, rel=1e-9)

    def test_round_trip_restores_answer(self, pesticide, kb, emb):
        once, _ = augment_question_dimension(
            pesticide, kb, random.Random(0), emb, target_unit="TON_Metric"
        )
        back, _ = augment_question_dimension(
            once, kb, random.Random(0), emb, target_unit="KiloGM"
        )
        assert back.answer == pytest.approx(pesticide.answer, rel=1e-9)

    def test_beta_one_keeps_answer_numerically(self, emb):
        # two kinds sharing a dimension, each with its own standard unit:
        # substituting across them has conversion factor exactly 1
        dim = DimensionVector.of(L=2, M=1, T=-2)
        tiny = KnowledgeBase([
            make_record("JL", "Energy", dim, 1.0, label_en="jolt",
                        keywords=("energy", "work")),
            make_record("TQ", "Torque", dim, 1.0, label_en="twist",
                        keywords=("torque", "moment")),
        ])
        p = MwpProblem("x", "The machine does 5 jolt of work.", "How many jolt is that?",
                       "5", 5.0)
        augmented, record = augment_question_dimension(
            p, tiny, random.Random(0), emb, target_unit="TQ"
        )
        assert record.scale == 1.0
        assert augmented.answer == pytest.approx(p.answer)
        augmented.check()

    def test_non_finite_rescaled_answer_is_a_recorded_failure(self, emb):
        dim = DimensionVector.of(M=1)
        tiny = KnowledgeBase([
            make_record("BIG", "Mass", dim, 1.0, label_en="blim", keywords=("mass",)),
            make_record("TINY", "Mass", dim, 1e-300, label_en="speck", keywords=("mass",)),
        ])
        p = MwpProblem("x", "A crate holds 5 blim.", "How many blim?", "10000000000", 1e10)
        out, records, failures = augment_dataset(
            [p], tiny, random.Random(0), 1.0, {"question_dimension": 1.0}, emb
        )
        assert out == [p] and records == []
        assert [(f.problem_id, f.method) for f in failures] == [("x", "question_dimension")]
        assert "not finite" in failures[0].reason

    @staticmethod
    def blim_kb(*extra):
        dim = DimensionVector.of(M=1)
        return KnowledgeBase([
            make_record("BIG", "Mass", dim, 1.0, label_en="blim", keywords=("mass",)),
            *(make_record(uid, "Mass", dim, cv, label_en=label, keywords=("mass",))
              for uid, cv, label in extra),
        ])

    def test_factor_out_of_float_range_is_a_recorded_failure(self, emb):
        # BIG -> TINY has factor 1e320, which conversion_factor rejects
        p = MwpProblem("x", "A crate holds 5 blim.", "How many blim?", "5", 5.0)
        kb = self.blim_kb(("TINY", 1e-320, "speck"))
        for method in ("context_dimension", "question_dimension"):
            out, records, failures = augment_dataset(
                [p], kb, random.Random(0), 1.0, {method: 1.0}, emb
            )
            assert out == [p] and records == []
            assert [(f.problem_id, f.method) for f in failures] == [("x", method)]

    def test_context_dimension_skips_out_of_range_alternative(self, emb):
        p = MwpProblem("x", "A crate holds 5 blim.", "How many blim?", "5", 5.0)
        kb = self.blim_kb(("TINY", 1e-320, "speck"), ("MID", 0.1, "gronk"))
        augmented, record = augment_context_dimension(p, kb, random.Random(0), emb)
        assert record.new_unit == "MID"
        augmented.check()

    def test_context_dimension_skips_factor_with_infinite_inverse(self, emb):
        # SPECK -> BIG has factor 1e-310, whose inverse overflows the rewrite
        value = "1" + "0" * 305
        p = MwpProblem("x", f"A crate holds {value} speck.", "How many speck?", value, 1e305)
        kb = self.blim_kb(("SPECK", 1e-310, "speck"))
        with pytest.raises(AugmentationError, match="no plausible"):
            augment_context_dimension(p, kb, random.Random(0), emb)

    @pytest.mark.parametrize("method", ["context_dimension", "question_dimension"])
    def test_wrap_past_nesting_limit_is_a_recorded_failure(self, emb, method):
        equation = "(" * MAX_NESTING + "5" + ")" * MAX_NESTING
        p = MwpProblem("x", "A crate holds 5 blim.", "How many blim?", equation, 5.0)
        out, records, failures = augment_dataset(
            [p], self.blim_kb(("MID", 0.1, "gronk")), random.Random(0), 1.0, {method: 1.0}, emb
        )
        assert out == [p] and records == []
        assert "nests deeper" in failures[0].reason

    def test_scale_ratio_matches_conversion(self, problems, kb, emb):
        for p in problems:
            try:
                augmented, record = augment_question_dimension(p, kb, random.Random(9), emb)
            except AugmentationError:
                continue
            beta = conversion_factor(kb, record.original_unit, record.new_unit)
            assert augmented.answer == pytest.approx(p.answer * beta, rel=1e-9)
            augmented.check()


class TestAugmentDataset:
    def test_eta_zero_is_identity(self, problems, kb, emb):
        out, records, failures = augment_dataset(
            problems, kb, random.Random(5), eta=0.0, emb=emb
        )
        assert out == problems
        assert records == [] and failures == []

    def test_eta_one_context_mix_preserves_answers(self, problems, kb, emb):
        out, records, failures = augment_dataset(
            problems, kb, random.Random(5), eta=1.0,
            method_mix={"context_format": 1.0, "context_dimension": 1.0}, emb=emb,
        )
        assert len(out) == len(problems)
        assert len(records) + len(failures) == len(problems)
        for p in out:
            p.check()
        for r in records:
            assert r.answer_before == r.answer_after

    def test_seeded_selection_is_deterministic(self, problems, kb, emb):
        runs = [
            augment_dataset(problems, kb, random.Random(42), eta=0.5, emb=emb)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_append_policy_doubles_output(self, problems, kb, emb):
        out, _, _ = augment_dataset(
            problems, kb, random.Random(1), eta=1.0, emb=emb, append=True
        )
        assert len(out) == 2 * len(problems)
        assert out[: len(problems)] == problems

    def test_method_mix_validation(self, problems, kb, emb):
        with pytest.raises(ValueError):
            augment_dataset(problems, kb, random.Random(0), 0.5, {"bogus": 1.0}, emb)
        with pytest.raises(ValueError):
            augment_dataset(problems, kb, random.Random(0), 1.5, emb=emb)
        with pytest.raises(InputError, match="empty"):
            augment_dataset(problems, kb, random.Random(0), 0.5, {}, emb)

    def test_failures_pass_through(self, kb, emb):
        p = MwpProblem("x", "plain text body", "plain question?", "1+1", 2.0)
        out, records, failures = augment_dataset(
            [p], kb, random.Random(0), eta=1.0, emb=emb
        )
        assert out == [p]
        assert records == []
        assert len(failures) == 1
        assert failures[0].method in AUGMENT_METHODS

    def test_io_roundtrip(self, problems, kb, emb, tmp_path):
        out, records, _ = augment_dataset(problems, kb, random.Random(3), 1.0, emb=emb)
        ppath, rpath = tmp_path / "p.jsonl", tmp_path / "r.jsonl"
        write_lines((ppath, jsonl_lines(out)), (rpath, jsonl_lines(records)))
        reloaded = load_problems(ppath)
        assert [p.id for p in reloaded] == [p.id for p in out]
        assert len(rpath.read_text(encoding="utf-8").splitlines()) == len(records)

    def test_records_roundtrip(self, problems, kb, emb):
        _, records, _ = augment_dataset(problems, kb, random.Random(3), 1.0, emb=emb)
        assert records
        assert [AugmentationRecord.from_dict(r.to_dict()) for r in records] == records


_VALUES = st.one_of(st.integers(0, 10**6), st.floats(1e-6, 1e15))


@st.composite
def kbs_with_problems(draw):
    """A random small KB and problems whose quantities use its surface
    forms; each equation sums the body's values, so every problem checks."""
    kb = draw(small_kbs())
    all_forms = sorted({f for rec in kb.records.values() for f in rec.surface_forms()})
    assume(all_forms)
    forms = st.sampled_from(all_forms)
    problems = []
    for i in range(draw(st.integers(1, 3))):
        values = [format_plain(float(v)) for v in draw(st.lists(_VALUES, min_size=1, max_size=3))]
        body = " and ".join(f"{v} {draw(forms)}" for v in values) + "."
        equation = "+".join(values)
        problems.append(MwpProblem(
            f"p{i}", body, f" How many {draw(forms)}?", equation, evaluate_equation(equation)
        ))
    return kb, problems


class TestRandomKbs:
    @given(kbs_with_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_augmented_problem_is_valid_or_recorded_failure(self, kb_problems, seed):
        kb, problems = kb_problems
        for p in problems:
            p.check()
        out, records, failures = augment_dataset(problems, kb, random.Random(seed), 1.0)
        failed = {f.problem_id for f in failures}
        assert len(records) + len(failed) == len(problems) == len(out)
        for before, after in zip(problems, out):
            if before.id in failed:
                assert after == before
            else:
                after.check()
                json.dumps(after.to_dict(), allow_nan=False)
        for record in records:
            json.dumps(record.to_dict(), allow_nan=False)


class TestMentions:
    """Linking runs only where its result is read."""

    @staticmethod
    def count_annotations(monkeypatch, fail=False):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].id)
            if fail:
                raise AssertionError("annotate_problem must not run here")
            return annotate_problem(*args, **kwargs)

        monkeypatch.setattr(mwp, "annotate_problem", counted)
        return calls

    def test_question_methods_extract_no_mentions(self, pesticide, kb, emb, monkeypatch):
        self.count_annotations(monkeypatch, fail=True)
        augment_question_format(pesticide, kb, random.Random(0), emb)
        augment_question_dimension(pesticide, kb, random.Random(0), emb)

    @pytest.mark.parametrize("method", [augment_context_format, augment_context_dimension])
    def test_context_methods_annotate_once(self, pesticide, kb, emb, monkeypatch, method):
        calls = self.count_annotations(monkeypatch)
        method(pesticide, kb, random.Random(0), emb)
        assert calls == [pesticide.id]

    @pytest.mark.parametrize("method", [augment_context_format, augment_context_dimension])
    def test_context_methods_reuse_carried_mentions(self, pesticide, kb, emb, monkeypatch, method):
        annotated = annotate_problem(pesticide, kb, emb)
        self.count_annotations(monkeypatch, fail=True)
        method(annotated, kb, random.Random(0), emb)

    @pytest.mark.parametrize("method", list(mwp._METHOD_FUNCS.values()))
    @pytest.mark.parametrize("annotate", [False, True])
    def test_augmented_problems_carry_no_mentions(self, pesticide, kb, emb, method, annotate):
        p = annotate_problem(pesticide, kb, emb) if annotate else pesticide
        augmented, _ = method(p, kb, random.Random(0), emb)
        assert augmented.mentions == ()
