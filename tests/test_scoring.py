import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimkit.errors import DimkitError
from dimkit.quantity_text import AnnotatedSentence, QuantityMention
from dimkit.scoring import (
    Prediction,
    score_predictions,
    score_quantity_extraction,
)
from dimkit.tasks import TaskInstance
from dimkit.util import read_records, write_lines


def make_gold(n, task_type="kind_match"):
    return [
        TaskInstance(
            id=f"{task_type}-{i:05d}", task_type=task_type, prompt={},
            candidates=("a", "b", "c", "d"), answer_index=i % 4,
            rationale="<bos> r <sep> a <eos>", seed=i,
        )
        for i in range(n)
    ]


class TestChoiceScoring:
    def test_all_correct(self):
        gold = make_gold(20)
        preds = [Prediction(g.id, g.answer_index) for g in gold]
        m = score_predictions(gold, preds)["overall"]
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)
        assert not m.degenerate

    def test_half_abstained(self):
        gold = make_gold(100)
        preds = [
            Prediction(g.id, g.answer_index if i < 50 else None)
            for i, g in enumerate(gold)
        ]
        m = score_predictions(gold, preds)["overall"]
        assert m.precision == 1.0
        assert m.recall == 0.5
        assert m.f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)
        assert m.accuracy == 0.5

    def test_all_wrong(self):
        gold = make_gold(10)
        preds = [Prediction(g.id, (g.answer_index + 1) % 4) for g in gold]
        m = score_predictions(gold, preds)["overall"]
        assert (m.precision, m.recall, m.f1, m.accuracy) == (0.0, 0.0, 0.0, 0.0)

    def test_all_abstained_is_degenerate(self):
        gold = make_gold(5)
        preds = [Prediction(g.id, None) for g in gold]
        m = score_predictions(gold, preds)["overall"]
        assert m.degenerate and m.precision == 0.0 and m.recall == 0.0

    def test_per_task_breakdown(self):
        gold = make_gold(10, "kind_match") + make_gold(10, "comparable")
        preds = [Prediction(g.id, g.answer_index) for g in gold[:10]] + [
            Prediction(g.id, None) for g in gold[10:]
        ]
        metrics = score_predictions(gold, preds)
        assert metrics["kind_match"].f1 == 1.0
        assert metrics["comparable"].degenerate
        assert metrics["overall"].answered == 10

    def test_misaligned_ids_rejected(self):
        gold = make_gold(3)
        with pytest.raises(DimkitError, match="misaligned"):
            score_predictions(gold, [Prediction("nope", 1)] * 1)
        with pytest.raises(DimkitError, match="duplicate"):
            score_predictions(gold, [Prediction(gold[0].id, 1)] * 3)

    @given(st.integers(10, 60), st.random_module())
    @settings(max_examples=40, deadline=None)
    def test_f1_bounds_and_no_abstention_collapse(self, n, _rng):
        rng = random.Random(n)
        gold = make_gold(n)
        preds = [Prediction(g.id, rng.choice([0, 1, 2, 3, None])) for g in gold]
        m = score_predictions(gold, preds)["overall"]
        assert 0.0 <= m.f1 <= max(m.precision, m.recall) + 1e-12
        assert m.f1 <= 2.0 * min(m.precision, m.recall) + 1e-12  # min-side bound
        if m.correct == 0:
            assert m.f1 == 0.0
        if m.answered == m.total:
            assert m.precision == m.recall == m.f1 == m.accuracy

    def test_predictions_file_roundtrip(self, tmp_path):
        preds = [Prediction("a-1", 2), Prediction("a-2", None)]
        path = tmp_path / "preds.jsonl"
        write_lines((path, (json.dumps({"id": p.id, "answer": p.answer}) for p in preds)))
        assert read_records(path, Prediction.from_dict) == preds


def sentence(line_no, text, spans):
    mentions = tuple(
        QuantityMention(value_span=v, unit_span=u, value=1.0, unit_surface="u")
        for v, u in spans
    )
    return AnnotatedSentence(text=text, mentions=mentions, line_no=line_no)


class TestExtractionScoring:
    def test_exact_match_scores_one(self):
        gold = [sentence(1, "t", [((0, 3), (4, 6))]), sentence(2, "t", [((0, 2), None)])]
        metrics = score_quantity_extraction(gold, gold)
        for key in ("QE", "VE", "UE"):
            assert metrics[key].f1 == 1.0

    def test_value_right_unit_wrong(self):
        gold = [sentence(1, "t", [((0, 3), (4, 6))])]
        pred = [sentence(1, "t", [((0, 3), (4, 8))])]
        metrics = score_quantity_extraction(gold, pred)
        assert metrics["VE"].f1 == 1.0
        assert metrics["UE"].f1 == 0.0
        assert metrics["QE"].f1 == 0.0

    def test_missed_and_spurious(self):
        gold = [sentence(1, "t", [((0, 3), (4, 6)), ((8, 10), None)])]
        pred = [sentence(1, "t", [((0, 3), (4, 6)), ((20, 22), None)])]
        metrics = score_quantity_extraction(gold, pred)
        assert metrics["VE"].precision == 0.5
        assert metrics["VE"].recall == 0.5
        assert metrics["UE"].f1 == 1.0

    def test_duplicate_line_numbers_rejected(self):
        rows = [sentence(1, "t", []), sentence(1, "t", [])]
        with pytest.raises(DimkitError):
            score_quantity_extraction(rows, rows)
