"""Precision / recall / F1 scoring with abstention handling.

Selection tasks: a prediction is an answer index or None (abstention).
Abstentions count against recall but not precision, reproducing the
precision/F1 gap that models refusing uncertain answers exhibit.

Quantity extraction: span-level exact match scored separately for the
full quantity (QE), the value part (VE) and the unit part (UE).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DimkitError
from .quantity_text import AnnotatedSentence
from .tasks import TaskInstance
from .util import int_field, text_field


class Prediction(NamedTuple):
    id: str
    answer: int | None

    @classmethod
    def from_dict(cls, d: dict) -> "Prediction":
        pred_id = text_field(d["id"])  # read first: a malformed answer is named as such
        return cls(id=pred_id, answer=int_field(d.get("answer"), nullable=True))


class ChoiceMetrics(NamedTuple):
    total: int
    answered: int
    correct: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    degenerate: bool = False  # nothing answered: precision reported as 0


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _choice_metrics(total: int, answered: int, correct: int) -> ChoiceMetrics:
    degenerate = answered == 0
    precision = 0.0 if degenerate else correct / answered
    recall = 0.0 if total == 0 else correct / total
    accuracy = 0.0 if total == 0 else correct / total
    return ChoiceMetrics(
        total=total,
        answered=answered,
        correct=correct,
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        accuracy=accuracy,
        degenerate=degenerate,
    )


def score_predictions(
    gold: Sequence[TaskInstance], predicted: Sequence[Prediction]
) -> dict[str, ChoiceMetrics]:
    """Per-task-type metrics plus an "overall" row.

    The prediction list must align with the gold list by instance id
    (same id set, no duplicates).
    """
    by_id: dict[str, int | None] = {}
    for p in predicted:
        if p.id in by_id:
            raise DimkitError(f"duplicate prediction id {p.id!r}")
        by_id[p.id] = p.answer
    gold_ids = [g.id for g in gold]
    if len(set(gold_ids)) != len(gold_ids):
        raise DimkitError("duplicate gold instance ids")
    if set(gold_ids) != set(by_id):
        missing = sorted(set(gold_ids) - set(by_id))[:3]
        extra = sorted(set(by_id) - set(gold_ids))[:3]
        raise DimkitError(f"misaligned prediction set (missing={missing}, extra={extra})")

    counts: dict[str, list[int]] = {}  # task_type -> [total, answered, correct]
    for inst in gold:
        row = counts.setdefault(inst.task_type, [0, 0, 0])
        row[0] += 1
        answer = by_id[inst.id]
        if answer is None:
            continue
        row[1] += 1
        if answer == inst.answer_index:
            row[2] += 1

    out = {t: _choice_metrics(*row) for t, row in sorted(counts.items())}
    total = sum(r[0] for r in counts.values())
    answered = sum(r[1] for r in counts.values())
    correct = sum(r[2] for r in counts.values())
    out["overall"] = _choice_metrics(total, answered, correct)
    return out


class SpanMetrics(NamedTuple):
    gold_count: int
    predicted_count: int
    matched: int
    precision: float
    recall: float
    f1: float


def _span_metrics(gold: set, predicted: set) -> SpanMetrics:
    matched = len(gold & predicted)
    precision = matched / len(predicted) if predicted else 0.0
    recall = matched / len(gold) if gold else 0.0
    return SpanMetrics(len(gold), len(predicted), matched, precision, recall, _f1(precision, recall))


def score_quantity_extraction(
    gold: Sequence[AnnotatedSentence], predicted: Sequence[AnnotatedSentence]
) -> dict[str, SpanMetrics]:
    """Exact span matching keyed by sentence line_no; sub-tasks QE
    (full quantity span), VE (value span), UE (unit span)."""
    gold_lines = {s.line_no for s in gold}
    pred_lines = {s.line_no for s in predicted}
    if len(gold_lines) != len(gold) or len(pred_lines) != len(predicted):
        raise DimkitError("duplicate line_no in extraction scoring input")

    def spans(sentences: Sequence[AnnotatedSentence]):
        qe, ve, ue = set(), set(), set()
        for s in sentences:
            for m in s.mentions:
                ve.add((s.line_no, m.value_span))
                qe.add((s.line_no, m.quantity_span))
                if m.unit_span is not None:
                    ue.add((s.line_no, m.unit_span))
        return qe, ve, ue

    gold_qe, gold_ve, gold_ue = spans(gold)
    pred_qe, pred_ve, pred_ue = spans(predicted)
    return {
        "QE": _span_metrics(gold_qe, pred_qe),
        "VE": _span_metrics(gold_ve, pred_ve),
        "UE": _span_metrics(gold_ue, pred_ue),
    }
