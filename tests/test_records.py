"""The contract of the public record types.

Plain records are NamedTuples: built by keyword or by position, immutable,
equal (and hashing equal) by value, and equal to the plain tuple of their
fields.  DimensionVector, the one record that validates on construction,
is a small class with the same construction and immutability.
"""

import pytest

from dimkit.bootstrap import BootstrapResult, Triplet
from dimkit.dimension import DimensionVector, format_dimension
from dimkit.errors import DimensionRangeError, DimensionValidationError
from dimkit.kb import BigramIndex, KnowledgeBase, QuantityKind, UnitRecord
from dimkit.linking import LinkCandidate
from dimkit.mwp import AugmentationFailure, AugmentationRecord, MwpProblem, UnitMention
from dimkit.quantity_text import AnnotatedSentence, QuantityMention, ReviewRow
from dimkit.scoring import ChoiceMetrics, Prediction, SpanMetrics
from dimkit.tasks import TaskInstance

LEN = DimensionVector.of(L=1)
MENTION = QuantityMention((0, 1), (2, 3), 5.0, "m", "M", 0.75)

# one positional argument list per NamedTuple record, every field given
RECORDS = {
    UnitRecord: ("M", "meter", "米", ("m",), ("metre",), "SI length", ("length",), 0.9,
                 "Length", LEN, 1.0, 0.0),
    QuantityKind: ("Length", LEN, "M"),
    BigramIndex: ({1: ("m",)}, {"\x02m": (("m",),)}, {"m": {"m": 1}}),
    LinkCandidate: ("M", 0.9, 0.8, 0.5),
    QuantityMention: tuple(MENTION),
    AnnotatedSentence: ("5 m", (MENTION,), "rule+filter", 3),
    ReviewRow: (3, (0, 3), "5 m", "kept:unit"),
    TaskInstance: ("t-1", "kind_match", {"unit": "M"}, ("a", "b"), 1, "R", 7),
    MwpProblem: ("p1", "A 5 m rope. ", "How long?", "x=5", 5.0, "M", (MENTION,)),
    AugmentationRecord: ("p1", "context_format", "M", "CentiM", 100.0, 5.0, 500.0),
    AugmentationFailure: ("p1", "question_dimension", "no alternative"),
    UnitMention: ((4, 5), "m", "M"),
    Triplet: ("LeBron James", "height", "2.06 m"),
    BootstrapResult: ((Triplet("a", "b", "1 m"),), frozenset({"b"}), frozenset({"m"})),
    Prediction: ("t-1", None),
    ChoiceMetrics: (4, 3, 2, 2 / 3, 0.5, 4 / 7, 0.5, False),
    SpanMetrics: (4, 3, 2, 2 / 3, 0.5, 4 / 7),
}
HASHABLE = [c for c in RECORDS if c not in (BigramIndex, TaskInstance)]  # those hold dicts


class TestRecordContract:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_keyword_and_positional_construction(self, cls):
        args = RECORDS[cls]
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(cls._fields, args)))
        assert by_position == by_keyword == tuple(args)
        assert tuple(getattr(by_keyword, f) for f in cls._fields) == tuple(args)
        assert by_position._asdict() == dict(zip(cls._fields, args))

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_immutable(self, cls):
        record = cls(*RECORDS[cls])
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record == tuple(RECORDS[cls])

    @pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
    def test_equal_values_hash_equal(self, cls):
        a, b = cls(*RECORDS[cls]), cls(**dict(zip(cls._fields, RECORDS[cls])))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_defaults(self):
        assert LinkCandidate("M", 0.9, 0.8).p_context == 1.0
        assert QuantityMention((0, 1), None, 5.0) == ((0, 1), None, 5.0, "", None, 0.0)
        assert AnnotatedSentence("t", ()).provenance == "rule"
        assert MwpProblem("p", "b", "q", "1", 1.0).mentions == ()
        assert RECORDS[UnitRecord][:-1] + (0.0,) == UnitRecord(*RECORDS[UnitRecord][:-1])

    def test_replace_drops_the_cached_forms(self):
        record = UnitRecord(*RECORDS[UnitRecord])
        assert record.normalized_forms == ("meter", "米", "m", "metre")
        renamed = record._replace(label_en="Metre", alias=())
        assert type(renamed) is UnitRecord
        assert renamed.normalized_forms == ("metre", "米", "m")
        assert record.normalized_forms == ("meter", "米", "m", "metre")
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_to_dict_key_order(self):
        assert list(MENTION.to_dict()) == [
            "value_span", "unit_span", "value", "unit_surface", "linked_unit", "link_score"
        ]
        sentence = AnnotatedSentence(*RECORDS[AnnotatedSentence])
        assert list(sentence.to_dict()) == ["line_no", "text", "provenance", "mentions"]
        assert AnnotatedSentence.from_dict(sentence.to_dict()) == sentence
        inst = TaskInstance(*RECORDS[TaskInstance])
        assert list(inst.to_dict()) == [
            "id", "task_type", "prompt", "candidates", "answer_index", "rationale", "seed"
        ]
        assert TaskInstance.from_dict(inst.to_dict()) == inst
        problem = MwpProblem(*RECORDS[MwpProblem])
        assert list(problem.to_dict()) == ["id", "body", "question", "equation", "answer", "answer_unit"]
        assert list(problem._replace(answer_unit=None).to_dict()) == [
            "id", "body", "question", "equation", "answer"
        ]
        record = AugmentationRecord(*RECORDS[AugmentationRecord])
        assert list(record.to_dict()) == [
            "problem_id", "method", "original_unit", "new_unit", "scale", "answer_before",
            "answer_after",
        ]
        assert AugmentationRecord.from_dict(record.to_dict()) == record


class TestValidatingRecords:
    def test_dimension_vector(self):
        dv = DimensionVector((0, 0, 1, 0, 0, 0, -1))
        same = DimensionVector(exponents=(0, 0, 1, 0, 0, 0, -1))
        assert dv is not same and dv == same and hash(dv) == hash(same)
        assert dv == DimensionVector.of(L=1, T=-1) and dv != LEN
        assert dv != (0, 0, 1, 0, 0, 0, -1)  # not a tuple
        with pytest.raises(AttributeError):
            dv.exponents = (0,) * 7
        assert format_dimension(dv) == "A0E0L1I0M0H0T-1D0"
        for bad in ((0,) * 6, (0,) * 8, (0.0,) * 7, ("1",) + (0,) * 6, [0] * 7, range(7)):
            with pytest.raises(DimensionValidationError):
                DimensionVector(bad)
        with pytest.raises(DimensionRangeError):
            DimensionVector((13, 0, 0, 0, 0, 0, 0))

    def test_knowledge_base_starts_with_its_own_empty_cache(self, kb):
        a, b = KnowledgeBase(kb.records.values()), KnowledgeBase(kb.records.values())
        assert a.match_cache == {} and a.match_cache is not b.match_cache
        assert len(a) == len(kb) and a.records == kb.records
