"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently.
"""

import random
import time


from corpus_fixture import corpus_lines, gold_corpus, planted_oracle_table, UNLINKABLE_PREDICTIONS
from dimkit.bootstrap import bootstrap_retrieve, load_triplets
from dimkit.dimension import (
    DIMENSIONLESS,
    DimensionVector,
    format_dimension,
    format_symbolic,
    parse_dimension,
)
from dimkit.kb import compute_frequency, conversion_factor
from dimkit.linking import link
from dimkit.mwp import (
    augment_context_dimension,
    augment_dataset,
    augment_question_dimension,
    evaluate_equation,
    load_problems,
)
from dimkit.quantity_text import TableOracle, annotate_corpus, review_lines, rule_annotate
from dimkit.scoring import Prediction, score_predictions, score_quantity_extraction
from dimkit.quantity_text import AnnotatedSentence, QuantityMention
from dimkit.tasks import (
    gen_comparable,
    gen_dimension_arithmetic,
    gen_dimension_prediction,
    gen_kind_match,
    gen_magnitude_comparison,
    gen_unit_conversion,
)
from dimkit.util import jsonl_lines, write_lines

from test_bootstrap import oracle_bootstrap
from test_linking import oracle_link, random_probes
from test_tasks import oracle_correct_flags


def _ok(n, message):
    print(f"[ACCEPTANCE] criterion {n:02d} PASS: {message}")


def test_criterion_01_dimension_group_laws():
    rng = random.Random(0xD1)
    started = time.perf_counter()
    for _ in range(1200):
        a, b, c = (
            DimensionVector(tuple(rng.randint(-4, 4) for _ in range(7))) for _ in range(3)
        )
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * DIMENSIONLESS == a
        assert a * a**-1 == DIMENSIONLESS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"group laws took {elapsed:.2f}s"
    _ok(1, f"abelian group laws on 1200 randomized triples in {elapsed:.2f}s")


def test_criterion_02_encoding_round_trip(kb, data_dir):
    rng = random.Random(0xD2)
    for _ in range(10_000):
        dv = DimensionVector(tuple(rng.randint(-12, 12) for _ in range(7)))
        assert parse_dimension(format_dimension(dv)) == dv
    encoded_strings = [
        line.split("\t")[9]
        for line in (data_dir / "units.tsv").read_text(encoding="utf-8").splitlines()
    ]
    for encoded in encoded_strings:
        assert format_dimension(parse_dimension(encoded)) == encoded
    _ok(2, f"10000 parse/format round trips and {len(encoded_strings)} canonical KB strings")


def test_criterion_03_unit_trap_dimensions(kb):
    assert format_symbolic(kb.unit("POUNDAL").dimension) == "LMT^-2"
    assert format_symbolic(kb.unit("DYN-PER-CentiM").dimension) == "MT^-2"
    _ok(3, 'poundal -> "LMT^-2", dyn/cm -> "MT^-2"')


def test_criterion_04_conversion_coherence(kb):
    started = time.perf_counter()
    pairs = triples = 0
    for units in kb.dimension_index.values():
        group = [u for u in units if kb.unit(u).affine_offset == 0.0]
        for a in group:
            for b in group:
                assert abs(conversion_factor(kb, a, b) * conversion_factor(kb, b, a) - 1.0) < 1e-12
                pairs += 1
                for c in group:
                    lhs = conversion_factor(kb, a, b) * conversion_factor(kb, b, c)
                    assert abs(lhs / conversion_factor(kb, a, c) - 1.0) < 1e-9
                    triples += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _ok(4, f"reciprocity on {pairs} pairs, transitivity on {triples} triples in {elapsed:.2f}s")


def test_criterion_05_frequency_endpoints():
    raw = {
        "low": (10.0, 10.0, 10.0),
        "mid": (100.0, 100.0, 100.0),
        "high": (1000.0, 1000.0, 1000.0),
    }
    freqs = compute_frequency(raw)
    assert freqs["low"] == 0.1  # min score gets exactly delta
    assert freqs["high"] == 1.0  # max score gets exactly 1
    assert abs(freqs["low"] - 0.1) < 1e-12
    assert abs(freqs["mid"] - 0.55) < 1e-12
    assert abs(freqs["high"] - 1.0) < 1e-12
    _ok(5, "min/max endpoints exact; log-linear fixture gives (0.1, 0.55, 1.0)")


def test_criterion_06_linking_oracle_equivalence(kb, emb):
    probes = random_probes(kb, 110, seed=0xD6)
    probes += [("degree", "water temperature today"), ("degree", "eyeglass prescription")]
    for surface, context in probes:
        ranked = link(kb, surface, context, emb, 0.5)
        expected = oracle_link(kb, surface, context, emb, 0.5)
        assert [c.unit_id for c in ranked] == [r[0] for r in expected], (surface, context)
    water = link(kb, "degree", "water temperature today", emb, 0.5)[0].unit_id
    lens = link(kb, "degree", "eyeglass prescription", emb, 0.5)[0].unit_id
    assert (water, lens) == ("DEG_C", "DIOPTER")
    _ok(6, f"{len(probes)} probes match the brute-force scorer; degree flips with context")


def test_criterion_07_task_generation_validity(kb, emb):
    started = time.perf_counter()
    sentences, _ = annotate_corpus(
        corpus_lines(), kb, emb, TableOracle(planted_oracle_table(), default="5"), 0.5
    )
    per_type = 1000
    batches = {
        "kind_match": gen_kind_match(kb, random.Random(1), per_type),
        "comparable": gen_comparable(kb, random.Random(2), per_type),
        "dimension_prediction": gen_dimension_prediction(
            sentences, kb, random.Random(3), per_type
        ),
        "dimension_arithmetic": gen_dimension_arithmetic(kb, random.Random(4), per_type),
        "magnitude_comparison": gen_magnitude_comparison(kb, random.Random(5), per_type),
        "unit_conversion": gen_unit_conversion(kb, random.Random(6), per_type),
    }
    for task_type, instances in batches.items():
        assert len(instances) == per_type
        for inst in instances:
            flags = oracle_correct_flags(kb, inst)
            assert sum(flags) == 1 and flags[inst.answer_index], inst
            assert len(inst.candidates) == 4
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    _ok(7, f"6 x {per_type} instances verified by the independent oracle in {elapsed:.1f}s")


def test_criterion_08_bootstrap_fixed_point(kb, emb, data_dir):
    store = load_triplets(data_dir / "triplets.tsv")
    assert len(store) == 200
    config = (0.8, 5, 10)
    result = bootstrap_retrieve(store, kb, *config, 0.5)
    o_triplets, o_predicates, o_mentions = oracle_bootstrap(store, kb, config, emb, 0.5)
    assert set(result.triplets) == o_triplets
    assert set(result.predicates) == o_predicates
    assert set(result.mentions) == o_mentions
    _ok(8, f"tau=0.8, 5 iterations: {len(result.triplets)} triplets, "
           f"{len(result.predicates)} predicates equal the naive reimplementation")


def test_criterion_09_table_v_reproduction(kb, emb, data_dir):
    pesticide = load_problems(data_dir / "mwp_sample.jsonl")[0]

    ctx, ctx_rec = augment_context_dimension(
        pesticide, kb, random.Random(0), emb, target_unit="GM"
    )
    assert "150000克" in ctx.body
    assert ctx_rec.answer_before == 450.0
    assert abs(ctx_rec.answer_after - 450.0) <= 1e-9 * 450.0
    assert abs(evaluate_equation(ctx.equation) - 450.0) <= 1e-9 * 450.0

    q, q_rec = augment_question_dimension(
        pesticide, kb, random.Random(0), emb, target_unit="TON_Metric"
    )
    assert q.question.endswith("多少吨？")
    assert q_rec.answer_before == 450.0
    assert abs(q_rec.answer_after - 0.45) <= 1e-9 * 0.45
    assert abs(evaluate_equation(q.equation) - 0.45) <= 1e-9 * 0.45
    _ok(9, "150 kg -> 150000 g keeps 450; question kg -> ton maps 450 -> 0.45")


def test_criterion_10_augmentation_invariants(kb, emb, data_dir):
    base = load_problems(data_dir / "mwp_sample.jsonl")
    problems = [
        type(p)(f"{p.id}-{i}", p.body, p.question, p.equation, p.answer, p.answer_unit)
        for i in range(250)
        for p in base
    ]
    out, records, failures = augment_dataset(
        problems, kb, random.Random(0xD10), eta=0.5, emb=emb
    )
    assert len(records) >= 800, f"only {len(records)} augmentations applied"
    for record in records:
        if record.method in ("context_format", "context_dimension", "question_format"):
            assert record.answer_after == record.answer_before
        elif record.method == "question_dimension":
            beta = conversion_factor(kb, record.original_unit, record.new_unit)
            assert abs(record.answer_after - record.answer_before * beta) <= 1e-9 * abs(
                record.answer_after or 1.0
            )
    for p in out:
        value = evaluate_equation(p.equation)
        assert abs(value - p.answer) <= 1e-9 * max(1.0, abs(p.answer))
    _ok(10, f"{len(records)} seeded augmentations at eta=0.5 hold all invariants "
            f"({len(failures)} recorded failures pass through unchanged)")


def test_criterion_11_annotation_pipeline(kb, emb, tmp_path):
    gold = gold_corpus()
    lines = corpus_lines()

    # planted predictions must not link as units (guards the oracle table)
    for word in UNLINKABLE_PREDICTIONS:
        assert link(kb, word, "", emb, 0.5) == []

    # step 1: strict span F1 = 1.0 on the unambiguous subset
    rule = rule_annotate(lines, kb, emb, 0.5)
    unambiguous = {g.line_no for g in gold if g.unambiguous and g.mentions}
    gold_sentences = [
        AnnotatedSentence(
            text=g.text,
            mentions=tuple(
                QuantityMention(m.value_span, m.unit_span, m.value) for m in g.mentions
            ),
            line_no=g.line_no,
        )
        for g in gold
        if g.line_no in unambiguous
    ]
    predicted = [s for s in rule if s.line_no in unambiguous]
    metrics = score_quantity_extraction(gold_sentences, predicted)
    assert metrics["QE"].f1 == 1.0
    assert metrics["VE"].f1 == 1.0
    assert metrics["UE"].f1 == 1.0

    # step 2: the stub filter removes exactly the planted false positives
    oracle = TableOracle(planted_oracle_table(), default="5")
    annotated, review = annotate_corpus(lines, kb, emb, oracle, 0.5)
    planted_lines = {g.line_no for g in gold if not g.unambiguous}
    assert planted_lines.isdisjoint({s.line_no for s in annotated})
    assert {r.line_no for r in review if r.verdict == "removed"} == planted_lines

    # byte-identical outputs across runs
    blobs = []
    for run in (1, 2):
        annotated_n, review_n = annotate_corpus(lines, kb, emb, oracle, 0.5)
        out = tmp_path / f"a{run}.jsonl"
        rev = tmp_path / f"r{run}.tsv"
        write_lines((out, jsonl_lines(annotated_n)), (rev, review_lines(review_n)))
        blobs.append(out.read_bytes() + rev.read_bytes())
    assert blobs[0] == blobs[1]
    _ok(11, f"rule F1 = 1.0 on {len(unambiguous)} unambiguous sentences; "
            f"{len(planted_lines)} planted false positives removed; output byte-identical")


def test_criterion_12_scorer_correctness():
    def gold_of(n):
        from test_scoring import make_gold

        return make_gold(n)

    gold = gold_of(100)

    all_correct = [Prediction(g.id, g.answer_index) for g in gold]
    m = score_predictions(gold, all_correct)["overall"]
    assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)

    half = [
        Prediction(g.id, g.answer_index if i < 50 else None) for i, g in enumerate(gold)
    ]
    m = score_predictions(gold, half)["overall"]
    assert m.precision == 1.0 and m.recall == 0.5
    assert abs(m.f1 - 2 / 3) < 1e-12

    all_wrong = [Prediction(g.id, (g.answer_index + 1) % 4) for g in gold]
    m = score_predictions(gold, all_wrong)["overall"]
    assert (m.precision, m.recall, m.f1, m.accuracy) == (0.0, 0.0, 0.0, 0.0)

    none_answered = [Prediction(g.id, None) for g in gold]
    m = score_predictions(gold, none_answered)["overall"]
    assert m.degenerate and m.precision == 0.0
    _ok(12, "all-correct, half-abstained (P=1, R=0.5, F1=2/3), all-wrong, and "
            "degenerate empty-prediction sets all hand-verified")
