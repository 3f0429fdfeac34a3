import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_fixture import gold_corpus, corpus_lines, planted_oracle_table, UNLINKABLE_PREDICTIONS
from dimkit import linking, quantity_text
from dimkit.errors import InputError
from dimkit.kb import KnowledgeBase
from dimkit.linking import candidate_generation, link
from dimkit.quantity_text import (
    AnnotatedSentence,
    CommandOracle,
    ConstantOracle,
    TableOracle,
    annotate_corpus,
    apply_review,
    extract_quantities,
    extract_values,
    is_numeric_literal,
    load_review,
    review_lines,
    rule_annotate,
    value_units,
)
from dimkit.util import (
    byte_slice,
    char_to_byte_offsets,
    jsonl_lines,
    read_lines,
    read_records,
    write_lines,
)
from test_entry import write_round0_inputs
from test_kb import LEN, make_record, small_kbs
from test_linking import uncached


def linking_every_prefix(text, kb, emb, threshold=0.5):
    """Reference rule stage: fully link every window prefix, keep the one
    whose best candidate has the highest mention similarity (longer on
    ties), and take its top-ranked unit."""
    to_byte = char_to_byte_offsets(text)
    out = []
    for (vstart, vend), value in extract_values(text):
        start, window = quantity_text._unit_window(text, to_byte.index(vend))
        best = None
        for end in range(1, len(window) + 1):
            prefix = window[:end].rstrip()
            ranked = link(kb, prefix, text, emb, threshold)
            if ranked:
                key = (max(c.p_mention for c in ranked), len(prefix))
                if best is None or key > best[0]:
                    best = (key, prefix, ranked[0])
        if best is None:
            out.append(((vstart, vend), None, value, "", None, 0.0))
            continue
        (_, plen), prefix, top = best
        span = (to_byte[start], to_byte[start + plen])
        out.append(((vstart, vend), span, value, prefix, top.unit_id, top.score))
    return out


class TestExtractValues:
    def test_simple_decimal(self):
        text = "height is 2.06 meters"
        [(span, value)] = extract_values(text)
        assert byte_slice(text, *span) == "2.06"
        assert value == 2.06

    def test_empty(self):
        assert extract_values("") == []

    def test_percent_and_plain(self):
        text = "20% of 150"
        (s1, v1), (s2, v2) = extract_values(text)
        assert byte_slice(text, *s1) == "20%" and v1 == pytest.approx(0.20)
        assert byte_slice(text, *s2) == "150" and v2 == 150.0

    def test_thousands_separators(self):
        text = "paid 1,234,567 once"
        [(span, value)] = extract_values(text)
        assert byte_slice(text, *span) == "1,234,567"
        assert value == 1234567.0

    def test_scientific_and_sign(self):
        text = "x = -1.5e3 then 2e-2"
        values = [v for _, v in extract_values(text)]
        assert values == [-1500.0, 0.02]

    def test_hyphen_after_word_is_not_sign(self):
        text = "the code LPUI-1T shipped"
        [(span, value)] = extract_values(text)
        assert byte_slice(text, *span) == "1"
        assert value == 1.0

    def test_overflowing_literal_skipped(self):
        assert extract_values("big 1e999 number") == []

    def test_spans_ascending_and_disjoint(self):
        text = "1 and 2.5% or 3,000 then 4e2"
        spans = [s for s, _ in extract_values(text)]
        assert spans == sorted(spans)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b <= c

    def test_cjk_offsets_are_bytes(self):
        text = "含药量20%的"
        [(span, value)] = extract_values(text)
        assert span == (9, 12)  # three CJK chars before = 9 bytes
        assert byte_slice(text, *span) == "20%"

    @given(
        st.text(
            alphabet=st.sampled_from(list("0123456789.,+-eE% 千克米kmg吨LPUI-T①é")),
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_arbitrary_text_yields_valid_spans(self, text):
        raw = text.encode("utf-8")
        previous_end = 0
        for (start, end), value in extract_values(text):
            assert 0 <= previous_end <= start < end <= len(raw)
            previous_end = end
            segment = raw[start:end].decode("utf-8")  # spans sit on char boundaries
            assert segment and value == value  # finite, non-NaN

    def test_is_numeric_literal(self):
        assert is_numeric_literal(" 5 ")
        assert is_numeric_literal("2.06")
        assert is_numeric_literal("37%")
        assert not is_numeric_literal("five")
        assert not is_numeric_literal("")
        assert not is_numeric_literal("5 meters")


class TestValueUnits:
    @given(small_kbs(), st.data(), st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_surfaces_are_those_extract_quantities_links(self, emb, kb, data, threshold):
        forms = sorted({f for r in kb.records.values() for f in r.surface_forms()})
        pieces = st.sampled_from(["3", "2.5", "1,200", "-4", "7%", " ", "x", "/", *forms])
        text = "".join(data.draw(st.lists(pieces, max_size=8)))
        got = value_units(text, kb, threshold)
        reference = linking_every_prefix(text, kb, emb, threshold)
        assert got == [(v, x, span, prefix or None) for v, span, x, prefix, _, _ in reference]
        mentions = extract_quantities(text, kb, emb, threshold)
        assert len(mentions) == len(got)
        for (_, _, unit_span, surface), m in zip(got, mentions):
            # a surface always links: context scoring never empties its candidates
            assert (surface is not None) == (m.linked_unit is not None)
            assert (unit_span, surface or "") == (m.unit_span, m.unit_surface)


def value_units_full_scan(text, kb, threshold=0.5):
    """Reference value_units: every window prefix scored through
    candidate_generation, the surface being the max by (p_mention, length)."""
    to_byte = char_to_byte_offsets(text)
    out = []
    for (vstart, vend), value in extract_values(text):
        start, window = quantity_text._unit_window(text, to_byte.index(vend))
        prefixes = [window[:end].rstrip() for end in range(1, len(window) + 1)]
        scored = [
            ((max(c.p_mention for c in candidates), len(prefix)), prefix)
            for prefix in prefixes
            if (candidates := candidate_generation(kb, prefix, threshold))
        ]
        if not scored:
            out.append(((vstart, vend), value, None, None))
            continue
        (_, plen), prefix = max(scored)
        out.append(((vstart, vend), value, (to_byte[start], to_byte[start + plen]), prefix))
    return out


@pytest.fixture(scope="module")
def perfbench_round0_dirs(tmp_path_factory, data_dir):
    """Directories holding perfbench's round-0 inputs of seeds 0-3."""
    dirs = [tmp_path_factory.mktemp(f"round0-{seed}") for seed in range(4)]
    for seed, d in enumerate(dirs):
        write_round0_inputs(seed, d, data_dir / "units.tsv")
    return dirs


@pytest.fixture(scope="module")
def perfbench_round0_texts(perfbench_round0_dirs):
    """perfbench's round-0 texts of seeds 0-3: annotate corpus lines, word
    problem bodies and questions, and distinct bootstrap objects."""
    texts = []
    for d in perfbench_round0_dirs:
        texts += read_lines(d / "corpus.txt")
        for problem in map(json.loads, read_lines(d / "problems.jsonl")):
            texts += [problem["body"], problem["question"]]
        texts += sorted({row.split("\t")[2] for row in read_lines(d / "triplets.tsv")})
    return texts


def jamo_kb():
    """Forms that NFC composes across a cut: U+1100 U+1161 is U+AC00."""
    return KnowledgeBase([
        make_record("J1", "Length", LEN, 1.0, label_en="\u1100"),
        make_record("J2", "Length", LEN, 2.0, label_en="\uac00m"),
        make_record("J3", "Length", LEN, 3.0, label_en="km"),
    ])


class TestValueUnitsShortcut:
    """An exact window prefix is taken without scoring; every result
    equals the full scan of all prefixes."""

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 1.0])
    def test_perfbench_round0_texts(self, kb, perfbench_round0_texts, threshold):
        texts = perfbench_round0_texts
        assert len(texts) > 1000
        fresh = uncached(kb)
        for text in texts:
            assert value_units(text, fresh, threshold) == value_units_full_scan(text, kb, threshold), text

    @pytest.mark.parametrize(
        "text, surface",
        [
            ("5 meterz", "meter"),  # exact "meter" behind the fuzzy "meterz"
            ("5 kmx", "km"),
            ("5 km  ", "km"),  # trailing spaces
            ("5 km  per", "km"),
            ("5 kilometers  ", "kilometers"),
        ],
    )
    def test_exact_prefix_behind_a_longer_one(self, kb, text, surface):
        got = value_units(text, uncached(kb), 0.5)
        assert got == value_units_full_scan(text, kb, 0.5)
        assert got[0][3] == surface

    @pytest.mark.parametrize(
        "text, surface",
        [
            ("5 \u1100", "\u1100"),
            ("5 \u1100\u1161", "\u1100"),  # composes to U+AC00, not a form
            ("5 \u1100\u1161m", "\u1100\u1161m"),  # composes to the form U+AC00 m
            ("5 \u1100\u1161mm", "\u1100\u1161m"),
            ("5 \uac00m ", "\uac00m"),
        ],
    )
    def test_nfc_composition_at_the_cut(self, text, surface):
        kb = jamo_kb()
        got = value_units(text, uncached(kb), 0.5)
        assert got == value_units_full_scan(text, kb, 0.5)
        assert got[0][3] == surface

    @given(small_kbs(), st.data(), st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan_on_small_kbs(self, kb, data, threshold):
        forms = sorted({f for r in kb.records.values() for f in r.surface_forms()})
        pieces = st.sampled_from(
            ["3", " ", "  ", "x", "/", "\u1100", "\u1161", "\u212a", "W", *forms]
        )
        text = "".join(data.draw(st.lists(pieces, max_size=8)))
        assert value_units(text, uncached(kb), threshold) == value_units_full_scan(text, kb, threshold)

    @pytest.mark.parametrize("threshold", [0, -0.5, 1.5, float("nan")])
    def test_threshold_outside_the_unit_interval_raises(self, kb, threshold):
        with pytest.raises(InputError):
            value_units("5 m", kb, threshold=threshold)


def test_every_match_cache_entry_is_one_traced_miss(kb, emb, perfbench_round0_dirs, monkeypatch):
    """Every match_cache entry of a rule-annotated corpus is filled inside
    a candidate_generation call, so a wrapper of that name, installed in
    each namespace that calls it (as perfbench's tracer does), sees one
    miss per entry."""
    misses = 0

    def traced(kb, surface, threshold=0.5):
        nonlocal misses
        before = len(kb.match_cache)
        result = candidate_generation(kb, surface, threshold)
        misses += len(kb.match_cache) > before
        return result

    monkeypatch.setattr(linking, "candidate_generation", traced)
    monkeypatch.setattr(quantity_text, "candidate_generation", traced)
    for d in perfbench_round0_dirs:
        fresh = uncached(kb)
        rule_annotate(read_lines(d / "corpus.txt"), fresh, emb)
        assert misses == len(fresh.match_cache) > 0, d
        misses = 0


class TestExtractQuantities:
    def test_height_sentence(self, kb, emb):
        text = "LeBron James's height is 2.06 meters"
        [m] = extract_quantities(text, kb, emb, 0.5)
        assert m.value == 2.06
        assert byte_slice(text, *m.unit_span) == "meters"
        assert m.linked_unit == "M"
        assert m.link_score > 0

    def test_device_code_rule_stage_candidate(self, kb, emb):
        text = "the code LPUI-1T shipped"
        [m] = extract_quantities(text, kb, emb, 0.5)
        assert m.value == 1.0
        assert byte_slice(text, *m.unit_span) == "T"
        assert m.linked_unit is not None  # to be removed by the filter stage

    def test_pesticide_sentence(self, kb, emb):
        text = "小王要将150千克农药运走。"
        [m] = extract_quantities(text, kb, emb, 0.5)
        assert m.value == 150.0
        assert byte_slice(text, *m.unit_span) == "千克"
        assert m.linked_unit == "KiloGM"

    def test_bare_value_has_no_unit(self, kb, emb):
        [m] = extract_quantities("The final score was 101.", kb, emb, 0.5)
        assert m.unit_span is None and m.linked_unit is None
        assert m.unit_surface == "" and m.link_score == 0.0

    def test_relinking_reproduces_linked_unit(self, kb, emb):
        for sentence in corpus_lines():
            for m in extract_quantities(sentence, kb, emb, 0.5):
                if m.linked_unit is None:
                    continue
                ranked = link(kb, m.unit_surface, sentence, emb, 0.5)
                assert ranked[0].unit_id == m.linked_unit

    def test_matches_linking_every_prefix(self, kb, emb, data_dir):
        sentences = read_lines(data_dir / "corpus_sample.txt") + corpus_lines()
        for sentence in sentences:
            got = [
                (m.value_span, m.unit_span, m.value, m.unit_surface, m.linked_unit, m.link_score)
                for m in extract_quantities(sentence, kb, emb, 0.5)
            ]
            assert got == linking_every_prefix(sentence, kb, emb), sentence

    def test_one_link_per_linked_mention(self, kb, emb, data_dir, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return link(*args, **kwargs)

        monkeypatch.setattr(quantity_text, "link", counted)
        linked = [
            m.unit_surface
            for sentence in read_lines(data_dir / "corpus_sample.txt")
            for m in extract_quantities(sentence, kb, emb, 0.5)
            if m.linked_unit is not None
        ]
        assert linked
        assert calls == linked

    def test_gold_corpus_rule_stage(self, kb, emb):
        """Construction-derived gold spans match the rule stage exactly on
        the unambiguous subset, including linked units."""
        for gold in gold_corpus():
            if not gold.unambiguous:
                continue
            mentions = extract_quantities(gold.text, kb, emb, 0.5)
            got = [(m.value_span, m.unit_span) for m in mentions]
            want = [(g.value_span, g.unit_span) for g in gold.mentions]
            assert got == want, gold.text
            for m, g in zip(mentions, gold.mentions):
                if g.unit_id is not None:
                    assert m.linked_unit == g.unit_id, gold.text

    def test_planted_mentions_are_emitted_by_rule_stage(self, kb, emb):
        for gold in gold_corpus():
            for g in gold.mentions:
                if not g.planted:
                    continue
                spans = [
                    (m.value_span, m.unit_span)
                    for m in extract_quantities(gold.text, kb, emb, 0.5)
                ]
                assert (g.value_span, g.unit_span) in spans, gold.text


class TestAnnotateCorpus:
    def test_step1_keeps_only_numeric_sentences(self, kb, emb):
        sentences = rule_annotate(corpus_lines(), kb, emb, 0.5)
        expected_lines = {g.line_no for g in gold_corpus() if g.mentions}
        assert {s.line_no for s in sentences} == expected_lines
        assert all(s.provenance == "rule" for s in sentences)

    def test_constant_numeric_stub_keeps_everything(self, kb, emb):
        rule = rule_annotate(corpus_lines(), kb, emb, 0.5)
        annotated, review = annotate_corpus(corpus_lines(), kb, emb, ConstantOracle("5"), 0.5)
        assert len(annotated) == len(rule)
        assert [len(s.mentions) for s in annotated] == [len(s.mentions) for s in rule]
        assert all(r.verdict == "kept:numeric" for r in review)
        assert all(s.provenance == "rule+filter" for s in annotated)

    def test_unit_prediction_also_keeps(self, kb, emb):
        annotated, review = annotate_corpus(
            ["The pool is 50 meters long."], kb, emb, ConstantOracle("meters"), 0.5
        )
        assert len(annotated) == 1
        assert review[0].verdict == "kept:unit"

    def test_planted_false_positives_removed(self, kb, emb):
        # guard: the planted predictions must not link as units
        for word in UNLINKABLE_PREDICTIONS:
            assert link(kb, word, "", emb, 0.5) == []
        oracle = TableOracle(planted_oracle_table(), default="5")
        annotated, review = annotate_corpus(corpus_lines(), kb, emb, oracle, 0.5)
        planted_lines = {g.line_no for g in gold_corpus() if not g.unambiguous}
        surviving = {s.line_no for s in annotated}
        assert planted_lines.isdisjoint(surviving)
        removed = {r.line_no for r in review if r.verdict == "removed"}
        assert removed == planted_lines

    def test_filter_only_removes(self, kb, emb):
        rule = {s.line_no: s for s in rule_annotate(corpus_lines(), kb, emb, 0.5)}
        oracle = TableOracle(planted_oracle_table(), default="5")
        annotated, _ = annotate_corpus(corpus_lines(), kb, emb, oracle, 0.5)
        for s in annotated:
            assert set(s.mentions) <= set(rule[s.line_no].mentions)

    def test_oracle_failure_is_fail_open(self, kb, emb):
        class Boom:
            def predict(self, text):
                raise RuntimeError("offline")

        annotated, review = annotate_corpus(["It weighs 3 kg."], kb, emb, Boom(), 0.5)
        assert len(annotated) == 1
        assert annotated[0].provenance == "rule"
        assert review[0].verdict == "error:oracle"

    def test_deterministic_byte_identical_output(self, kb, emb, tmp_path):
        oracle = TableOracle(planted_oracle_table(), default="5")
        paths = []
        for run in (1, 2):
            annotated, review = annotate_corpus(corpus_lines(), kb, emb, oracle, 0.5)
            out = tmp_path / f"run{run}.jsonl"
            rev = tmp_path / f"run{run}.tsv"
            write_lines((out, jsonl_lines(annotated)), (rev, review_lines(review)))
            paths.append((out.read_bytes(), rev.read_bytes()))
        assert paths[0] == paths[1]

    def test_review_roundtrip_and_apply(self, kb, emb, tmp_path):
        oracle = TableOracle(planted_oracle_table(), default="5")
        rule = rule_annotate(corpus_lines(), kb, emb, 0.5)
        _, review = annotate_corpus(corpus_lines(), kb, emb, oracle, 0.5)
        path = tmp_path / "review.tsv"
        write_lines((path, review_lines(review)))
        loaded = load_review(path)
        assert loaded == review

        # a human rejects one kept mention and accepts one removed mention
        edited = []
        flipped_reject = flipped_accept = None
        for row in loaded:
            if row.verdict == "kept:numeric" and flipped_reject is None:
                flipped_reject = (row.line_no, row.span)
                edited.append(type(row)(row.line_no, row.span, row.surface, "reject"))
            elif row.verdict == "removed" and flipped_accept is None:
                flipped_accept = (row.line_no, row.span)
                edited.append(type(row)(row.line_no, row.span, row.surface, "accept"))
            else:
                edited.append(row)
        result = apply_review(rule, edited)
        assert all(s.provenance == "reviewed" for s in result)
        spans = {(s.line_no, m.quantity_span) for s in result for m in s.mentions}
        assert flipped_reject not in spans
        assert flipped_accept in spans

    @pytest.mark.parametrize(
        "bad", ["1\t0-3", "1\t0-3\ta\tremoved\textra", "1\t0_3\ta\tremoved", "x\t0-3\ta\tremoved"]
    )
    def test_malformed_review_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "review.tsv"
        path.write_text(f"1\t0-3\tabc\tkept:numeric\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"{path}: line 3:")):
            load_review(path)

    def test_annotated_jsonl_roundtrip(self, kb, emb, tmp_path):
        annotated, _ = annotate_corpus(corpus_lines(), kb, emb, ConstantOracle("5"), 0.5)
        path = tmp_path / "annotated.jsonl"
        write_lines((path, jsonl_lines(annotated)))
        assert read_records(path, AnnotatedSentence.from_dict) == annotated


def test_command_oracle_runs_subprocess():
    oracle = CommandOracle(["cat"])
    assert oracle.predict("mask [MASK] here") == "mask [MASK] here"
