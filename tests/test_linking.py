import functools
import gc
import math
import random
import unicodedata
import warnings
import weakref
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimkit.dimension import DimensionVector
from dimkit.embeddings import (
    TrigramHashEmbedding,
    TrigramVector,
    WordVector,
    WordVectorEmbedding,
    cosine,
    tokenize,
)
from dimkit.errors import InputError, LinkingConfigError
from dimkit import linking
from dimkit.kb import KnowledgeBase, UnitRecord, char_masks
from dimkit.linking import (
    candidate_generation,
    context_score,
    levenshtein,
    link,
    mention_similarity,
)
from dimkit.util import normalize_surface
from test_kb import LEN, make_record, small_kbs

# ---------------------------------------------------------------------------
# Independent oracle: a separately coded edit distance and scorer.


def oracle_levenshtein(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[-1][-1]


def oracle_norm(s: str) -> str:
    s = unicodedata.normalize("NFC", s)
    s = " ".join(s.split())
    return "".join(c.lower() if "A" <= c <= "Z" else c for c in s)


def oracle_similarity(a: str, b: str) -> float:
    na, nb = oracle_norm(a), oracle_norm(b)
    longest = max(len(na), len(nb))
    if longest == 0:
        return 1.0
    return 1.0 - oracle_levenshtein(na, nb) / longest


def oracle_context(context: str, record: UnitRecord, emb) -> float:
    tokens = emb.tokenize(context)
    if not tokens:
        return 1.0
    kw_tokens = [t for kw in record.keywords for t in emb.tokenize(kw)]
    kw_vectors = [emb.vector(t) for t in kw_tokens]
    kw_vectors = [v for v in kw_vectors if v is not None]
    total = 0.0
    for token in tokens:
        v = emb.vector(token)
        if v is None or not kw_vectors:
            continue
        total += max(min(max(cosine(v, k), 0.0), 1.0) for k in kw_vectors)
    return total / len(tokens)


def oracle_link(kb, surface, context, emb, threshold):
    """Brute-force scorer over every KB record."""
    rows = []
    for uid, record in kb.records.items():
        sim = max(
            (oracle_similarity(surface, form) for form in record.surface_forms()), default=0.0
        )
        if not (sim > threshold or sim == 1.0):
            continue
        ctx = oracle_context(context, record, emb)
        rows.append((uid, record.frequency, sim, ctx, record.frequency * sim * ctx))
    rows.sort(key=lambda r: (-r[4], -r[1], r[0]))
    return rows


def random_probes(kb, count, seed=2024):
    """Randomized (surface, context) pairs built from real forms plus noise."""
    rng = random.Random(seed)
    forms = sorted({f for r in kb.records.values() for f in r.surface_forms()})
    words = ["water", "engine", "race", "lens", "温度", "距离", "field", "pressure", "", "box"]
    probes = []
    for _ in range(count):
        base = rng.choice(forms)
        mode = rng.randrange(4)
        if mode == 0:
            surface = base
        elif mode == 1:  # typo: drop one char
            k = rng.randrange(len(base))
            surface = (base[:k] + base[k + 1 :]) or base
        elif mode == 2:  # typo: duplicate a char
            k = rng.randrange(len(base))
            surface = base[:k] + base[k] + base[k:]
        else:
            surface = base + rng.choice(["s", "x", "/cm", "2"])
        context = " ".join(rng.sample(words, rng.randrange(0, 4)))
        probes.append((surface, context))
    return probes


def scan(kb, surface, threshold):
    """Brute-force candidate generation: every record, in kb.records order."""
    out = []
    for uid, record in kb.records.items():
        sim = mention_similarity(surface, record)
        if sim > threshold or sim == 1.0:
            out.append((uid, sim))
    return out


def pairs(candidates):
    return [(c.unit_id, c.p_mention) for c in candidates]


# CJK, combining marks, "/", "°", the control characters that pad
# bigrams, and whitespace (alone it normalizes to the empty string)
_CHARS = st.text(
    st.sampled_from(list("mkgsMKW/°米千克度 \t\u3000\u0301\u030a\x02\x03")), max_size=10
)
# 1.0 keeps exact matches only; below 1e-6 the bigram count bound is vacuous
THRESHOLDS = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1e-6, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


def surfaces(forms):
    """Random text, or a KB form with one character replaced by random text."""
    edited = st.builds(
        lambda form, i, text: form[:i] + text + form[i + 1 :],
        st.sampled_from(forms), st.integers(0, 12), _CHARS,
    )
    return st.one_of(_CHARS, st.sampled_from(forms), edited)


# ---------------------------------------------------------------------------


def one_form(form: str) -> UnitRecord:
    """A record whose only surface form is `form`."""
    return make_record("X", "Length", DimensionVector.of(L=1), 1.0, label_en=form)


# any Unicode, or a three-letter alphabet (dense matches) at lengths
# around and past 64, the width of one machine word
_LEV_TEXT = st.one_of(
    st.text(max_size=100),
    st.text(st.sampled_from("ab\u0301"), min_size=50, max_size=100),
)


class TestLevenshtein:
    @given(_LEV_TEXT, _LEV_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_and_is_symmetric(self, a, b):
        distance = levenshtein(a, b)
        assert distance == oracle_levenshtein(a, b)
        assert levenshtein(b, a) == distance

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 100])
    def test_word_boundary_lengths(self, n):
        a = "ab" * (n // 2) + "a" * (n % 2)
        for b in ("", a, a[1:], a[:-1] + "x", "x" + a, a[::-1], "米" * n):
            assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)
            assert levenshtein(b, a) == oracle_levenshtein(a, b), (a, b)


def packed_distances(forms, text):
    """Each form's distance to every prefix of text, one packed pass per
    prefix."""
    patterns = {f: char_masks(f) for f in forms}
    passes = [linking._packed_pass(forms, patterns, text[:j]) for j in range(len(text) + 1)]
    return {f: [distances[f] for distances in passes] for f in forms}


# forms: any Unicode; repeated characters past 64, the width of one
# machine word; the control characters that pad bigrams; CJK
_FORM = st.one_of(
    st.text(max_size=12),
    st.text(st.sampled_from("ab\u0301"), min_size=50, max_size=80),
    st.text(st.sampled_from("ab\x02\x03米千克"), max_size=12),
)


class TestPrefixDistances:
    @given(
        st.one_of(st.text(max_size=70), st.text(st.sampled_from("ab\u0301"), min_size=50, max_size=70)),
        st.one_of(st.text(max_size=30), st.text(st.sampled_from("ab\u0301"), max_size=30)),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_prefix_matches_oracle(self, form, text):
        got = packed_distances([form], text)[form]
        assert got == [oracle_levenshtein(form, text[:j]) for j in range(len(text) + 1)]

    @given(
        st.lists(_FORM, unique=True, max_size=8),
        st.one_of(st.text(max_size=20), st.text(st.sampled_from("ab\x02\x03米千克"), max_size=20)),
    )
    @settings(max_examples=300, deadline=None)
    def test_packed_forms_match_oracle(self, forms, text):
        """Forms packed in one int do not disturb each other: no carry or
        shifted bit crosses a spare bit."""
        got = packed_distances(forms, text)
        for form in forms:
            assert got[form] == [oracle_levenshtein(form, text[:j]) for j in range(len(text) + 1)], form

    def test_empty_text_reads_each_form_length(self):
        forms = ["", "米", "a" * 70, "\x02m\x03"]
        assert packed_distances(forms, "") == {f: [len(f)] for f in forms}


class TestSimilarity:
    def test_exact_symbol_match(self, kb):
        assert mention_similarity("kg", kb.unit("KiloGM")) == 1.0

    def test_metre_vs_meter(self):
        assert mention_similarity("metre", one_form("meter")) == pytest.approx(1 - 2 / 5)

    def test_disjoint_strings(self):
        assert mention_similarity("xyz", one_form("abc")) == 0.0

    @given(st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_symmetric_and_exact_iff_equal(self, a, b):
        sim = mention_similarity(a, one_form(b))
        assert sim == pytest.approx(mention_similarity(b, one_form(a)))
        if oracle_norm(a) == oracle_norm(b):
            assert sim == 1.0
        else:
            assert sim < 1.0

    @given(st.text(max_size=12), st.text(min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_matches_oracle_distance(self, a, b):
        assert mention_similarity(a, one_form(b)) == pytest.approx(oracle_similarity(a, b))


def uncached(kb: KnowledgeBase) -> KnowledgeBase:
    """The same knowledge base with an empty match cache and no index yet."""
    return KnowledgeBase(kb.records.values())


def counting_kernel(calls):
    """A _packed_pass spy: records (text, frozenset of packed forms) of each
    pass and answers with the real kernel."""
    kernel = linking._packed_pass

    def spy(forms, patterns, text):
        calls.append((text, frozenset(forms)))
        return kernel(forms, patterns, text)

    return spy


class TestCandidateGeneration:
    def test_dyne_cm_candidates(self, kb):
        ids = {c.unit_id for c in candidate_generation(kb, "dyne/cm", 0.5)}
        assert "DYN-PER-CentiM" in ids

    def test_threshold_one_keeps_exact_matches_only(self, kb):
        candidates = candidate_generation(kb, "meter", 1.0)
        assert {c.unit_id for c in candidates} == {"M"}
        assert all(c.p_mention == 1.0 for c in candidates)

    def test_degree_is_ambiguous(self, kb):
        ids = {c.unit_id for c in candidate_generation(kb, "degree", 0.5)}
        assert {"DEG_C", "DIOPTER"} <= ids

    def test_candidates_carry_prior_and_similarity(self, kb):
        for c in candidate_generation(kb, "kilometers", 0.5):
            rec = kb.unit(c.unit_id)
            assert c.prior == rec.frequency
            assert c.p_mention == pytest.approx(mention_similarity("kilometers", rec))

    def test_threshold_validation(self, kb):
        with pytest.raises(ValueError):
            candidate_generation(kb, "m", 0.0)

    @given(st.data(), THRESHOLDS)
    @settings(max_examples=300, deadline=None)
    def test_index_matches_scan_on_packaged_kb(self, kb, data, threshold):
        forms = sorted({f for r in kb.records.values() for f in r.surface_forms()})
        surface = data.draw(surfaces(forms))
        fresh = uncached(kb)  # a miss, and a new index
        assert pairs(candidate_generation(fresh, surface, threshold)) == scan(fresh, surface, threshold)

    @given(small_kbs(), st.data(), THRESHOLDS)
    @settings(max_examples=200, deadline=None)
    def test_index_matches_scan_on_small_kbs(self, kb, data, threshold):
        forms = sorted({f for r in kb.records.values() for f in r.surface_forms()} | {"m"})  # never empty
        surface = data.draw(surfaces(forms))
        assert pairs(candidate_generation(kb, surface, threshold)) == scan(kb, surface, threshold)

    def test_surface_sharing_no_bigram_is_never_scored(self, kb, monkeypatch):
        calls = []
        monkeypatch.setattr(linking, "_packed_pass", counting_kernel(calls))
        fresh = uncached(kb)
        assert candidate_generation(fresh, "qqqq", 0.5) == []
        assert ("qqqq", 0.5) in fresh.match_cache
        assert calls == []

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8])
    def test_only_surviving_forms_are_scored(self, kb, monkeypatch, threshold):
        calls = []
        monkeypatch.setattr(linking, "_packed_pass", counting_kernel(calls))
        fresh = uncached(kb)
        scored = 0
        for surface, _ in random_probes(kb, 60, seed=int(threshold * 10)):
            calls.clear()
            query = normalize_surface(surface)
            hit = (query, threshold) in fresh.match_cache
            candidate_generation(fresh, surface, threshold)
            survivors = linking._surviving_forms(fresh, query, threshold)
            # a miss makes one pass over the query, over its surviving forms only
            assert calls == ([] if hit or not survivors else [(query, survivors)]), surface
            scored += len(calls)
        assert scored > 0


@functools.cache
def cached_oracle_similarity(a, b):
    return oracle_similarity(a, b)


def oracle_candidates(kb, query, threshold):
    """Per-prefix scan of every record with the oracle distance."""
    out = []
    for uid, record in kb.records.items():
        sim = max((cached_oracle_similarity(query, f) for f in record.normalized_forms), default=0.0)
        if sim > threshold or sim == 1.0:
            out.append((uid, sim))
    return out


# a combining mark after "W" or "A" composes with it only once both are
# in the prefix, which breaks the prefix relation of the normalized queries
_WINDOW_TEXT = st.text(st.sampled_from(list("mkgsMKWA/°米千克度 \u0301\u030a")), max_size=8)
_CUT = st.sampled_from(["", "  ", "\u030a", "\u0301", "W\u030a", " "])


def windows(forms):
    """Unit windows: random text or a KB form plus random text, with a
    mark or double space cut in anywhere and optional trailing spaces."""
    base = st.one_of(_WINDOW_TEXT, st.builds(str.__add__, st.sampled_from(forms), _WINDOW_TEXT))
    return st.builds(
        lambda w, i, cut, tail: w[:i] + cut + w[i:] + tail,
        base, st.integers(0, 14), _CUT, st.sampled_from(["", " ", "  "]),
    )


class TestWindowCandidates:
    """The candidates of every prefix of a window equal a per-prefix
    oracle scan, cold or warm."""

    def check(self, kb, data, threshold):
        forms = sorted({f for r in kb.records.values() for f in r.surface_forms()} | {"m"})
        window = data.draw(windows(forms))
        prefixes = [window[:end] for end in range(len(window) + 1)]
        fresh = uncached(kb)
        for prefix in data.draw(st.lists(st.sampled_from(prefixes), max_size=3)):
            candidate_generation(fresh, prefix, threshold)  # warm some entries first
        got = [candidate_generation(fresh, prefix, threshold) for prefix in prefixes]
        for prefix, candidates in zip(prefixes, got):
            expected = oracle_candidates(fresh, normalize_surface(prefix), threshold)
            assert pairs(candidates) == expected, prefix
        assert set(fresh.match_cache) == {(normalize_surface(p), threshold) for p in prefixes}
        for (query, t), candidates in fresh.match_cache.items():
            assert pairs(candidates) == oracle_candidates(fresh, query, t), query

    @given(st.data(), THRESHOLDS)
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_on_packaged_kb(self, kb, data, threshold):
        self.check(kb, data, threshold)

    @given(small_kbs(), st.data(), THRESHOLDS)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_small_kbs(self, kb, data, threshold):
        self.check(kb, data, threshold)


class TestContextScore:
    def test_identical_tokens_score_one(self, kb, emb):
        record = kb.unit("DEG_C")
        ctx = " ".join(record.keywords)
        assert context_score(ctx, record, emb) == pytest.approx(1.0)

    def test_empty_context_is_neutral(self, kb, emb):
        assert context_score("", kb.unit("M"), emb) == 1.0

    def test_zero_keywords_is_config_error(self, emb, kb):
        context_score("any", kb.unit("M"), emb)
        record = kb.unit("M")._replace(keywords=())
        for _ in range(2):  # raised on every call, never memoized
            with pytest.raises(LinkingConfigError):
                context_score("any", record, emb)

    def test_contexts_of_seen_tokens_add_no_table_entry(self, kb):
        emb = TrigramHashEmbedding()
        records = [kb.unit(u) for u in ("DEG_C", "DIOPTER", "M")]
        words = "water temperature eyeglass lens of the today".split()

        def entries():
            tables = linking._CONTEXT_TABLES[emb]
            return sum(map(len, tables)) + sum(len(t[2]) for t in tables[0].values())

        for record in records:
            context_score(" ".join(words), record, emb)
        seen = entries()
        rng = random.Random(3)
        contexts = {" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(200)}
        for context in contexts:
            for record in records:
                context_score(context, record, emb)
        assert len(contexts) > 100
        assert entries() == seen

    @staticmethod
    def assert_hot_is_config_error(hot, where):
        """context_score over a provider that hands out rows unchecked
        raises, naming the token, whether "hot" is a context token or a
        keyword."""

        class TableEmbedding:
            dim = 2

            def tokenize(self, text):
                return tokenize(text)

            def vector(self, token):
                return table.get(token)

        table = {"cold": WordVector([0.0, 1.0]), "hot": WordVector(hot)}
        keywords = ("cold", "hot") if where == "keyword" else ("cold",)
        record = make_record("X", "Length", LEN, 1.0, keywords=keywords)
        for _ in range(2):  # raised on every call, never memoized
            with pytest.raises(LinkingConfigError, match="'hot'"):
                context_score("cold hot", record, TableEmbedding())

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    @pytest.mark.parametrize("where", ["context", "keyword"])
    def test_vector_with_a_non_finite_squared_norm_is_config_error(self, bad, where):
        self.assert_hot_is_config_error([bad, 0.0], where)

    @pytest.mark.parametrize("where", ["context", "keyword"])
    def test_nonzero_vector_with_a_zero_squared_norm_is_config_error(self, where):
        """A nonzero vector whose squared norm underflows to 0 would score
        as the zero vector, even against itself."""
        hot = [1e-170, 3e-170]
        assert WordVector(hot).dot(WordVector(hot)) == 0.0
        self.assert_hot_is_config_error(hot, where)

    def test_degree_disambiguation_ordering(self, kb, emb):
        celsius, diopter = kb.unit("DEG_C"), kb.unit("DIOPTER")
        ctx = "water temperature today"
        assert context_score(ctx, celsius, emb) > context_score(ctx, diopter, emb)
        ctx = "eyeglass prescription"
        assert context_score(ctx, diopter, emb) > context_score(ctx, celsius, emb)


class TestContextScoreBits:
    """context_score carries the same bits as the per-pair oracle."""

    @staticmethod
    def contexts(kb):
        probes = sorted({c for _, c in random_probes(kb, 200)})
        return probes + ["water temperature today", "the lens of an eyeglass", "1 2 3 !"]

    @classmethod
    def words(cls, kb):
        words = {t for r in kb.records.values() for kw in r.keywords for t in tokenize(kw)}
        return sorted(words | {t for c in cls.contexts(kb) for t in tokenize(c)})

    @staticmethod
    def vector_file(tmp_path, rows, dim):
        path = tmp_path / "vectors.txt"
        lines = [" ".join([token, *map(repr, values)]) for token, values in rows]
        path.write_text(f"{len(lines)} {dim}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        return WordVectorEmbedding(path)

    def assert_bit_equal(self, kb, emb, extra=()):
        for _ in range(2):  # the second pass reads the memo
            for context in [*self.contexts(kb), *extra]:
                for record in kb.records.values():
                    got = context_score(context, record, emb)
                    assert got == oracle_context(context, record, emb), (context, record.unit_id)

    def test_trigram_embedding(self, kb):
        self.assert_bit_equal(kb, TrigramHashEmbedding())

    def test_word_vectors_with_negative_zeros(self, kb, tmp_path):
        rng = random.Random(5)
        rows = []
        for i, token in enumerate(self.words(kb)):
            if i % 7 == 3:
                values = [-0.0] * 4  # a zero norm
            else:
                values = [rng.choice([-0.0, -0.0, 0.0, rng.uniform(-2.0, 2.0)]) for _ in range(4)]
            rows.append((token, values))
        emb = self.vector_file(tmp_path, rows, 4)
        assert any(math.copysign(1.0, x) < 0.0 for t, _ in rows for x in emb.vector(t))
        self.assert_bit_equal(kb, emb)

    def test_keyword_rows_sharing_one_index(self, kb, tmp_path):
        rng = random.Random(8)
        rows = []
        for token in self.words(kb):  # one or two nonzeros out of eight
            values = [0.0] * 8
            for j in rng.sample(range(8), rng.randint(1, 2)):
                values[j] = rng.uniform(-3.0, 3.0)
            rows.append((token, values))
        emb = self.vector_file(tmp_path, rows, 8)
        support = {t: set(emb.vector(t).support()) for t, _ in rows}
        keyword_tokens = {t for r in kb.records.values() for kw in r.keywords for t in tokenize(kw)}
        context_tokens = {t for c in self.contexts(kb) for t in tokenize(c)}
        assert any(
            len(support[a] & support[b]) == 1 for a in context_tokens for b in keyword_tokens
        )
        self.assert_bit_equal(kb, emb)

    def test_trigram_tokens_with_cancelling_hashes(self, kb):
        emb = TrigramHashEmbedding()
        keyword_vectors = [
            emb.vector(t) for r in kb.records.values() for kw in r.keywords for t in tokenize(kw)
        ]
        tokens = ["lar", "mot", "itu", "dek"]
        for token in tokens:  # two trigrams of the token land on one index with opposite signs
            padded = f"^{token}$"
            hits = {}
            for i in range(len(padded) - 2):
                h = zlib.crc32(padded[i : i + 3].encode("utf-8"))
                hits.setdefault(h % emb.dim, []).append(1 if (h >> 16) & 1 else -1)
            cancelled = [i for i, signs in hits.items() if len(signs) == 2 and sum(signs) == 0]
            assert cancelled, token
            assert all(emb.vector(token).entries.get(i, 0.0) == 0.0 for i in cancelled)
            assert any(k.entries.get(i, 0.0) != 0.0 for k in keyword_vectors for i in cancelled), token
        self.assert_bit_equal(kb, emb, extra=[" ".join(tokens), "lar water", "dek itu mot temperature"])

    def test_word_vectors_of_magnitudes_1e_150_to_1e150(self, kb, tmp_path):
        rng = random.Random(13)
        rows = []
        for token in self.words(kb):
            scale = 10.0 ** rng.choice([-150, -75, 0, 75, 150])
            rows.append((token, [rng.choice([0.0, scale * rng.uniform(-1.0, 1.0)]) for _ in range(4)]))
        emb = self.vector_file(tmp_path, rows, 4)
        self.assert_bit_equal(kb, emb)
        scores = [context_score(c, r, emb) for c in self.contexts(kb) for r in kb.records.values()]
        assert all(map(math.isfinite, scores)) and any(0.0 < s < 1.0 for s in scores)

    def test_disjoint_supports_skip_the_dot_product(self, kb, monkeypatch):
        overlapping = []
        real_dot = TrigramVector.dot

        def dot(a, b):
            if a is not b:  # not a norm
                overlapping.append(bool(set(a.support()) & set(b.support())))
            return real_dot(a, b)

        monkeypatch.setattr(TrigramVector, "dot", dot)
        emb = TrigramHashEmbedding()
        pairs_scored = 0
        for context in self.contexts(kb):
            for record in kb.records.values():
                context_score(context, record, emb)
                keyword_tokens = [t for kw in record.keywords for t in tokenize(kw)]
                pairs_scored += len(tokenize(context)) * len(keyword_tokens)
        assert overlapping and all(overlapping)
        assert len(overlapping) < pairs_scored

    def test_word_vectors_unnormalized_with_zero_rows(self, kb, tmp_path):
        rng = random.Random(11)
        words = {t for r in kb.records.values() for kw in r.keywords for t in tokenize(kw)}
        words |= {t for c in self.contexts(kb) for t in tokenize(c)}
        zero = {"water", "lens"}  # a context word and a keyword of DEG_C / DIOPTER
        rows = []
        for i, token in enumerate(sorted(words)):
            if i % 5 == 2 and token not in zero:
                continue  # no vector
            values = [0.0] * 6 if token in zero else [rng.uniform(-4.0, 4.0) for _ in range(6)]
            rows.append(" ".join([token, *map(repr, values)]))
        path = tmp_path / "vectors.txt"
        path.write_text(f"{len(rows)} 6\n" + "\n".join(rows) + "\n", encoding="utf-8")
        self.assert_bit_equal(kb, WordVectorEmbedding(path))

    def test_kbs_sharing_a_unit_id_keep_their_keywords(self):
        emb = TrigramHashEmbedding()
        warm = make_record("X", "Length", LEN, 1.0, keywords=("water", "temperature"))
        optic = warm._replace(keywords=("lens", "eyeglass"))
        context = "water temperature today"
        scores = []
        for record in (warm, optic, warm, optic):
            kb = KnowledgeBase([record])
            score = context_score(context, kb.records["X"], emb)
            assert score == oracle_context(context, record, emb)
            scores.append(score)
        assert scores[0] > scores[1]

    def test_tables_do_not_keep_the_embedder_alive(self, kb):
        emb = TrigramHashEmbedding()
        context_score("water temperature", kb.unit("DEG_C"), emb)
        ref = weakref.ref(emb)
        del emb
        gc.collect()
        assert ref() is None


class TestLink:
    def test_dyne_cm_top1(self, kb, emb):
        ranked = link(kb, "dyne/cm", "surface tension physics", emb, 0.5)
        assert ranked[0].unit_id == "DYN-PER-CentiM"

    def test_dyne_cm_top1_no_context(self, kb, emb):
        assert link(kb, "dyne/cm", "", emb, 0.5)[0].unit_id == "DYN-PER-CentiM"

    def test_exact_unique_surface_empty_context(self, kb, emb):
        ranked = link(kb, "kilometer", "", emb, 0.5)
        top = ranked[0]
        assert top.unit_id == "KiloM"
        assert top.p_mention == 1.0 and top.p_context == 1.0
        assert top.score == kb.unit("KiloM").frequency

    def test_rare_exact_unit_needs_context(self, kb, emb):
        # bare "poundal" loses to the far more frequent fuzzy "pounds";
        # a force-flavored context restores the exact match
        assert link(kb, "poundal", "", emb, 0.5)[0].unit_id == "LB"
        ranked = link(kb, "poundal", "the lab recorded a force", emb, 0.5)
        assert ranked[0].unit_id == "POUNDAL"

    def test_degree_flips_with_context(self, kb, emb):
        by_water = link(kb, "degree", "water temperature today", emb, 0.5)
        by_lens = link(kb, "degree", "eyeglass prescription", emb, 0.5)
        assert by_water[0].unit_id == "DEG_C"
        assert by_lens[0].unit_id == "DIOPTER"

    def test_unlinkable_returns_empty(self, kb, emb):
        assert link(kb, "zzzzqqq", "", emb, 0.5) == []

    def test_link_rejects_an_empty_surface(self, kb, emb):
        with pytest.raises(InputError, match="mention surface must be non-empty"):
            link(kb, "", "a rope of 5 m", emb, 0.5)

    def test_score_product_invariant(self, kb, emb):
        for c in link(kb, "degree", "water boiled", emb, 0.5):
            assert abs(c.score - c.prior * c.p_mention * c.p_context) < 1e-12

    def test_matches_bruteforce_oracle(self, kb, emb):
        for surface, context in random_probes(kb, 120):
            ranked = link(kb, surface, context, emb, 0.5)
            expected = oracle_link(kb, surface, context, emb, 0.5)
            assert [c.unit_id for c in ranked] == [r[0] for r in expected], (surface, context)
            for c, r in zip(ranked, expected):
                assert c.score == pytest.approx(r[4], abs=1e-12)

    def test_order_invariant_under_prior_rescaling(self, kb, emb):
        probes = random_probes(kb, 25, seed=77)
        for kappa in (0.03, 0.5):  # keep rescaled priors within (0, 1]
            scaled = KnowledgeBase(
                r._replace(frequency=r.frequency * kappa)
                for r in kb.records.values()
            )
            for surface, context in probes:
                a = [c.unit_id for c in link(kb, surface, context, emb, 0.5)]
                b = [c.unit_id for c in link(scaled, surface, context, emb, 0.5)]
                assert a == b


class TestProviders:
    def test_trigram_determinism(self):
        a, b = TrigramHashEmbedding(), TrigramHashEmbedding()
        for token in ("meter", "温度", "kg2"):
            x, y = ([v.entries.get(i, 0.0) for i in range(v.dim)] for v in (a.vector(token), b.vector(token)))
            assert all(map(math.isclose, x, y))
            assert cosine(a.vector(token), b.vector(token)) == pytest.approx(1.0)

    def test_trigram_tokenize(self, emb):
        assert emb.tokenize("Water 温度 20kg!") == ["water", "温", "度", "20", "kg"]

    def test_vector_file_provider(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text(
            "3 4\nwater 1.0 0.0 0.0 0.0\nlens 0.0 1.0 0.0 0.0\n温 0.5 0.5 0.0 0.0\n",
            encoding="utf-8",
        )
        emb = WordVectorEmbedding(path)
        assert emb.dim == 4
        assert emb.vector("water") is not None
        assert emb.vector("missing") is None
        assert cosine(emb.vector("water"), emb.vector("lens")) == 0.0

    def test_vector_file_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text, line in [
            ("1 3\nwater 1.0 2.0\n", 2),
            ("3 2\nlength 1e200 1.0\nmeter 0.5 0.5\nthe 1.0 0\n", 2),  # squared norm overflows
            ("3 2\nmeter 0.5 0.5\nlength 1e154 1e154\nthe 1.0 0\n", 3),  # so does fsum's partial sum
            ("3 2\nlength 1e-170 3e-170\nmeter 0.5 0.5\nthe 1.0 0\n", 2),  # squared norm underflows to 0
            ("3 2\nlength nan 1.0\nmeter 0.5 0.5\nthe inf 0\n", 2),  # cosine would be nan
            ("2 2\nmeter 0.5 0.5\nthe -inf 0\n", 3),
            ("3 2\nmeter 0.5 0.5\n", 1),  # fewer rows than the header declares
            ("1 2\nmeter 0.5 0.5\nlength 1 0\n", 1),  # more rows: length would be dropped
            ("1 2\n", 1),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(InputError) as info, warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow warning
                WordVectorEmbedding(path)
            assert str(info.value).startswith(f"{path}: line {line}: ")
