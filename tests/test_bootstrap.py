import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimkit.bootstrap import (
    BootstrapConfig,
    InMemoryTripletStore,
    SENTENCE_TEMPLATES,
    Triplet,
    bootstrap_retrieve,
    load_triplets,
    object_contains,
    render_triplet_sentence,
    seed_mentions,
)
from dimkit.quantity_text import extract_quantities
from dimkit.util import normalize_surface


# ---------------------------------------------------------------------------
# Independent oracle: a literal, unoptimized reimplementation of the three
# bootstrap steps plus final retrieval.


def oracle_bootstrap(store, kb, config, emb, threshold):
    cache = {}

    def q_mentions(obj):
        if obj not in cache:
            cache[obj] = extract_quantities(obj, kb, emb, threshold)
        return cache[obj]

    top_units = sorted(kb.records.values(), key=lambda r: (-r.frequency, r.unit_id))
    mentions = set()
    for record in top_units[: config.seed_unit_count]:
        for form in record.surface_forms():
            mentions.add(normalize_surface(form))
    predicates = set()

    for _ in range(config.iterations):
        predicates = set()
        for t in store.triplets:
            if any(object_contains(t.obj, m) for m in mentions):
                predicates.add(t.predicate)
        kept = set()
        for p in predicates:
            group = [t for t in store.triplets if t.predicate == p]
            quantity = [
                t for t in group if any(m.linked_unit for m in q_mentions(t.obj))
            ]
            if group and len(quantity) / len(group) >= config.tau:
                kept.add(p)
        predicates = kept
        mentions = set()
        for p in predicates:
            for t in store.triplets:
                if t.predicate == p:
                    for m in q_mentions(t.obj):
                        if m.linked_unit:
                            mentions.add(normalize_surface(m.unit_surface))

    retrieved = [
        t
        for t in store.triplets
        if t.predicate in predicates or any(object_contains(t.obj, m) for m in mentions)
    ]
    return set(retrieved), predicates, mentions


@pytest.fixture(scope="module")
def store(data_dir):
    return load_triplets(data_dir / "triplets.tsv")


class TestContainment:
    def test_ascii_boundaries(self):
        assert object_contains("2.06 meters", "meters")
        assert not object_contains("2.06 meters", "meter")  # glued trailing s
        assert object_contains("120 km/h", "km")
        assert object_contains("Model T", "t")
        assert not object_contains("Tall story", "t")

    def test_cjk_substring(self):
        assert object_contains("150千克农药", "千克")
        assert not object_contains("150千克农药", "毫克")

    def test_normalization(self):
        assert object_contains("75 KG", "kg")
        assert not object_contains("anything", "")


class TestStore:
    def test_load_and_query(self, store):
        assert len(store) == 200
        heights = store.triplets_with_predicate("height")
        assert len(heights) == 30
        assert all(t.predicate == "height" for t in heights)
        assert "height" in store.all_predicates()
        with_m = store.triplets_with_object_containing("meters")
        assert with_m and all(object_contains(t.obj, "meters") for t in with_m)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_triplets(path)


# Random stores for the index-vs-scan test: few distinct objects, so they
# repeat; mixed case, CJK, degree signs, glued one-letter ASCII symbols and
# runs of whitespace, queried with mentions that are not normalized.
_OBJECT = st.text(alphabet="mMtTkgK 2.5°C千克米/\t\u3000", max_size=10)
_PREDICATES = ("height", "Height", "重量", "t")


@st.composite
def _store_and_mentions(draw):
    pool = draw(st.lists(_OBJECT, min_size=1, max_size=6))
    triplets = draw(
        st.lists(
            st.builds(
                Triplet, st.sampled_from("st"), st.sampled_from(_PREDICATES), st.sampled_from(pool)
            ),
            max_size=30,
        )
    )
    slices = st.tuples(st.sampled_from(pool), st.integers(0, 10), st.integers(0, 10))
    mentions = draw(
        st.lists(
            st.one_of(
                _OBJECT,
                st.sampled_from(["m", "M", " KG ", "t", "°C", "千克", "kK"]),
                slices.map(lambda s: s[0][s[1] : s[2]]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return triplets, mentions


def synthesized_store(size=2000, seed=3):
    """`size` triplets with fresh subjects over 50 distinct objects: ten
    predicates whose share of non-quantity objects rises from 0 to 45%."""
    rng = random.Random(seed)
    surfaces = ["cm", "meters", "kg", "千克", "km", "hours", "minutes", "°C", "km/h", "ml"]
    quantities = [f"{rng.randint(1, 900)} {surfaces[i % len(surfaces)]}" for i in range(40)]
    others = ["red", "unknown", "Model T", "ABC-12", "Paris", "tall", "yes", "蓝色", "n/a", "M"]
    triplets = []
    for i in range(size):
        k = rng.randrange(10)
        pool = others if rng.random() < k * 0.05 else quantities[k * 4 : k * 4 + 12]
        triplets.append(Triplet(f"s{i}", f"p{k}", rng.choice(pool)))
    return InMemoryTripletStore(triplets)


class TestStoreIndex:
    @given(_store_and_mentions())
    @settings(max_examples=200, deadline=None)
    def test_matches_scan(self, case):
        triplets, mentions = case
        store = InMemoryTripletStore(triplets)
        for mention in mentions + mentions:  # the second pass reads the memo
            expected = [t for t in triplets if object_contains(t.obj, mention)]
            assert store.triplets_with_object_containing(mention) == expected
        for predicate in _PREDICATES:
            expected = [t for t in triplets if t.predicate == predicate]
            assert store.triplets_with_predicate(predicate) == expected
        assert store.all_predicates() == sorted({t.predicate for t in triplets})

    def test_returned_lists_are_fresh(self):
        triplets = [Triplet("a", "height", "2 m"), Triplet("b", "height", "3 m")]
        store = InMemoryTripletStore(triplets)
        for query, key in (
            (store.triplets_with_object_containing, "m"),
            (store.triplets_with_predicate, "height"),
        ):
            query(key).clear()
            query(key).append(Triplet("c", "x", "y"))
            assert query(key) == triplets

    def test_bootstrap_matches_oracle_on_synthesized_store(self, kb, emb):
        store = synthesized_store()
        assert len(store) == 2000 and len({t.obj for t in store.triplets}) == 50
        config = BootstrapConfig(tau=0.8, iterations=5, seed_unit_count=10)
        result = bootstrap_retrieve(store, kb, config, emb, 0.5)
        o_triplets, o_predicates, o_mentions = oracle_bootstrap(store, kb, config, emb, 0.5)
        assert set(result.triplets) == o_triplets
        assert set(result.predicates) == o_predicates
        assert set(result.mentions) == o_mentions
        assert 0 < len(result.predicates) < 10


class TestBootstrap:
    def test_seed_mentions_are_top_frequency_surfaces(self, kb):
        mentions = seed_mentions(kb, 3)
        top3 = sorted(kb.records.values(), key=lambda r: (-r.frequency, r.unit_id))[:3]
        expected = {normalize_surface(f) for r in top3 for f in r.surface_forms()}
        assert mentions == expected

    def test_high_ratio_predicate_retained(self, kb, emb):
        # 9 of 10 objects are quantities; tau = 0.8 keeps the predicate
        triplets = [Triplet(f"s{i}", "height", f"{150 + i} cm") for i in range(9)]
        triplets.append(Triplet("s9", "height", "unknown"))
        triplets.append(Triplet("x", "color", "red"))
        store = InMemoryTripletStore(triplets)
        result = bootstrap_retrieve(store, kb, BootstrapConfig(0.8, 1, 5), emb, 0.5)
        assert result.predicates == {"height"}

    def test_strict_tau_drops_on_single_nonquantity(self, kb, emb):
        triplets = [Triplet(f"s{i}", "height", f"{150 + i} cm") for i in range(9)]
        triplets.append(Triplet("s9", "height", "unknown"))
        store = InMemoryTripletStore(triplets)
        result = bootstrap_retrieve(store, kb, BootstrapConfig(1.0, 1, 5), emb, 0.5)
        assert result.predicates == set()

    def test_zero_iterations_is_seed_retrieval(self, kb, emb, store):
        result = bootstrap_retrieve(store, kb, BootstrapConfig(0.8, 0, 10), emb, 0.5)
        assert result.predicates == frozenset()
        assert result.mentions == seed_mentions(kb, 10)
        for t in result.triplets:
            assert any(object_contains(t.obj, m) for m in result.mentions)

    def test_monotone_growth_over_iterations(self, kb, emb, store):
        previous = None
        for iterations in range(6):
            result = bootstrap_retrieve(
                store, kb, BootstrapConfig(0.8, iterations, 10), emb, 0.5
            )
            current = set(result.triplets)
            if previous is not None:
                assert previous <= current
            previous = current

    def test_matches_naive_oracle_on_shipped_store(self, kb, emb, store):
        config = BootstrapConfig(tau=0.8, iterations=5, seed_unit_count=10)
        result = bootstrap_retrieve(store, kb, config, emb, 0.5)
        o_triplets, o_predicates, o_mentions = oracle_bootstrap(store, kb, config, emb, 0.5)
        assert set(result.triplets) == o_triplets
        assert set(result.predicates) == o_predicates
        assert set(result.mentions) == o_mentions

    def test_expected_shipped_dynamics(self, kb, emb, store):
        result = bootstrap_retrieve(store, kb, BootstrapConfig(0.8, 5, 10), emb, 0.5)
        # quantity-rich predicates survive; sparse/noisy ones are filtered
        assert {"height", "weight", "duration", "distance"} <= result.predicates
        assert "capacity" not in result.predicates  # 7/10 < tau
        assert "product_code" not in result.predicates
        assert "spouse" not in result.predicates

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(tau=0.0)
        with pytest.raises(ValueError):
            BootstrapConfig(iterations=-1)
        with pytest.raises(ValueError):
            BootstrapConfig(seed_unit_count=0)


class TestRenderTriplet:
    def test_object_verbatim(self):
        t = Triplet("LeBron James", "height", "2.06 meters")
        for seed in range(10):
            sentence = render_triplet_sentence(t, rng=random.Random(seed))
            assert "2.06 meters" in sentence
            assert "LeBron James" in sentence

    def test_seed_deterministic(self):
        t = Triplet("s", "p", "5 kg")
        a = render_triplet_sentence(t, rng=random.Random(4))
        b = render_triplet_sentence(t, rng=random.Random(4))
        assert a == b

    def test_template_inventory(self):
        assert len(SENTENCE_TEMPLATES) >= 5

    def test_rendered_sentence_reextracts(self, kb, emb):
        t = Triplet("LeBron James", "height", "2.06 meters")
        sentence = render_triplet_sentence(t, rng=random.Random(0))
        mentions = extract_quantities(sentence, kb, emb, 0.5)
        assert any(m.value == 2.06 and m.linked_unit == "M" for m in mentions)
