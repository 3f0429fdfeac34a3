"""Bootstrapping retrieval of quantitative triplets from a triplet store.

A mention set (unit surface forms) and a predicate set co-grow over a
fixed number of iterations:

1. collect the predicates of triplets whose object contains a mention;
2. drop predicates whose fraction of quantity-bearing objects falls
   below the threshold tau;
3. rebuild the mention set from unit surfaces found in the retained
   predicates' objects.

The mention set is seeded with the surface forms of the
highest-frequency units.  After the final iteration all triplets
reachable through either set are returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

from .embeddings import EmbeddingProvider, TrigramHashEmbedding
from .errors import InputError
from .kb import KnowledgeBase
from .linking import DEFAULT_THRESHOLD
from .quantity_text import extract_quantities
from .util import normalize_surface, on_word_boundary, read_rows


@dataclass(frozen=True)
class Triplet:
    subject: str
    predicate: str
    obj: str


class TripletStore(Protocol):
    def triplets_with_predicate(self, predicate: str) -> list[Triplet]: ...

    def triplets_with_object_containing(self, mention: str) -> list[Triplet]: ...

    def all_predicates(self) -> list[str]: ...


def object_contains(obj: str, mention: str) -> bool:
    """Normalized containment, word-boundary-aware on ASCII edges.

    A mention whose edge character is an ASCII alphanumeric must not be
    glued to another ASCII alphanumeric in the object, otherwise
    one-letter symbols ("t", "m") would match nearly everything.
    """
    haystack, needle = normalize_surface(obj), normalize_surface(mention)
    if not needle:
        return False
    start = 0
    while True:
        i = haystack.find(needle, start)
        if i < 0:
            return False
        if on_word_boundary(haystack, i, i + len(needle)):
            return True
        start = i + 1


class InMemoryTripletStore:
    """Immutable store, indexed once at construction; answers follow
    input (file) order and are new lists.

    Containment queries are memoized on the normalized mention, the only
    form object_contains reads.  A miss tests each distinct raw object
    once, after a plain substring prefilter on its normalized form (the
    first step of object_contains, so nothing is lost).
    """

    def __init__(self, triplets: Sequence[Triplet]):
        self.triplets = tuple(triplets)
        self._by_predicate: dict[str, list[Triplet]] = {}
        rows_of: dict[str, list[int]] = {}
        for row, t in enumerate(self.triplets):
            self._by_predicate.setdefault(t.predicate, []).append(t)
            rows_of.setdefault(t.obj, []).append(row)
        self._objects = [(obj, normalize_surface(obj), rows) for obj, rows in rows_of.items()]
        self._containing: dict[str, tuple[Triplet, ...]] = {}

    def __len__(self) -> int:
        return len(self.triplets)

    def triplets_with_predicate(self, predicate: str) -> list[Triplet]:
        return list(self._by_predicate.get(predicate, ()))

    def triplets_with_object_containing(self, mention: str) -> list[Triplet]:
        needle = normalize_surface(mention)
        hit = self._containing.get(needle)
        if hit is None:
            rows = sorted(
                row
                for obj, normalized, obj_rows in self._objects
                if needle in normalized and object_contains(obj, mention)
                for row in obj_rows
            )
            hit = self._containing[needle] = tuple(self.triplets[row] for row in rows)
        return list(hit)

    def all_predicates(self) -> list[str]:
        return sorted(self._by_predicate)


def _triplet_row(cols: list[str]) -> Triplet:
    if len(cols) != 3:
        raise ValueError(f"expected 3 fields, got {len(cols)}")
    return Triplet(*cols)


def load_triplets(path: str | Path) -> InMemoryTripletStore:
    """TSV: subject TAB predicate TAB object, one triplet per line."""
    return InMemoryTripletStore(read_rows(path, _triplet_row))


@dataclass(frozen=True)
class BootstrapConfig:
    tau: float = 0.8
    iterations: int = 5
    seed_unit_count: int = 10

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise InputError(f"tau must lie in (0, 1], got {self.tau}")
        if self.iterations < 0:
            raise InputError(f"iterations must be >= 0, got {self.iterations}")
        if self.seed_unit_count < 1:
            raise InputError(f"seed_unit_count must be >= 1, got {self.seed_unit_count}")


@dataclass(frozen=True)
class BootstrapResult:
    triplets: tuple[Triplet, ...]
    predicates: frozenset[str]
    mentions: frozenset[str]


def seed_mentions(kb: KnowledgeBase, count: int) -> frozenset[str]:
    """Surface forms of the top-`count` units by frequency."""
    top = sorted(kb.records.values(), key=lambda r: (-r.frequency, r.unit_id))[:count]
    return frozenset(f for r in top for f in r.normalized_forms)


def bootstrap_retrieve(
    store: TripletStore,
    kb: KnowledgeBase,
    config: BootstrapConfig = BootstrapConfig(),
    emb: EmbeddingProvider | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> BootstrapResult:
    emb = emb or TrigramHashEmbedding()
    quantity_cache: dict[str, list] = {}

    def mentions_of(obj: str):
        if obj not in quantity_cache:
            quantity_cache[obj] = extract_quantities(obj, kb, emb, threshold)
        return quantity_cache[obj]

    def is_quantity(obj: str) -> bool:
        return any(m.linked_unit is not None for m in mentions_of(obj))

    def unit_surfaces(obj: str) -> set[str]:
        return {
            normalize_surface(m.unit_surface)
            for m in mentions_of(obj)
            if m.linked_unit is not None
        }

    mentions: frozenset[str] = seed_mentions(kb, config.seed_unit_count)
    predicates: frozenset[str] = frozenset()

    for _ in range(config.iterations):
        # Step 1: predicates reachable from the mention set.
        found: set[str] = set()
        for mention in sorted(mentions):
            found.update(t.predicate for t in store.triplets_with_object_containing(mention))
        # Step 2: keep predicates whose quantity ratio reaches tau.
        survivors: set[str] = set()
        for predicate in sorted(found):
            triplets = store.triplets_with_predicate(predicate)
            if not triplets:
                continue
            ratio = sum(1 for t in triplets if is_quantity(t.obj)) / len(triplets)
            if ratio >= config.tau:
                survivors.add(predicate)
        predicates = frozenset(survivors)
        # Step 3: rebuild the mention set from the survivors' objects.
        rebuilt: set[str] = set()
        for predicate in sorted(predicates):
            for t in store.triplets_with_predicate(predicate):
                rebuilt.update(unit_surfaces(t.obj))
        mentions = frozenset(rebuilt)

    retrieved = []
    for mention in sorted(mentions):
        retrieved.extend(store.triplets_with_object_containing(mention))
    for predicate in sorted(predicates):
        retrieved.extend(store.triplets_with_predicate(predicate))
    seen: set[Triplet] = set()
    unique = [t for t in retrieved if not (t in seen or seen.add(t))]
    return BootstrapResult(tuple(unique), predicates, mentions)


#: Deterministic sentence templates replacing generative rendering.
SENTENCE_TEMPLATES = (
    "The {predicate} of {subject} is {obj}.",
    "{subject}'s {predicate} is {obj}.",
    "{subject} has a {predicate} of {obj}.",
    "According to the records, the {predicate} of {subject} is {obj}.",
    "With a {predicate} of {obj}, {subject} is a typical example.",
)


def render_triplet_sentence(triplet: Triplet, rng: random.Random | None = None) -> str:
    """Fill one template; the object appears verbatim in the output."""
    rng = rng or random.Random(0)
    template = SENTENCE_TEMPLATES[rng.randrange(len(SENTENCE_TEMPLATES))]
    return template.format(subject=triplet.subject, predicate=triplet.predicate, obj=triplet.obj)
