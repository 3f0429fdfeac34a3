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

Objects are judged by their unit surfaces alone (see
:func:`bootstrap_retrieve`), so bootstrapping never embeds.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import InputError
from .kb import KnowledgeBase
from .linking import DEFAULT_THRESHOLD, check_threshold
from .quantity_text import value_units
from .util import normalize_surface, on_word_boundary, read_rows


class Triplet(NamedTuple):
    """One (subject, predicate, object) row; a tuple, so it compares equal
    to the plain 3-tuple with the same fields."""

    subject: str
    predicate: str
    obj: str


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
    return tuple.__new__(Triplet, cols)  # Triplet(*cols), built in C


def load_triplets(path: str | Path) -> InMemoryTripletStore:
    """TSV: subject TAB predicate TAB object, one triplet per line."""
    return InMemoryTripletStore(read_rows(path, _triplet_row))


class BootstrapResult(NamedTuple):
    triplets: tuple[Triplet, ...]
    predicates: frozenset[str]
    mentions: frozenset[str]


def seed_mentions(kb: KnowledgeBase, count: int) -> frozenset[str]:
    """Surface forms of the top-`count` units by frequency."""
    top = sorted(kb.records.values(), key=lambda r: (-r.frequency, r.unit_id))[:count]
    return frozenset(f for r in top for f in r.normalized_forms)


def bootstrap_retrieve(
    store: InMemoryTripletStore,
    kb: KnowledgeBase,
    tau: float = 0.8,
    iterations: int = 5,
    seed_unit_count: int = 10,
    threshold: float = DEFAULT_THRESHOLD,
) -> BootstrapResult:
    """Run the bootstrap loop over `store`: `iterations` rounds from the
    forms of the `seed_unit_count` most frequent units, keeping the
    predicates whose quantity ratio reaches `tau`.

    An object is a quantity iff :func:`value_units` finds a unit surface
    in it, and its mentions are those surfaces, normalized.  These are
    exactly the mentions :func:`extract_quantities` links: a surface has
    candidates, and context scoring reorders them but never drops one
    (every KB unit has keywords).  So the result does not depend on an
    embedder, and none is used.  Surfaces are memoized per distinct
    object, and each predicate's quantity ratio and surfaces per run.  A
    threshold or tau outside (0, 1], negative iterations or a
    seed_unit_count below 1 raises InputError, even when no object is
    read.
    """
    check_threshold(threshold)
    if not (0.0 < tau <= 1.0):
        raise InputError(f"tau must lie in (0, 1], got {tau}")
    if iterations < 0:
        raise InputError(f"iterations must be >= 0, got {iterations}")
    if seed_unit_count < 1:
        raise InputError(f"seed_unit_count must be >= 1, got {seed_unit_count}")

    @functools.cache
    def unit_surfaces(obj: str) -> frozenset[str]:
        units = value_units(obj, kb, threshold)
        return frozenset(normalize_surface(s) for _, _, _, s in units if s is not None)

    @functools.cache
    def predicate_stats(predicate: str) -> tuple[float, frozenset[str]]:
        """(quantity ratio, unit surfaces) of a predicate's objects."""
        triplets = store.triplets_with_predicate(predicate)
        objects = [unit_surfaces(t.obj) for t in triplets]
        ratio = sum(1 for s in objects if s) / len(triplets) if triplets else 0.0
        return ratio, frozenset().union(*objects)

    mentions: frozenset[str] = seed_mentions(kb, seed_unit_count)
    predicates: frozenset[str] = frozenset()

    for _ in range(iterations):
        # Step 1: predicates reachable from the mention set.
        found: set[str] = set()
        for mention in sorted(mentions):
            found.update(t.predicate for t in store.triplets_with_object_containing(mention))
        # Step 2: keep predicates whose quantity ratio reaches tau.
        predicates = frozenset(p for p in found if predicate_stats(p)[0] >= tau)
        # Step 3: rebuild the mention set from the survivors' objects.
        mentions = frozenset().union(*(predicate_stats(p)[1] for p in predicates))

    retrieved = []
    for mention in sorted(mentions):
        retrieved.extend(store.triplets_with_object_containing(mention))
    for predicate in sorted(predicates):
        retrieved.extend(store.triplets_with_predicate(predicate))
    # dict keys keep each triplet's first occurrence, in order
    return BootstrapResult(tuple(dict.fromkeys(retrieved)), predicates, mentions)


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
