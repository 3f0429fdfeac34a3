"""Unit linking: map a unit mention in context to ranked KB units.

A candidate's confidence is the product of three factors, assuming
mention and context are conditionally independent:

* prior: the unit's frequency in the knowledge base,
* p_mention: normalized Levenshtein similarity between the mention and
  the unit's best surface form,
* p_context: mean over context tokens of the max cosine similarity
  against the unit's keyword tokens.

The top-ranked candidate is the argmax of the product; the full list is
returned sorted by descending score with deterministic tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .embeddings import EmbeddingProvider, cosine
from .errors import InputError, LinkingConfigError
from .kb import KnowledgeBase, UnitRecord, padded_bigrams
from .util import normalize_surface

DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class Mention:
    """A unit mention and its surrounding text (mention excluded)."""

    surface: str
    context: str = ""

    def __post_init__(self):
        if not self.surface:
            raise InputError("mention surface must be non-empty")


@dataclass(frozen=True)
class LinkCandidate:
    """A scored hypothesis linking a mention to one unit."""

    unit_id: str
    prior: float
    p_mention: float
    p_context: float = 1.0

    @property
    def score(self) -> float:
        return self.prior * self.p_mention * self.p_context


def levenshtein(a: str, b: str) -> int:
    """Plain character-level edit distance (insert/delete/substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def mention_similarity(surface: str, record: UnitRecord) -> float:
    """Best similarity over all of the record's surface forms."""
    ns = normalize_surface(surface)
    best = 0.0
    for nf in record.normalized_forms:
        longest = max(len(ns), len(nf))
        if longest == 0:
            return 1.0
        # the edit distance is at least the length difference, so this
        # upper-bounds the similarity; skip forms that cannot improve
        bound = 1.0 - abs(len(ns) - len(nf)) / longest
        if bound <= best:
            continue
        sim = 1.0 - levenshtein(ns, nf) / longest
        if sim > best:
            best = sim
    return best


def _admitted(sim: float, threshold: float) -> bool:
    return sim > threshold or sim == 1.0


def _max_distance(longest: int, threshold: float) -> int:
    """Largest edit distance whose similarity at this length is admitted.

    The algebraic estimate only seeds the search: the answer is settled
    by the similarity expression itself, so float rounding cannot make
    the filter disagree with the admission test.  Admission is monotone
    in the distance, so the admitted distances are 0..k.
    """
    k = int(longest * (1.0 - threshold))
    while k < longest and _admitted(1.0 - (k + 1) / longest, threshold):
        k += 1
    while k > 0 and not _admitted(1.0 - k / longest, threshold):
        k -= 1
    return k


def _surviving_forms(kb: KnowledgeBase, query: str, threshold: float) -> set[str]:
    """KB forms whose similarity to the normalized query may be admitted.

    q-gram lemma (Ukkonen 1992): a form within k edits of the query
    differs from it in length by at most k and shares at least
    max(n, m) + 1 - 2k padded bigrams with it.  Forms failing either
    bound cannot be admitted, so dropping them loses no candidate.
    """
    index = kb.bigram_index
    n = len(query)
    grams = padded_bigrams(query).items()
    survivors: set[str] = set()
    for m, forms in index.forms.items():
        longest = max(n, m)
        k = _max_distance(longest, threshold)
        if abs(n - m) > k:
            continue
        need = longest + 1 - 2 * k
        if need <= 0:  # the count bound is vacuous
            survivors.update(forms)
            continue
        postings = index.postings[m]
        shared: dict[str, int] = {}
        for gram, count in grams:
            for form, c in postings.get(gram, ()):
                shared[form] = shared.get(form, 0) + min(count, c)
        survivors.update(form for form, s in shared.items() if s >= need)
    return survivors


def candidate_generation(
    kb: KnowledgeBase, surface: str, threshold: float = DEFAULT_THRESHOLD
) -> list[LinkCandidate]:
    """All units whose best-form similarity exceeds the threshold, in
    ``kb.records`` order.

    Exact-form matches (similarity 1.0) are always admitted, so
    threshold 1.0 keeps exactly the exact matches.  p_context is left at
    its neutral 1.0.

    A lossless padded-bigram filter over ``kb.bigram_index`` picks the
    units that own a form which may pass; only those are scored, by
    :func:`mention_similarity` with exact Levenshtein distances, so the
    result and every p_mention equal a scan of all records.

    Results are memoized per knowledge base, normalized surface and
    threshold; the KB is immutable after load, so cached entries never
    go stale.
    """
    if not (0.0 < threshold <= 1.0):
        raise InputError(f"threshold must lie in (0, 1], got {threshold}")
    query = normalize_surface(surface)
    key = (query, threshold)
    cached = kb.match_cache.get(key)
    if cached is None:
        owners = {
            unit_id
            for form in _surviving_forms(kb, query, threshold)
            for unit_id in kb.surface_index[form]
        }
        cached = []
        for unit_id, record in kb.records.items():
            if unit_id in owners:
                sim = mention_similarity(surface, record)
                if _admitted(sim, threshold):
                    cached.append(LinkCandidate(unit_id=unit_id, prior=record.frequency, p_mention=sim))
        kb.match_cache[key] = cached
    return list(cached)


def context_score(context: str, record: UnitRecord, emb: EmbeddingProvider) -> float:
    """Mean over context tokens of the max cosine against keyword tokens.

    Cosines are clamped to [0, 1] before aggregation; tokens or keywords
    without vectors contribute 0.  Empty context is neutral (1.0).
    """
    if not record.keywords:
        raise LinkingConfigError(f"unit {record.unit_id} has no keywords; cannot score context")
    tokens = emb.tokenize(context)
    if not tokens:
        return 1.0
    keyword_tokens: list[str] = []
    for kw in record.keywords:
        keyword_tokens.extend(emb.tokenize(kw))
    keyword_vectors = [v for v in (emb.vector(t) for t in keyword_tokens) if v is not None]

    total = 0.0
    for token in tokens:
        v = emb.vector(token)
        if v is None or not keyword_vectors:
            continue  # contributes 0
        best = max(min(max(cosine(v, kv), 0.0), 1.0) for kv in keyword_vectors)
        total += best
    return total / len(tokens)


def link(
    kb: KnowledgeBase,
    mention: Mention,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[LinkCandidate]:
    """Full three-factor linking, sorted by descending confidence.

    Ties break by higher prior then lexicographic unit_id so output
    order is deterministic.  An empty list signals an unlinkable
    mention.
    """
    candidates = candidate_generation(kb, mention.surface, threshold)
    scored = [
        replace(c, p_context=context_score(mention.context, kb.records[c.unit_id], emb))
        for c in candidates
    ]
    scored.sort(key=lambda c: (-c.score, -c.prior, c.unit_id))
    return scored
