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

Both similarity kernels are exact.  Edit distances come from the
bit-parallel algorithm of Myers (J. ACM 1999) in Hyyrö's form for
Levenshtein distance (2003), over Python ints of any width.  Context
scores read per-embedder tables of each unit's keyword vectors and
norms, and are memoized per (context, unit); every cosine is still one
``np.dot`` over the product of the two norms, so a score carries the
same bits as the plain per-pair computation.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, replace
from typing import Iterable

from .embeddings import EmbeddingProvider
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
    """Character-level edit distance (insert/delete/substitute).

    Myers' bit-vector algorithm in Hyyrö's Levenshtein form: bit i of
    the vertical delta vectors pv/mv holds the +1/-1 step between rows
    i and i + 1 of the current DP column, so one pass over b with a few
    integer operations per character replaces the row-by-row table.
    Python ints grow as needed, so a has no length limit.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, dist = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _best_similarity(query: str, forms: Iterable[str]) -> float:
    """Best similarity of the normalized query over normalized forms."""
    best = 0.0
    for nf in forms:
        longest = max(len(query), len(nf))
        if longest == 0:
            return 1.0
        # the edit distance is at least the length difference, so this
        # upper-bounds the similarity; skip forms that cannot improve
        bound = 1.0 - abs(len(query) - len(nf)) / longest
        if bound <= best:
            continue
        sim = 1.0 - levenshtein(query, nf) / longest
        if sim > best:
            best = sim
    return best


def mention_similarity(surface: str, record: UnitRecord) -> float:
    """Best similarity over all of the record's surface forms."""
    return _best_similarity(normalize_surface(surface), record.normalized_forms)


def _admitted(sim: float, threshold: float) -> bool:
    return sim > threshold or sim == 1.0


@functools.cache
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
    forms which may pass.  Each unit owning one is scored on those forms
    only, with exact Levenshtein distances: a dropped form is never
    admitted, so it cannot beat an admitted one, and the result and
    every p_mention equal :func:`mention_similarity` over all records.

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
        survivors = _surviving_forms(kb, query, threshold)
        owners = {unit_id for form in survivors for unit_id in kb.surface_index[form]}
        cached = []
        for unit_id, record in kb.records.items():
            if unit_id in owners:
                sim = _best_similarity(query, (f for f in record.normalized_forms if f in survivors))
                if _admitted(sim, threshold):
                    cached.append(LinkCandidate(unit_id=unit_id, prior=record.frequency, p_mention=sim))
        kb.match_cache[key] = cached
    return list(cached)


# Per embedder, while it lives: the keyword vectors of each unit with
# their norms, keyed by (unit_id, keywords) so that two knowledge bases
# sharing a unit_id stay apart; the vector and norm of each context token
# (None without a vector); and the score per (context, unit_id, keywords).
_CONTEXT_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def context_score(context: str, record: UnitRecord, emb: EmbeddingProvider) -> float:
    """Mean over context tokens of the max cosine against keyword tokens.

    Cosines are clamped to [0, 1] before aggregation; tokens or keywords
    without vectors contribute 0.  Empty context is neutral (1.0).

    The keyword vectors of each unit and the vector of each context
    token are looked up and their norms taken once per embedder, and
    scores are memoized per (context, unit).  Each cosine is
    ``np.dot(v, k) / (na * nb)`` with the token norm na first, as in
    :func:`dimkit.embeddings.cosine`, and 0 when either norm is 0; a
    matrix product would sum in another order and change the last bits.
    """
    if not record.keywords:
        raise LinkingConfigError(f"unit {record.unit_id} has no keywords; cannot score context")
    tables = _CONTEXT_TABLES.get(emb)
    if tables is None:
        tables = _CONTEXT_TABLES[emb] = ({}, {}, {})
    keyword_rows, token_rows, scores = tables
    unit = (record.unit_id, record.keywords)
    key = (context, *unit)
    score = scores.get(key)
    if score is not None:
        return score
    tokens = emb.tokenize(context)
    if not tokens:
        return 1.0
    import numpy as np

    rows = keyword_rows.get(unit)
    if rows is None:
        vectors = (emb.vector(t) for kw in record.keywords for t in emb.tokenize(kw))
        rows = keyword_rows[unit] = [
            (k, float(np.linalg.norm(k))) for k in vectors if k is not None
        ]
    total = 0.0
    for token in tokens:
        if token not in token_rows:
            v = emb.vector(token)
            token_rows[token] = None if v is None else (v, float(np.linalg.norm(v)))
        entry = token_rows[token]
        if entry is None or not rows:
            continue  # contributes 0
        v, na = entry
        total += max(
            min(max(0.0 if na == 0.0 or nb == 0.0 else float(np.dot(v, k) / (na * nb)), 0.0), 1.0)
            for k, nb in rows
        )
    score = scores[key] = total / len(tokens)
    return score


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
