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

Both similarity kernels are exact.  Edit distances come from one
kernel, the bit-parallel algorithm of Myers (J. ACM 1999) in Hyyrö's
form for Levenshtein distance (2003), over Python ints of any width,
with several forms packed side by side in one int (Hyyrö, Fredriksson
and Navarro, JEA 2005).  :func:`candidate_generation` is the one place
candidates are made: it filters the KB forms with the q-gram count
bound (the padded bigrams a query shares with every form are counted in
C, a Counter over per-bigram posting tuples), runs one packed pass of
the surviving forms over the query, and assembles the candidates from
the owners of the admitted forms alone.

Every cosine of a context score is one dot product of the embedder's
own (``v.dot(k)``) over the product of the two norms, so a score carries
the same bits as the plain per-pair computation.  Every vector's squared
norm must be finite, and positive if its support is not empty (see
:class:`dimkit.embeddings.EmbeddingProvider`).
"""

from __future__ import annotations

import functools
import math
import sys
import weakref
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import InputError, LinkingConfigError
from .kb import KnowledgeBase, UnitRecord, char_masks, padded_bigrams
from .util import normalize_surface

if TYPE_CHECKING:
    from .embeddings import EmbeddingProvider

DEFAULT_THRESHOLD = 0.5


class LinkCandidate(NamedTuple):
    """A scored hypothesis linking a mention to one unit."""

    unit_id: str
    prior: float
    p_mention: float
    p_context: float = 1.0

    @property
    def score(self) -> float:
        return self.prior * self.p_mention * self.p_context


def rank_key(c: LinkCandidate) -> tuple:
    """Sort key of :func:`link`: descending score, then higher prior,
    then unit_id."""
    return (-c.score, -c.prior, c.unit_id)


def _packed_pass(
    forms: Iterable[str], patterns: Mapping[str, dict[str, int]], text: str
) -> dict[str, int]:
    """Each form's edit distance to the text, in one bit-parallel pass.

    Myers' algorithm (J. ACM 1999) in Hyyrö's Levenshtein form, with the
    forms packed side by side in one Python int (Hyyrö, Fredriksson and
    Navarro, JEA 2005): ``patterns[form]`` is the form's
    :func:`dimkit.kb.char_masks`, shifted to the form's offset.  Each
    form is followed by one zero spare bit, so no carry of the addition
    crosses into the next form, and after each shift every form's lowest
    bit takes the +1 of DP row 0.  Bit i of the vertical delta vectors
    pv/mv holds the +1/-1 step between rows i and i + 1 of the DP column
    of the text read so far; so after the last character, the distance
    of form F to the text is ``len(text) + popcount(pv & F) -
    popcount(mv & F)``, F being the form's bits.  Python ints grow as
    needed, so neither the forms nor their number has a limit.
    """
    peq: dict[str, int] = {}
    bits: dict[str, int] = {}
    lows = offset = 0
    for form in forms:
        for ch, b in patterns[form].items():
            peq[ch] = peq.get(ch, 0) | b << offset
        bits[form] = ((1 << len(form)) - 1) << offset
        lows |= 1 << offset
        offset += len(form) + 1
    mask = sum(bits.values())  # every form bit, no spare bit
    pv, mv = mask, 0
    for ch in text:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) << 1) | lows
        pv = (((pv & xh) << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    n = len(text)
    return {form: n + (pv & f).bit_count() - (mv & f).bit_count() for form, f in bits.items()}


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert/delete/substitute): the
    one-form case of :func:`_packed_pass`."""
    return _packed_pass((a,), {a: char_masks(a)}, b)[a]


def _similarity(distance: int, n: int, m: int) -> float:
    """Normalized similarity of strings of lengths n and m at this edit
    distance; two empty strings are identical."""
    longest = max(n, m)
    return 1.0 if longest == 0 else 1.0 - distance / longest


def mention_similarity(surface: str, record: UnitRecord) -> float:
    """Best similarity over all of the record's surface forms."""
    query = normalize_surface(surface)
    return max(
        (_similarity(levenshtein(query, nf), len(query), len(nf)) for nf in record.normalized_forms),
        default=0.0,
    )


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


@functools.cache
def _length_bounds(lengths: tuple[int, ...], n: int, threshold: float) -> tuple[tuple, tuple]:
    """The q-gram bounds of a query of length n against forms of the
    given lengths: the shared bigrams needed at each length m, as
    ``needs[m]`` (``sys.maxsize`` where the length bound fails or no form
    has that length), and the lengths whose count bound is vacuous."""
    needs = [sys.maxsize] * (max(lengths, default=0) + 1)
    vacuous: list[int] = []
    for m in lengths:
        longest = max(n, m)
        k = _max_distance(longest, threshold)
        if abs(n - m) > k:
            continue
        need = longest + 1 - 2 * k
        if need > 0:
            needs[m] = need
        else:
            vacuous.append(m)
    return tuple(needs), tuple(vacuous)


def _surviving_forms(kb: KnowledgeBase, query: str, threshold: float) -> set[str]:
    """KB forms whose similarity to the normalized query may be admitted.

    q-gram lemma (Ukkonen 1992): a form within k edits of the query
    differs from it in length by at most k and shares at least
    max(n, m) + 1 - 2k padded bigrams with it.  Forms failing either
    bound cannot be admitted, so dropping them loses no candidate.  The
    shared bigrams of every form are counted in one C loop, a Counter
    over the posting tuples of the query's bigrams: the tuple for a
    bigram the query holds c times lists each form min(c, its count)
    times.
    """
    index = kb.bigram_index
    needs, vacuous = _length_bounds(tuple(index.forms), len(query), threshold)
    postings = index.postings
    shared = Counter(
        chain.from_iterable(
            ps[min(count, len(ps)) - 1]
            for gram, count in Counter(padded_bigrams(query)).items()
            if (ps := postings.get(gram))
        )
    )
    survivors = {form for form, s in shared.items() if s >= needs[len(form)]}
    for m in vacuous:
        survivors.update(index.forms[m])
    return survivors


def check_threshold(threshold: float) -> None:
    """Reject a similarity threshold outside (0, 1]."""
    if not (0.0 < threshold <= 1.0):
        raise InputError(f"threshold must lie in (0, 1], got {threshold}")


def check_surface(surface: str) -> None:
    """Reject an empty mention surface."""
    if not surface:
        raise InputError("mention surface must be non-empty")


def candidate_generation(
    kb: KnowledgeBase, surface: str, threshold: float = DEFAULT_THRESHOLD
) -> list[LinkCandidate]:
    """All units whose best-form similarity exceeds the threshold, in
    ``kb.records`` order.

    Exact-form matches (similarity 1.0) are always admitted, so
    threshold 1.0 keeps exactly the exact matches.  p_context is left at
    its neutral 1.0.

    A lossless padded-bigram filter over ``kb.bigram_index`` picks the
    forms which may pass, and one :func:`_packed_pass` over the
    normalized surface gives their exact distances.  The candidates are
    the owners of the admitted forms, each with the best similarity among
    them, in unit_id order, which is ``kb.records`` order: a dropped form is
    never admitted, and a unit's best form is admitted whenever any of
    its forms is, so the result and every p_mention equal
    :func:`mention_similarity` over all records.

    Results are memoized per knowledge base, normalized surface and
    threshold in ``kb.match_cache``; the KB is immutable after load, so
    cached entries never go stale.
    """
    check_threshold(threshold)
    query = normalize_surface(surface)
    key = (query, threshold)
    cached = kb.match_cache.get(key)
    if cached is None:
        forms = _surviving_forms(kb, query, threshold)
        distances = _packed_pass(forms, kb.bigram_index.masks, query) if forms else {}
        n = len(query)
        best: dict[str, float] = {}
        for form, distance in distances.items():
            sim = _similarity(distance, n, len(form))
            if _admitted(sim, threshold):
                for unit_id in kb.surface_index[form]:
                    if sim > best.get(unit_id, 0.0):  # admitted sims are > 0
                        best[unit_id] = sim
        cached = kb.match_cache[key] = tuple(
            LinkCandidate(unit_id=u, prior=kb.records[u].frequency, p_mention=best[u])
            for u in sorted(best)
        )
    return list(cached)


# Per embedder, while it lives: the keyword table of each unit, keyed by
# (unit_id, keywords) so that two knowledge bases sharing a unit_id stay
# apart (see _keyword_table), and the row of each token (None without a
# vector).  A row is (vector, norm, support), see _row.
_CONTEXT_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _row(token: str, v) -> tuple:
    """A token's vector with its norm and its support.  The norm is the
    root of the vector's dot with itself, as in
    :func:`dimkit.embeddings.cosine`; a squared norm that is not finite,
    or is 0 while the support is not empty, raises LinkingConfigError."""
    square, support = v.dot(v), v.support()
    if not (0.0 < square < math.inf or square == 0.0 and not support):
        raise LinkingConfigError(f"the nonzero vector of {token!r} has squared norm {square!r}")
    return v, math.sqrt(square), support


def _keyword_table(rows: list[tuple]) -> tuple:
    """A unit's keyword rows; their postings, from each index to the
    positions of the rows whose support holds it; and an empty memo of
    each token's max cosine against the rows."""
    postings: dict[int, list[int]] = {}
    for j, (_, _, support) in enumerate(rows):
        for i in support:
            postings.setdefault(i, []).append(j)
    return rows, {i: tuple(js) for i, js in postings.items()}, {}


def _max_cosine(token_row: tuple, table: tuple) -> float:
    """Max over a unit's keyword rows of the clamped cosine with a token.

    Each cosine is ``v.dot(k) / (na * nb)``, the embedder's own dot
    product, with the token norm na first, as in
    :func:`dimkit.embeddings.cosine`.  Only the rows whose support meets
    the token's are visited (so both norms are positive, see _row): any
    other clamped cosine is +-0.0, which adds nothing to a score.
    """
    v, na, support = token_row
    rows, postings, _ = table
    hits = {j for i in support for j in postings.get(i, ())}
    if not hits:
        return 0.0
    return max(min(max(v.dot(k) / (na * nb), 0.0), 1.0) for k, nb, _ in map(rows.__getitem__, hits))


def context_score(context: str, record: UnitRecord, emb: EmbeddingProvider) -> float:
    """Mean over context tokens of the max cosine against keyword tokens.

    Cosines are clamped to [0, 1] before aggregation; tokens or keywords
    without vectors contribute 0.  Empty context is neutral (1.0).

    Per embedder, the keyword rows of each unit and the row of each token
    are built once, and so is each token's max against a unit
    (:func:`_max_cosine`).  A score is the sum of those maxima in token
    order over the number of tokens: the same bits as the plain per-pair
    computation.
    """
    if not record.keywords:
        raise LinkingConfigError(f"unit {record.unit_id} has no keywords; cannot score context")
    tables = _CONTEXT_TABLES.get(emb)
    if tables is None:
        tables = _CONTEXT_TABLES[emb] = ({}, {})
    keyword_tables, token_rows = tables
    tokens = emb.tokenize(context)
    if not tokens:
        return 1.0

    def token_row(token: str) -> tuple | None:
        if token not in token_rows:
            v = emb.vector(token)
            token_rows[token] = None if v is None else _row(token, v)
        return token_rows[token]

    unit = (record.unit_id, record.keywords)
    table = keyword_tables.get(unit)
    if table is None:
        rows = (token_row(t) for kw in record.keywords for t in emb.tokenize(kw))
        table = keyword_tables[unit] = _keyword_table([row for row in rows if row is not None])
    maxima = table[2]
    total = 0.0
    for token in tokens:
        if token not in maxima:
            entry = token_row(token)
            maxima[token] = 0.0 if entry is None else _max_cosine(entry, table)
        # not sum(): from Python 3.12 it adds floats with compensation, other bits
        total += maxima[token]
    return total / len(tokens)


def link(
    kb: KnowledgeBase,
    surface: str,
    context: str,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[LinkCandidate]:
    """Full three-factor linking of a unit mention, sorted by descending
    confidence.

    ``context`` is the text the mention stands in: every caller passes
    the whole sentence, mention included; "" scores every candidate's
    context as neutral.  An empty surface raises InputError.  Ties break
    by higher prior then lexicographic unit_id so output order is
    deterministic.  An empty list signals an unlinkable mention.
    """
    check_surface(surface)
    candidates = candidate_generation(kb, surface, threshold)
    scored = [
        c._replace(p_context=context_score(context, kb.records[c.unit_id], emb))
        for c in candidates
    ]
    scored.sort(key=rank_key)
    return scored
