"""Quantity detection in free text and the semi-automated corpus
annotation pipeline.

All spans are UTF-8 byte offsets into the sentence (and always fall on
character boundaries).  The pipeline has three stages:

1. rule annotation: regex value extraction plus unit linking on the
   text window following each value;
2. masked-prediction filtering: each quantity span is replaced by
   ``[MASK]`` and an oracle predicts the missing token; the mention is
   kept iff the prediction is numeric or itself links to a unit;
3. manual review: every filter decision is written to a tab-separated
   review file whose edited verdicts can be re-applied.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Protocol, Sequence

from .kb import KnowledgeBase
from .linking import DEFAULT_THRESHOLD, candidate_generation, check_threshold, link
from .util import (
    byte_replace,
    byte_slice,
    char_to_byte_offsets,
    int_field,
    normalize_surface,
    number_field,
    read_rows,
    span_field,
    text_field,
)

if TYPE_CHECKING:
    from .embeddings import EmbeddingProvider

MASK_TOKEN = "[MASK]"

#: Unit mentions end within this many characters / tokens after a value.
#: Covers compound units like "dyn/cm" and "gill/h" without runaway
#: matches.
UNIT_WINDOW_CHARS = 12
UNIT_WINDOW_TOKENS = 4

# Optional sign (only when not glued to a word character), ASCII digits
# with optional thousand separators, optional fraction, optional
# scientific exponent, optional trailing percent.
NUMBER_RE = re.compile(
    r"""
    (?:(?<![0-9A-Za-z.,])[+-])?
    (?:\d{1,3}(?:,\d{3})+|\d+)
    (?:\.\d+)?
    (?:[eE][+-]?\d+)?
    %?
    """,
    re.VERBOSE,
)

# Characters a unit surface may contain (beyond letters): solidus for
# ratio units, degree and middle-dot marks, superscripts, percent.
_UNIT_EXTRA = set("/·°^²³μµ% ")


def _span_in(raw: bytes, value, low: int) -> tuple[int, int]:
    """A decoded span field with low <= start <= end <= len(raw), both
    ends on UTF-8 character boundaries of raw; else ValueError."""
    start, end = span = span_field(value)
    if not low <= start <= end <= len(raw):
        raise ValueError(f"span {list(span)} must satisfy {low} <= start <= end <= {len(raw)}")
    for i in span:
        if i < len(raw) and raw[i] & 0xC0 == 0x80:  # a UTF-8 continuation byte
            raise ValueError(f"byte offset {i} falls inside a character")
    return span


class QuantityMention(NamedTuple):
    """A located value (+ optional unit) span in one sentence."""

    value_span: tuple[int, int]
    unit_span: tuple[int, int] | None
    value: float
    unit_surface: str = ""
    linked_unit: str | None = None
    link_score: float = 0.0

    @property
    def quantity_span(self) -> tuple[int, int]:
        """Full span from value start to unit end (value end when bare)."""
        return (self.value_span[0], self.unit_span[1] if self.unit_span else self.value_span[1])

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict, raw: bytes) -> "QuantityMention":
        """A mention of the sentence whose UTF-8 bytes are raw: its spans
        must lie in raw on character boundaries, the unit span no
        earlier than the value span's end."""
        value_span = _span_in(raw, d["value_span"], 0)
        return cls(
            value_span=value_span,
            unit_span=_span_in(raw, d["unit_span"], value_span[1]) if d.get("unit_span") else None,
            value=number_field(d["value"]),
            unit_surface=text_field(d.get("unit_surface", "")),
            linked_unit=text_field(d.get("linked_unit"), nullable=True),
            link_score=number_field(d.get("link_score", 0.0)),
        )


class AnnotatedSentence(NamedTuple):
    text: str
    mentions: tuple[QuantityMention, ...]
    provenance: str = "rule"  # rule | rule+filter | reviewed
    line_no: int = 0

    def to_dict(self) -> dict:
        return {
            "line_no": self.line_no,
            "text": self.text,
            "provenance": self.provenance,
            "mentions": [m.to_dict() for m in self.mentions],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnnotatedSentence":
        text = text_field(d["text"])
        raw = text.encode("utf-8")
        return cls(
            text=text,
            mentions=tuple(QuantityMention.from_dict(m, raw) for m in d["mentions"]),
            provenance=text_field(d.get("provenance", "rule")),
            line_no=int_field(d.get("line_no", 0)),
        )


class ReviewRow(NamedTuple):
    """One filter decision, written for manual inspection.

    Verdicts emitted by the pipeline: ``kept:numeric``, ``kept:unit``,
    ``removed``, ``error:oracle``.  Humans may rewrite a verdict to
    ``accept`` or ``reject`` before re-applying; no other verdict loads.
    """

    line_no: int
    span: tuple[int, int]
    surface: str
    verdict: str


VERDICTS = ("kept:numeric", "kept:unit", "removed", "error:oracle", "accept", "reject")


class MaskedFillOracle(Protocol):
    def predict(self, text_with_single_mask_token: str) -> str: ...


class ConstantOracle:
    """Always predicts one fixed token; the shipped stub for offline runs."""

    def __init__(self, prediction: str = "5"):
        self.prediction = prediction

    def predict(self, text_with_single_mask_token: str) -> str:
        return self.prediction


class TableOracle:
    """Lookup-table oracle for tests; unknown inputs fall back to a default."""

    def __init__(self, table: dict[str, str], default: str = "5"):
        self.table = dict(table)
        self.default = default

    def predict(self, text_with_single_mask_token: str) -> str:
        return self.table.get(text_with_single_mask_token, self.default)


class CommandOracle:
    """Adapter for an external predictor: the masked sentence is written
    to the command's stdin, the prediction read from its stdout."""

    timeout = 30.0  # seconds per prediction

    def __init__(self, argv: Sequence[str]):
        self.argv = list(argv)

    def predict(self, text_with_single_mask_token: str) -> str:
        import subprocess

        proc = subprocess.run(
            self.argv,
            input=text_with_single_mask_token.encode("utf-8"),
            stdout=subprocess.PIPE,
            timeout=self.timeout,
            check=True,
        )
        return proc.stdout.decode("utf-8").strip()


def _parse_literal(raw: str) -> float:
    scale = 1.0
    if raw.endswith("%"):
        raw, scale = raw[:-1], 0.01
    return float(raw.replace(",", "")) * scale


def extract_values(text: str) -> list[tuple[tuple[int, int], float]]:
    """Maximal non-overlapping numeric literals, left to right.

    Returns (byte span, parsed value) pairs in ascending offset order;
    literals that overflow to non-finite floats are skipped.
    """
    to_byte = char_to_byte_offsets(text)
    out = []
    for m in NUMBER_RE.finditer(text):
        value = _parse_literal(m.group(0))
        if not math.isfinite(value):
            continue
        out.append(((to_byte[m.start()], to_byte[m.end()]), value))
    return out


def is_numeric_literal(text: str) -> bool:
    """True when the whole (stripped) string is one numeric literal."""
    stripped = text.strip()
    m = NUMBER_RE.fullmatch(stripped)
    return bool(m) and math.isfinite(_parse_literal(stripped))


def _unit_window(text: str, char_start: int) -> tuple[int, str]:
    """Text window following a value where the unit may sit: skips
    leading spaces, stops at the next digit or at punctuation a unit
    cannot contain, bounded in characters and tokens."""
    i = char_start
    while i < len(text) and text[i] == " ":
        i += 1
    chars: list[str] = []
    tokens = 0
    in_word = False
    for ch in text[i:]:
        if len(chars) >= UNIT_WINDOW_CHARS:
            break
        if ch.isdigit() or not (ch.isalpha() or ch in _UNIT_EXTRA):
            break
        if "㐀" <= ch <= "鿿":
            tokens += 1
            in_word = False
        elif ch == " ":
            in_word = False
        else:
            if not in_word:
                tokens += 1
            in_word = True
        if tokens > UNIT_WINDOW_TOKENS:
            break
        chars.append(ch)
    return i, "".join(chars)


def value_units(
    text: str, kb: KnowledgeBase, threshold: float = DEFAULT_THRESHOLD
) -> list[tuple[tuple[int, int], float, tuple[int, int] | None, str | None]]:
    """Each extracted value with the unit surface its window offers.

    Returns (value byte span, value, unit byte span, unit surface) per
    value of :func:`extract_values`; the last two are None when no
    window prefix has a candidate.  The surface is the window prefix,
    anchored at the value's end, whose best candidate has the highest
    mention similarity (longer prefix on ties), so "dyn/cm" beats "dyn"
    and "ml" beats "m".  When some prefix normalizes to a KB surface
    form, the longest such prefix is that surface without any scoring:
    no prefix beats its similarity of 1.0, and ties go to the longer one.
    Only a window without an exact prefix has its prefixes scored, one
    :func:`candidate_generation` call per distinct prefix.  No context is
    read: which unit the surface links to is left to
    :func:`extract_quantities`.  A threshold outside (0, 1] raises
    InputError.
    """
    check_threshold(threshold)
    to_byte = char_to_byte_offsets(text)
    byte_to_char = {b: c for c, b in enumerate(to_byte)}
    out = []
    for value_span, value in extract_values(text):
        win_char_start, window = _unit_window(text, byte_to_char[value_span[1]])
        prefixes = list(dict.fromkeys(window[:end].rstrip() for end in range(1, len(window) + 1)))
        exact = [p for p in prefixes if normalize_surface(p) in kb.surface_index]
        if exact:
            prefix = exact[-1]
        else:
            scored = [
                (max(c.p_mention for c in candidates), len(p), p)
                for p in prefixes
                if (candidates := candidate_generation(kb, p, threshold))
            ]
            if not scored:
                out.append((value_span, value, None, None))
                continue
            prefix = max(scored)[2]
        unit_span = (to_byte[win_char_start], to_byte[win_char_start + len(prefix)])
        out.append((value_span, value, unit_span, prefix))
    return out


def extract_quantities(
    text: str,
    kb: KnowledgeBase,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[QuantityMention]:
    """Rule-stage quantity detection: each extracted value plus the unit
    read off the window that follows it.

    The mention boundary is the unit surface of :func:`value_units`.
    Only that surface is linked, with the full sentence as context: the
    full prior x mention x context product then picks its unit.  Values
    without a unit surface become bare-value mentions.
    """
    mentions = []
    for value_span, value, unit_span, surface in value_units(text, kb, threshold):
        if surface is None:
            mentions.append(QuantityMention(value_span, None, value))
            continue
        top = link(kb, surface, text, emb, threshold)[0]
        mentions.append(
            QuantityMention(
                value_span=value_span,
                unit_span=unit_span,
                value=value,
                unit_surface=surface,
                linked_unit=top.unit_id,
                link_score=top.score,
            )
        )
    return mentions


def rule_annotate(
    corpus: Iterable[str],
    kb: KnowledgeBase,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[AnnotatedSentence]:
    """Pipeline step 1: keep exactly the sentences containing a numeric
    entity, annotated with their rule-stage mentions."""
    out = []
    for line_no, sentence in enumerate(corpus, start=1):
        sentence = sentence.rstrip("\n")
        if not sentence.strip():
            continue
        mentions = extract_quantities(sentence, kb, emb, threshold)
        if mentions:
            out.append(AnnotatedSentence(sentence, tuple(mentions), "rule", line_no))
    return out


def annotate_corpus(
    corpus: Iterable[str],
    kb: KnowledgeBase,
    emb: EmbeddingProvider,
    oracle: MaskedFillOracle,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[AnnotatedSentence], list[ReviewRow]]:
    """Steps 1+2 of the pipeline; step 3 is realized by the returned
    review rows plus :func:`apply_review`.

    A mention survives the filter iff the oracle's prediction for its
    masked sentence is numeric or links into the KB as a unit.  Oracle
    failures are fail-open: the sentence is retained with provenance
    "rule" and flagged for the reviewer.
    """
    annotated: list[AnnotatedSentence] = []
    review: list[ReviewRow] = []
    for sent in rule_annotate(corpus, kb, emb, threshold):
        kept: list[QuantityMention] = []
        failed = False
        for mention in sent.mentions:
            surface = byte_slice(sent.text, *mention.quantity_span)
            masked = byte_replace(sent.text, *mention.quantity_span, MASK_TOKEN)
            try:
                prediction = oracle.predict(masked)
            except Exception:
                failed = True
                kept.append(mention)
                review.append(ReviewRow(sent.line_no, mention.quantity_span, surface, "error:oracle"))
                continue
            if is_numeric_literal(prediction):
                verdict = "kept:numeric"
            elif prediction.strip() and candidate_generation(kb, prediction.strip(), threshold):
                verdict = "kept:unit"
            else:
                verdict = "removed"
            review.append(ReviewRow(sent.line_no, mention.quantity_span, surface, verdict))
            if verdict != "removed":
                kept.append(mention)
        if kept:
            provenance = "rule" if failed else "rule+filter"
            annotated.append(sent._replace(mentions=tuple(kept), provenance=provenance))
    return annotated, review


def apply_review(
    rule_sentences: Sequence[AnnotatedSentence], review: Sequence[ReviewRow]
) -> list[AnnotatedSentence]:
    """Re-ingest an edited review file onto the step-1 annotation.

    ``accept`` (and the kept:* verdicts) keep a mention, ``reject`` and
    ``removed`` drop it; mentions without a row are kept.  Output
    sentences carry provenance "reviewed".
    """
    verdicts = {(r.line_no, r.span): r.verdict for r in review}
    out = []
    for sent in rule_sentences:
        kept = []
        for mention in sent.mentions:
            verdict = verdicts.get((sent.line_no, mention.quantity_span), "accept")
            if verdict in ("removed", "reject"):
                continue
            kept.append(mention)
        if kept:
            out.append(sent._replace(mentions=tuple(kept), provenance="reviewed"))
    return out


# ---------------------------------------------------------------------------
# Serialization


def review_lines(rows: Sequence[ReviewRow]) -> list[str]:
    return [f"{r.line_no}\t{r.span[0]}-{r.span[1]}\t{r.surface}\t{r.verdict}" for r in rows]


def _review_row(cols: list[str]) -> ReviewRow:
    try:
        line_no, span, surface, verdict = cols
        start, end = span.split("-")
        row = ReviewRow(int(line_no), (int(start), int(end)), surface, verdict)
    except ValueError:
        raise ValueError("expected LINE<TAB>START-END<TAB>SURFACE<TAB>VERDICT") from None
    if verdict not in VERDICTS:
        raise ValueError(f"unknown verdict {verdict!r} (expected one of {', '.join(VERDICTS)})")
    return row


def load_review(path: str | Path) -> list[ReviewRow]:
    """Rows as :func:`review_lines` writes them; a malformed line raises
    InputError naming the file and the line."""
    return read_rows(path, _review_row)
