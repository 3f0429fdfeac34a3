"""Quantity-oriented augmentation of math word problems.

Four methods, two per direction:

* context_format: swap a body unit's surface for another surface form
  of the same unit; nothing else changes.
* context_dimension: swap a body unit for a same-dimension unit and
  rescale the value so the physical magnitude (and hence the answer) is
  unchanged; equation literals are rewritten to keep evaluating to the
  answer.
* question_format: swap the question unit's surface form; answer
  unchanged.
* question_dimension: swap the question unit for a same-dimension unit;
  the answer and equation are rescaled by the conversion factor.

Problems are JSON-Lines records {id, body, question, equation, answer,
answer_unit?}; spans are UTF-8 byte offsets over body + question
concatenated.  Equations use digits, '.', and the operator set
+ - * / % = ( ) where '%' is postfix percent.

The context methods link body quantities: the mentions a problem
carries, else those :func:`annotate_problem` extracts.  The question
methods read only the question.  Augmented problems carry no mentions;
call :func:`annotate_problem` on one to get them.
"""

from __future__ import annotations

import math
import random
import re
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .embeddings import EmbeddingProvider, TrigramHashEmbedding
from .errors import AugmentationError, ConversionRangeError, EquationError, InputError
from .kb import KnowledgeBase, conversion_factor
from .linking import DEFAULT_THRESHOLD, link
from .quantity_text import QuantityMention, extract_quantities
from .util import (
    byte_length,
    byte_replace,
    byte_slice,
    format_plain,
    normalize_surface,
    number_field,
    on_word_boundary,
    read_records,
    text_field,
)

#: context_dimension rejects rewritten values outside this band so
#: augmented problems stay human-plausible.
VALUE_MAX, VALUE_MIN = 1e9, 1e-6

#: Deepest parenthesis nesting evaluate_equation accepts; its recursive
#: descent parser would exhaust the interpreter's stack not far beyond.
MAX_NESTING = 100

_OPERATORS = set("+-*/%=()")


# ---------------------------------------------------------------------------
# Equations


def tokenize_equation(equation: str) -> list[str]:
    """One token per digit, per '.', and per operator; whitespace is
    discarded.  Joining the tokens reproduces the input sans whitespace.
    """
    tokens = []
    for offset, ch in enumerate(equation):
        if ch.isspace():
            continue
        if (ch.isascii() and ch.isdigit()) or ch == "." or ch in _OPERATORS:
            tokens.append(ch)
        else:
            raise EquationError(f"illegal character {ch!r} in equation", offset)
    return tokens


def _evaluated_tokens(equation: str) -> list[str]:
    """Tokens of the segment evaluate_equation evaluates: after the last '='."""
    tokens = tokenize_equation(equation)
    if "=" in tokens:
        tokens = tokens[len(tokens) - tokens[::-1].index("="):]
    return tokens


def _nesting_depth(tokens: list[str]) -> int:
    return max(accumulate((tok == "(") - (tok == ")") for tok in tokens), default=0)


def evaluate_equation(equation: str) -> float:
    """Evaluate with standard precedence (* / over + -), parentheses,
    and '%' as postfix percent.  If '=' is present only the segment
    after the last '=' is evaluated.  Nesting deeper than MAX_NESTING
    and a non-finite result raise EquationError."""
    tokens = _evaluated_tokens(equation)
    if not tokens:
        raise EquationError("empty equation")
    if _nesting_depth(tokens) > MAX_NESTING:
        raise EquationError(f"parentheses nested deeper than {MAX_NESTING}")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def parse_number() -> float:
        nonlocal pos
        start = pos
        while peek() is not None and (peek().isdigit() or peek() == "."):
            pos += 1
        literal = "".join(tokens[start:pos])
        if not literal or literal.count(".") > 1 or literal in (".",):
            raise EquationError(f"bad numeric literal {literal!r} at token {start}")
        return float(literal)

    def parse_factor() -> float:
        sign = 1.0
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        if peek() == "(":
            take()
            value = parse_expr()
            if peek() != ")":
                raise EquationError("missing closing parenthesis")
            take()
        else:
            if peek() is None or not (peek().isdigit() or peek() == "."):
                raise EquationError(f"expected number or '(' at token {pos}")
            value = parse_number()
        while peek() == "%":
            take()
            value /= 100.0
        return sign * value

    def parse_term() -> float:
        value = parse_factor()
        while peek() in ("*", "/"):
            if take() == "*":
                value *= parse_factor()
            else:
                divisor = parse_factor()
                if divisor == 0.0:
                    raise EquationError("division by zero")
                value /= divisor
        return value

    def parse_expr() -> float:
        value = parse_term()
        while peek() in ("+", "-"):
            value = value + parse_term() if take() == "+" else value - parse_term()
        return value

    result = parse_expr()
    if pos != len(tokens):
        raise EquationError(f"unexpected token {tokens[pos]!r} at {pos}")
    if not math.isfinite(result):
        raise EquationError(f"equation evaluates to {result}")
    return result


# ---------------------------------------------------------------------------
# Problems


class MwpProblem(NamedTuple):
    id: str
    body: str
    question: str
    equation: str
    answer: float
    answer_unit: str | None = None
    mentions: tuple[QuantityMention, ...] = ()

    @property
    def text(self) -> str:
        return self.body + self.question

    def to_dict(self) -> dict:
        d = {
            "id": self.id,
            "body": self.body,
            "question": self.question,
            "equation": self.equation,
            "answer": self.answer,
        }
        if self.answer_unit is not None:
            d["answer_unit"] = self.answer_unit
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MwpProblem":
        return cls(
            id=text_field(d["id"]),
            body=text_field(d["body"]),
            question=text_field(d["question"]),
            equation=text_field(d["equation"]),
            answer=number_field(d["answer"]),
            answer_unit=text_field(d.get("answer_unit"), nullable=True),
        )

    def check(self) -> None:
        if not math.isfinite(self.answer):
            raise EquationError(f"problem {self.id}: answer {self.answer} is not finite")
        try:
            value = evaluate_equation(self.equation)
        except EquationError as exc:
            raise EquationError(f"problem {self.id}: equation does not evaluate ({exc})") from None
        tolerance = 1e-9 * max(1.0, abs(self.answer))
        if abs(value - self.answer) > tolerance:
            raise EquationError(
                f"problem {self.id}: equation evaluates to {value}, answer is {self.answer}"
            )


class AugmentationRecord(NamedTuple):
    problem_id: str
    method: str
    original_unit: str
    new_unit: str
    scale: float
    answer_before: float
    answer_after: float

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "AugmentationRecord":
        return cls(**d)


class AugmentationFailure(NamedTuple):
    problem_id: str
    method: str
    reason: str


def annotate_problem(
    p: MwpProblem,
    kb: KnowledgeBase,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> MwpProblem:
    """Fill the mention list by running extraction over body+question."""
    return p._replace(mentions=tuple(extract_quantities(p.text, kb, emb, threshold)))


class UnitMention(NamedTuple):
    """A standalone unit surface in text (no numeric value attached)."""

    span: tuple[int, int]
    surface: str
    unit_id: str


#: Longest unit surface form, in characters, that find_unit_mentions tries.
_MAX_FORM_CHARS = 24


def find_unit_mentions(
    text: str,
    kb: KnowledgeBase,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[UnitMention]:
    """Exact-surface scan for unit mentions not anchored to a value,
    e.g. the asked unit in "多少千克？".  Longest match wins at each
    position; ambiguity between exact matches resolves through
    context-aware linking.  A candidate must sit on a word boundary and
    normalize to a KB form; the cheap boundary test runs first, so most
    substrings are never sliced or normalized."""
    out = []
    byte_pos = 0
    i = 0
    while i < len(text):
        hit = None
        # a span reaching the end of text has no end edge, so this tests
        # the start edge alone, which every length at i shares
        lengths = range(min(_MAX_FORM_CHARS, len(text) - i), 0, -1)
        for length in lengths if on_word_boundary(text, i, len(text)) else ():
            if not on_word_boundary(text, i, i + length):
                continue
            candidate = text[i : i + length]
            if candidate != candidate.strip():
                continue
            exact = kb.surface_index.get(normalize_surface(candidate))
            if not exact:
                continue
            hit = (length, candidate, exact)
            break
        if hit is None:
            byte_pos += byte_length(text[i])
            i += 1
            continue
        length, candidate, exact = hit
        ranked = link(kb, candidate, text, emb, threshold) if len(exact) > 1 else []
        unit_id = next((c.unit_id for c in ranked if c.unit_id in exact), exact[0])
        end = byte_pos + byte_length(candidate)
        out.append(UnitMention((byte_pos, end), candidate, unit_id))
        byte_pos = end
        i += length
    return out


def _alternative_form(p, kb, rng, unit_id: str, current_surface: str) -> str:
    """A random other surface form of the unit, by normalized form."""
    record = kb.unit(unit_id)
    seen = {normalize_surface(current_surface)}
    forms = []
    for form, norm in zip(record.surface_forms(), record.normalized_forms):
        if norm not in seen:
            seen.add(norm)
            forms.append(form)
    if not forms:
        raise AugmentationError(f"problem {p.id}: unit {unit_id} has a single surface form")
    return forms[rng.randrange(len(forms))]


def _display_form(kb, unit_id: str, like_surface: str) -> str:
    """Label in the same script family as the surface being replaced."""
    record = kb.unit(unit_id)
    cjk = any("㐀" <= ch <= "鿿" for ch in like_surface)
    if cjk and record.label_zh:
        return record.label_zh
    return record.label_en or record.unit_id


def _insert(text: str, start: int, end: int, replacement: str) -> str:
    """byte_replace plus a separating space when a digit would end up
    glued to an ASCII-lettered unit form."""
    before = text.encode("utf-8")[:start].decode("utf-8")
    if before and before[-1].isascii() and before[-1].isdigit():
        if replacement and replacement[0].isascii() and replacement[0].isalnum():
            replacement = " " + replacement
    return byte_replace(text, start, end, replacement)


# A literal as evaluate_equation reads it: a maximal run of digits and
# '.', whitespace inside the run included.
_EQ_LITERAL_RE = re.compile(r"[0-9.](?:\s*[0-9.])*")


def _rewrite_literals(equation: str, old_value: float, replacement: str) -> str:
    """Replace every equation literal numerically equal to old_value.

    Signs and '%' are equation operators, not part of the literal; the
    replacement expression evaluates to the literal's value, so a
    following '%' keeps its meaning.
    """
    out = []
    last = 0
    changed = False
    for m in _EQ_LITERAL_RE.finditer(equation):
        literal = "".join(m.group(0).split())
        # a run left of the last '=' is never evaluated, so it may be malformed
        if literal.count(".") <= 1 and literal != "." and float(literal) == old_value:
            out.append(equation[last : m.start()])
            out.append(replacement)
            last = m.end()
            changed = True
    if not changed:
        raise AugmentationError(
            f"value {old_value} has no matching literal in equation {equation!r}"
        )
    out.append(equation[last:])
    return "".join(out)


def _linked_body_mentions(p: MwpProblem, kb, emb, threshold) -> list[QuantityMention]:
    """Linked body mentions: those p carries, else those annotate_problem extracts."""
    if not p.mentions:
        p = annotate_problem(p, kb, emb, threshold)
    body_len = byte_length(p.body)
    return [
        m
        for m in p.mentions
        if m.linked_unit is not None and m.unit_span is not None and m.unit_span[1] <= body_len
    ]


def _finish_augmentation(p, augmented, method, original_unit, new_unit, scale):
    """Check the rewritten problem and record the change.  A rewrite the
    equation grammar cannot hold (an answer rescaled past the float
    range, a wrap past MAX_NESTING) is an augmentation failure; any other
    check failure is a defect of the rewrite and propagates."""
    if not math.isfinite(augmented.answer):
        raise AugmentationError(f"problem {p.id}: rescaled answer {augmented.answer} is not finite")
    if _nesting_depth(_evaluated_tokens(augmented.equation)) > MAX_NESTING:
        raise AugmentationError(f"problem {p.id}: rewritten equation nests deeper than {MAX_NESTING}")
    augmented.check()
    return augmented, AugmentationRecord(
        p.id, method, original_unit, new_unit, scale, p.answer, augmented.answer
    )


def augment_context_format(
    p: MwpProblem,
    kb: KnowledgeBase,
    rng: random.Random,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[MwpProblem, AugmentationRecord]:
    """Swap a body unit surface for an equivalent alternative format."""
    mentions = _linked_body_mentions(p, kb, emb, threshold)
    if not mentions:
        raise AugmentationError(f"problem {p.id}: no linked unit mention in body")
    mention = mentions[rng.randrange(len(mentions))]
    unit = mention.linked_unit
    new_form = _alternative_form(p, kb, rng, unit, mention.unit_surface)
    augmented = p._replace(body=_insert(p.body, *mention.unit_span, new_form), mentions=())
    return _finish_augmentation(p, augmented, "context_format", unit, unit, 1.0)


def augment_context_dimension(
    p: MwpProblem,
    kb: KnowledgeBase,
    rng: random.Random,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
    target_unit: str | None = None,
) -> tuple[MwpProblem, AugmentationRecord]:
    """Swap a body unit for a same-dimension unit, rescaling the value
    to keep the physical magnitude (and the answer) unchanged.

    target_unit restricts the substitution to one new unit (controlled
    augmentation); by default the rng picks among all plausible ones.
    """
    candidates: list[tuple[QuantityMention, str, float]] = []
    for mention in _linked_body_mentions(p, kb, emb, threshold):
        old = kb.unit(mention.linked_unit)
        if old.affine_offset != 0.0:
            continue
        for alt in kb.units_with_dimension(old.dimension):
            if alt == mention.linked_unit or kb.unit(alt).affine_offset != 0.0:
                continue
            if target_unit is not None and alt != target_unit:
                continue
            try:
                beta = conversion_factor(kb, mention.linked_unit, alt)
            except ConversionRangeError:
                continue
            new_value = mention.value * beta
            if not (VALUE_MIN <= abs(new_value) <= VALUE_MAX) or math.isinf(1.0 / beta):
                continue
            candidates.append((mention, alt, beta))
    if not candidates:
        raise AugmentationError(f"problem {p.id}: no plausible same-dimension substitution")
    mention, alt, beta = candidates[rng.randrange(len(candidates))]
    new_value = mention.value * beta
    new_surface = _display_form(kb, alt, mention.unit_surface)
    gap = byte_slice(p.body, mention.value_span[1], mention.unit_span[0])
    if not gap and new_surface and new_surface[0].isascii() and new_surface[0].isalnum():
        gap = " "
    quantity_text = f"{format_plain(new_value)}{gap}{new_surface}"
    new_body = _insert(p.body, mention.value_span[0], mention.unit_span[1], quantity_text)
    # The literal keeps evaluating to the old value: new/beta == old.
    if beta >= 1.0:
        rewrite = f"({format_plain(new_value)}/{format_plain(beta)})"
    else:
        rewrite = f"({format_plain(new_value)}*{format_plain(1.0 / beta)})"
    new_equation = _rewrite_literals(p.equation, mention.value, rewrite)
    augmented = p._replace(body=new_body, equation=new_equation, mentions=())
    return _finish_augmentation(p, augmented, "context_dimension", mention.linked_unit, alt, beta)


def _question_unit(p, kb, emb, threshold) -> UnitMention:
    found = find_unit_mentions(p.question, kb, emb, threshold)
    if not found:
        raise AugmentationError(f"problem {p.id}: question contains no linked unit mention")
    return found[-1]  # the asked unit is the one nearest the question mark


def augment_question_format(
    p: MwpProblem,
    kb: KnowledgeBase,
    rng: random.Random,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[MwpProblem, AugmentationRecord]:
    """Swap the question unit's surface for an alternative format."""
    unit_mention = _question_unit(p, kb, emb, threshold)
    unit = unit_mention.unit_id
    new_form = _alternative_form(p, kb, rng, unit, unit_mention.surface)
    new_question = _insert(p.question, *unit_mention.span, new_form)
    augmented = p._replace(question=new_question, mentions=())
    return _finish_augmentation(p, augmented, "question_format", unit, unit, 1.0)


def augment_question_dimension(
    p: MwpProblem,
    kb: KnowledgeBase,
    rng: random.Random,
    emb: EmbeddingProvider,
    threshold: float = DEFAULT_THRESHOLD,
    target_unit: str | None = None,
) -> tuple[MwpProblem, AugmentationRecord]:
    """Swap the question unit for a same-dimension unit; the answer is
    rescaled by the conversion factor and the equation wrapped so it
    evaluates to the new answer."""
    unit_mention = _question_unit(p, kb, emb, threshold)
    old = kb.unit(unit_mention.unit_id)
    if old.affine_offset != 0.0:
        raise AugmentationError(f"problem {p.id}: affine answer unit unsupported")
    alts = [
        u
        for u in kb.units_with_dimension(old.dimension)
        if u != unit_mention.unit_id and kb.unit(u).affine_offset == 0.0
        and (target_unit is None or u == target_unit)
    ]
    if not alts:
        raise AugmentationError(f"problem {p.id}: no same-dimension alternative for question unit")
    alt = alts[rng.randrange(len(alts))]
    try:
        beta = conversion_factor(kb, unit_mention.unit_id, alt)
    except ConversionRangeError as exc:
        raise AugmentationError(f"problem {p.id}: {exc}") from None
    new_question = _insert(p.question, *unit_mention.span, _display_form(kb, alt, unit_mention.surface))
    if "=" in p.equation:
        head, _, tail = p.equation.rpartition("=")
        new_equation = f"{head}=({tail})*{format_plain(beta)}"
    else:
        new_equation = f"({p.equation})*{format_plain(beta)}"
    augmented = p._replace(
        question=new_question,
        equation=new_equation,
        answer=p.answer * beta,
        answer_unit=alt,
        mentions=(),
    )
    return _finish_augmentation(p, augmented, "question_dimension", unit_mention.unit_id, alt, beta)


_METHOD_FUNCS: dict[str, Callable] = {
    "context_format": augment_context_format,
    "context_dimension": augment_context_dimension,
    "question_format": augment_question_format,
    "question_dimension": augment_question_dimension,
}

AUGMENT_METHODS = tuple(_METHOD_FUNCS)


def augment_dataset(
    problems: Sequence[MwpProblem],
    kb: KnowledgeBase,
    rng: random.Random,
    eta: float,
    method_mix: dict[str, float] | None = None,
    emb: EmbeddingProvider | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    append: bool = False,
) -> tuple[list[MwpProblem], list[AugmentationRecord], list[AugmentationFailure]]:
    """Augment each problem independently with probability eta.

    A method is drawn from method_mix (None: all methods, equal
    weights; an empty mix is rejected); on failure the problem passes
    through unchanged and the failure is recorded.  Output size equals
    the input size (in-place policy) or twice it (append policy).  Each
    problem gets a derived sub-seed, so the selection set is
    deterministic for a fixed master RNG state.  Augmented problems come
    back with ``mentions=()``.
    """
    if not (0.0 <= eta <= 1.0):
        raise InputError(f"eta must lie in [0, 1], got {eta}")
    emb = emb or TrigramHashEmbedding()
    mix = {name: 1.0 for name in AUGMENT_METHODS} if method_mix is None else method_mix
    if not mix:
        raise InputError("empty augmentation method mix")
    unknown = set(mix) - set(AUGMENT_METHODS)
    if unknown:
        raise InputError(f"unknown augmentation methods: {sorted(unknown)}")
    names = sorted(mix)
    weights = [mix[name] for name in names]

    seeds = [rng.getrandbits(32) for _ in problems]
    out: list[MwpProblem] = []
    records: list[AugmentationRecord] = []
    failures: list[AugmentationFailure] = []
    for p, seed in zip(problems, seeds):
        prng = random.Random(seed)
        result = p
        if prng.random() < eta:
            method = prng.choices(names, weights=weights, k=1)[0]
            try:
                result, record = _METHOD_FUNCS[method](p, kb, prng, emb, threshold)
                records.append(record)
            except AugmentationError as exc:
                failures.append(AugmentationFailure(p.id, method, str(exc)))
                result = p
        out.append(result)
    if append:
        return [*problems, *out], records, failures
    return out, records, failures


# ---------------------------------------------------------------------------
# Serialization


def load_problems(path: str | Path) -> list[MwpProblem]:
    """Problems of a JSONL file, each checked as it is decoded: one whose
    equation does not evaluate or disagrees with its answer raises
    EquationError naming the file and the line."""

    def checked(d: dict) -> MwpProblem:
        p = MwpProblem.from_dict(d)
        p.check()
        return p

    return read_records(path, checked)
