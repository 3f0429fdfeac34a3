"""Output checks that do not trust the code under test.

Each checker takes the benchmark's own inputs, the KB as read by
:mod:`kbfile`, and the bytes a command wrote, and returns a
:class:`Verdict`: how many items failed, and the first few reasons.  Nothing here imports dimkit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from kbfile import KbUnit

TOLERANCE = 1e-9


@dataclass
class Verdict:
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str, items: int = 1) -> None:
        self.failed += items
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def add(self, other: "Verdict") -> None:
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 5 - len(self.reasons))])


# ---------------------------------------------------------------------------
# Equations: digits, '.', + - * / ( ), postfix '%', last '=' segment.

_EQ_TOKEN = re.compile(r"\d+(?:\.\d+)?|[-+*/%()=]")


def evaluate_equation(equation: str) -> float:
    tokens = _EQ_TOKEN.findall(equation.replace(" ", ""))
    if "".join(tokens) != equation.replace(" ", ""):
        raise ValueError(f"illegal character in {equation!r}")
    if "=" in tokens:
        tokens = tokens[len(tokens) - tokens[::-1].index("="):]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def factor() -> float:
        nonlocal pos
        sign = 1.0
        while peek() in ("+", "-"):
            sign = -sign if tokens[pos] == "-" else sign
            pos += 1
        if peek() == "(":
            pos += 1
            value = expr()
            if peek() != ")":
                raise ValueError("missing ')'")
            pos += 1
        else:
            value = float(tokens[pos])
            pos += 1
        while peek() == "%":
            pos += 1
            value /= 100.0
        return sign * value

    def term() -> float:
        nonlocal pos
        value = factor()
        while peek() in ("*", "/"):
            op = tokens[pos]
            pos += 1
            value = value * factor() if op == "*" else value / factor()
        return value

    def expr() -> float:
        nonlocal pos
        value = term()
        while peek() in ("+", "-"):
            op = tokens[pos]
            pos += 1
            value = value + term() if op == "+" else value - term()
        return value

    result = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {equation!r}")
    return result


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def _jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# annotate


def _char_boundaries(text: str) -> set[int]:
    out, total = {0}, 0
    for ch in text:
        total += len(ch.encode("utf-8"))
        out.add(total)
    return out


def _literal_value(raw: str) -> float:
    scale = 0.01 if raw.endswith("%") else 1.0
    return float(raw.rstrip("%").replace(",", "")) * scale


def _span_text(text: str, span, bounds: set[int]) -> str:
    start, end = span
    if not (0 <= start < end) or start not in bounds or end not in bounds:
        raise ValueError(f"span {span} not on character boundaries")
    return text.encode("utf-8")[start:end].decode("utf-8")


def check_annotate(corpus: list[str], output: str, review: str, units: dict[str, KbUnit]) -> Verdict:
    """Every corpus line holding a digit gets one record (the constant
    numeric oracle keeps every mention); spans fall on character
    boundaries and match their bytes; linked units exist in the KB;
    review rows match the quantity spans they name."""
    v = Verdict()
    records = {}
    for rec in _jsonl(output):
        records[rec["line_no"]] = rec
    verdicts = {}
    for row in review.splitlines():
        line_no, span, surface, verdict = row.split("\t")
        start, end = (int(x) for x in span.split("-"))
        verdicts[(int(line_no), start, end)] = (surface, verdict)
    for line_no, text in enumerate(corpus, start=1):
        rec = records.pop(line_no, None)
        has_digit = any(ch.isascii() and ch.isdigit() for ch in text)
        if rec is None:
            if has_digit:
                v.fail(f"line {line_no}: no record for a line with a number")
            continue
        try:
            if rec["text"] != text or not has_digit or not rec["mentions"]:
                raise ValueError("record text or mention list does not match the corpus line")
            bounds = _char_boundaries(text)
            for m in rec["mentions"]:
                raw = _span_text(text, m["value_span"], bounds)
                if _literal_value(raw) != m["value"]:
                    raise ValueError(f"value {m['value']} != literal {raw!r}")
                end = m["value_span"][1]
                if m["unit_span"] is not None:
                    if _span_text(text, m["unit_span"], bounds) != m["unit_surface"]:
                        raise ValueError(f"unit span does not hold {m['unit_surface']!r}")
                    if m["linked_unit"] not in units:
                        raise ValueError(f"linked unit {m['linked_unit']!r} not in the KB")
                    end = m["unit_span"][1]
                elif m["linked_unit"] is not None:
                    raise ValueError("linked unit without a unit span")
                key = (line_no, m["value_span"][0], end)
                surface = _span_text(text, key[1:], bounds)
                if verdicts.pop(key, None) != (surface, "kept:numeric"):
                    raise ValueError(f"review row for {key} missing or wrong")
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            v.fail(f"line {line_no}: {exc}")
    if records:
        v.fail(f"records for unknown lines {sorted(records)[:3]}", 0)
    if verdicts:
        v.fail(f"{len(verdicts)} review rows match no mention", 0)
    return v


# ---------------------------------------------------------------------------
# augment


def check_augment(problems: list[dict], output: str, records: str, units: dict[str, KbUnit]) -> Verdict:
    """Every equation evaluates to its answer within 1e-9; records obey
    the augmentation invariants (format and context methods keep the
    answer, question_dimension scales it by the KB conversion factor);
    problems without a record pass through unchanged."""
    v = Verdict()
    out = _jsonl(output)
    if [p["id"] for p in out] != [p["id"] for p in problems]:
        v.fail("output ids differ from input ids", len(problems))
        return v
    by_id = {}
    for rec in _jsonl(records):
        by_id[rec["problem_id"]] = rec
    for before, after in zip(problems, out):
        rec = by_id.pop(before["id"], None)
        try:
            if not _close(evaluate_equation(after["equation"]), after["answer"]):
                raise ValueError(f"equation {after['equation']!r} != answer {after['answer']}")
            if rec is None:
                if after != before:
                    raise ValueError("problem without a record changed")
            else:
                if rec["answer_before"] != before["answer"] or rec["answer_after"] != after["answer"]:
                    raise ValueError("record answers do not match the problems")
                old, new = units[rec["original_unit"]], units[rec["new_unit"]]
                if rec["method"] == "question_dimension":
                    beta = old.conversion_val / new.conversion_val
                    if abs(rec["answer_after"] - rec["answer_before"] * beta) > TOLERANCE * abs(
                        rec["answer_after"] or 1.0
                    ):
                        raise ValueError(f"answer not scaled by beta={beta}")
                elif rec["method"] in ("context_format", "context_dimension", "question_format"):
                    if rec["answer_after"] != rec["answer_before"]:
                        raise ValueError(f"{rec['method']} changed the answer")
                else:
                    raise ValueError(f"unknown method {rec['method']!r}")
        except (ValueError, KeyError, ZeroDivisionError) as exc:
            v.fail(f"{before['id']}: {exc}")
    if by_id:
        v.fail(f"records for unknown problems {sorted(by_id)[:3]}", 0)
    return v


# ---------------------------------------------------------------------------
# gen-tasks


def _expression_exponents(terms, ops, units) -> tuple[int, ...]:
    exps = units[terms[0]].exponents
    for op, term in zip(ops, terms[1:]):
        other = units[term].exponents
        sign = 1 if op in ("×", "*") else -1 if op in ("÷", "/") else None
        if sign is None:
            raise ValueError(f"unknown operator {op!r}")
        exps = tuple(a + sign * b for a, b in zip(exps, other))
    return exps


def _flags(inst: dict, units: dict[str, KbUnit], linked: set[str]) -> list[bool]:
    kind, prompt, cands = inst["task_type"], inst["prompt"], inst["candidates"]
    if kind == "kind_match":
        return [units[c].quantity_kind == prompt["kind"] for c in cands]
    if kind == "comparable":
        return [units[c].exponents == units[prompt["anchor"]].exponents for c in cands]
    if kind == "dimension_prediction":
        if prompt["source_unit"] not in linked:
            raise ValueError(f"source unit {prompt['source_unit']} is not a linked unit of the input")
        return [units[c].exponents == units[prompt["source_unit"]].exponents for c in cands]
    if kind == "dimension_arithmetic":
        target = _expression_exponents(prompt["terms"], prompt["ops"], units)
        return [units[c].exponents == target for c in cands]
    if kind == "magnitude_comparison":
        values = [units[c].conversion_val for c in cands]
        return [x == max(values) for x in values]
    if kind == "unit_conversion":
        beta = units[prompt["from_unit"]].conversion_val / units[prompt["to_unit"]].conversion_val
        return [abs(float(c) - beta) <= TOLERANCE * abs(beta) for c in cands]
    raise ValueError(f"unknown task type {kind!r}")


def check_tasks(family: str, n: int, output: str, units: dict[str, KbUnit], linked: set[str]) -> Verdict:
    """n instances of the family; exactly one candidate satisfies the
    predicate, recomputed from the KB file's dimension strings and
    conversion values, and answer_index points at it."""
    v = Verdict()
    out = _jsonl(output)
    if len(out) != n:
        v.fail(f"{family}: {len(out)} instances, expected {n}", n)
        return v
    for i, inst in enumerate(out):
        try:
            if inst["id"] != f"{family}-{i:05d}" or inst["task_type"] != family:
                raise ValueError("id or task type out of sequence")
            if len(set(inst["candidates"])) != len(inst["candidates"]):
                raise ValueError("candidates not distinct")
            flags = _flags(inst, units, linked)
            if sum(flags) != 1 or not flags[inst["answer_index"]]:
                raise ValueError(f"flags {flags}, answer {inst['answer_index']}")
        except (ValueError, KeyError, IndexError) as exc:
            v.fail(f"{inst.get('id', i)}: {exc}")
    return v


# ---------------------------------------------------------------------------
# bootstrap


def check_bootstrap(store: list[tuple[str, str, str]], output: str) -> Verdict:
    """Every retrieved triplet is in the store, once; the predicate and
    mention lists are sorted and distinct."""
    v = Verdict()
    try:
        result = json.loads(output)
    except ValueError as exc:
        v.fail(f"output is not JSON: {exc}", len(store))
        return v
    known = set(store)
    retrieved = [tuple(t) for t in result.get("triplets", [])]
    bad = [t for t in retrieved if t not in known]
    if bad:
        v.fail(f"{len(bad)} retrieved triplets not in the store, e.g. {bad[0]}", len(bad))
    if len(set(retrieved)) != len(retrieved):
        v.fail("duplicate triplets in the result", 0)
    for key in ("predicates", "mentions"):
        values = result.get(key, [])
        if values != sorted(set(values)):
            v.fail(f"{key} not sorted and distinct", 0)
    if not retrieved:
        v.fail("nothing retrieved", 0)
    return v
