"""Generators for the selection-style benchmark task families.

Every generated instance has exactly one candidate satisfying its task
oracle among m (default 4): guaranteed by construction and re-verified
by :func:`verify_instance` before an instance is returned.  Generation
is seed-deterministic: the caller's RNG yields one sub-seed per
instance, and that sub-seed is recorded on the instance.

Each generator checks its KB and inputs once, then hands a ``draw``
function to one shared instance loop, :func:`_instances`.  That loop
rejects degenerate sizes, resamples a draw that returns None within one
budget, and checks, shuffles and verifies every instance.

Rationales follow the delimited reasoning/answer shape
``<bos> R <sep> A <eos>``.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .dimension import DimensionVector, format_symbolic, is_comparable
from .errors import DimensionRangeError, GenerationError
from .kb import KnowledgeBase, conversion_factor, units_of_dimension
from .util import byte_replace, format_number, int_field, text_field

if TYPE_CHECKING:
    from .quantity_text import AnnotatedSentence

DEFAULT_CANDIDATES = 4
_RESAMPLE_BUDGET = 200


class TaskInstance(NamedTuple):
    id: str
    task_type: str
    prompt: dict
    candidates: tuple[str, ...]
    answer_index: int
    rationale: str
    seed: int

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "TaskInstance":
        """The prompt must be an object, the candidates a list of strings
        and answer_index the index of one of them."""
        id_, task_type, prompt = text_field(d["id"]), text_field(d["task_type"]), d["prompt"]
        if not isinstance(prompt, dict):
            raise TypeError("expected an object")
        candidates = d["candidates"]
        if type(candidates) not in (list, tuple) or any(type(c) is not str for c in candidates):
            raise TypeError("expected a list of strings")
        answer_index = int_field(d["answer_index"])
        if not 0 <= answer_index < len(candidates):
            raise ValueError(f"{answer_index} is not the index of one of {len(candidates)} candidates")
        return cls(
            id=id_,
            task_type=task_type,
            prompt=prompt,
            candidates=tuple(candidates),
            answer_index=answer_index,
            rationale=text_field(d.get("rationale", "")),
            seed=int_field(d.get("seed", 0)),
        )


def _label(kb: KnowledgeBase, unit_id: str) -> str:
    return kb.records[unit_id].label_en or unit_id


def _distractor_sampler(
    kb: KnowledgeBase,
) -> Callable[[random.Random, DimensionVector, int], list[str]]:
    """``sample(rng, avoid, k)``: k distinct units whose dimension differs
    from `avoid`, drawn from the units in ``kb.records`` order.  Each
    avoided dimension's pool is built once per sampler, so a generator
    makes one sampler per call."""
    pools: dict[DimensionVector, list[str]] = {}

    def sample(rng: random.Random, avoid: DimensionVector, k: int) -> list[str]:
        pool = pools.get(avoid)
        if pool is None:
            same = units_of_dimension(kb, avoid)
            pool = pools[avoid] = [uid for uid in kb.records if uid not in same]
        if len(pool) < k:
            raise GenerationError(f"need {k} distractors with dimension != {avoid}, have {len(pool)}")
        return rng.sample(pool, k)

    return sample


def _instances(
    kb: KnowledgeBase,
    task_type: str,
    rng: random.Random,
    n: int,
    m: int,
    draw: Callable[[random.Random], tuple[dict, str, list[str], str, str] | None],
) -> list[TaskInstance]:
    """n verified instances of `task_type` with m candidates each.

    Rejects ``n < 0`` and ``m < 2``.  Instance i gets an RNG seeded with
    the i-th of n sub-seeds drawn up front.  ``draw(irng)`` returns
    ``(prompt, correct, distractors, reasoning, answer_text)``, or None to
    reject the attempt; it is called on the same RNG until it accepts, at
    most ``_RESAMPLE_BUDGET`` times.  The accepted candidates must be
    distinct; the same RNG shuffles them, and the instance must pass
    :func:`verify_instance`."""
    if n < 0:
        raise GenerationError(f"instance count must be >= 0, got {n}")
    if m < 2:
        raise GenerationError(f"need >= 2 candidates per instance, got {m}")
    seeds = [rng.getrandbits(32) for _ in range(n)]
    out = []
    for i, seed in enumerate(seeds):
        irng = random.Random(seed)
        for _ in range(_RESAMPLE_BUDGET):
            drawn = draw(irng)
            if drawn is not None:
                break
        else:
            raise GenerationError(f"resample budget exhausted for {task_type} instance {i}")
        prompt, correct, distractors, reasoning, answer_text = drawn
        candidates = [correct, *distractors]
        if len(set(candidates)) != len(candidates):
            raise GenerationError(f"candidates not distinct: {candidates}")
        irng.shuffle(candidates)
        instance = TaskInstance(
            id=f"{task_type}-{i:05d}",
            task_type=task_type,
            prompt=prompt,
            candidates=tuple(candidates),
            answer_index=candidates.index(correct),
            rationale=f"<bos> {reasoning} <sep> {answer_text} <eos>",
            seed=seed,
        )
        verify_instance(kb, instance)
        out.append(instance)
    return out


# ---------------------------------------------------------------------------
# Oracle predicates: one boolean per candidate, does it satisfy the task?


def _has_dimension(kb: KnowledgeBase, inst: TaskInstance, dim: DimensionVector) -> list[bool]:
    return [is_comparable(kb.unit(c).dimension, dim) for c in inst.candidates]


def _kind_match_oracle(kb: KnowledgeBase, inst: TaskInstance) -> list[bool]:
    return [kb.unit(c).quantity_kind == inst.prompt["kind"] for c in inst.candidates]


def _comparable_oracle(kb: KnowledgeBase, inst: TaskInstance) -> list[bool]:
    return _has_dimension(kb, inst, kb.unit(inst.prompt["anchor"]).dimension)


def _dimension_prediction_oracle(kb: KnowledgeBase, inst: TaskInstance) -> list[bool]:
    return _has_dimension(kb, inst, kb.unit(inst.prompt["source_unit"]).dimension)


def _dimension_arithmetic_oracle(kb: KnowledgeBase, inst: TaskInstance) -> list[bool]:
    dim = expression_dimension(kb, inst.prompt["terms"], inst.prompt["ops"])
    return _has_dimension(kb, inst, dim)


def _magnitude_comparison_oracle(kb: KnowledgeBase, inst: TaskInstance) -> list[bool]:
    values = [kb.unit(c).conversion_val for c in inst.candidates]
    peak = max(values)
    return [v == peak for v in values]


def _same_factor(value: float, beta: float) -> bool:
    """The unit_conversion tolerance, shared by the oracle and by the
    generator's distractor filter so the two can never disagree."""
    return abs(value - beta) <= 1e-9 * abs(beta)


def _unit_conversion_oracle(kb: KnowledgeBase, inst: TaskInstance) -> list[bool]:
    beta = conversion_factor(kb, inst.prompt["from_unit"], inst.prompt["to_unit"])
    return [_same_factor(float(c), beta) for c in inst.candidates]


def verify_instance(kb: KnowledgeBase, inst: TaskInstance) -> None:
    """Post-generation verification: exactly one correct candidate, and
    answer_index points at it."""
    oracle = ORACLES.get(inst.task_type)
    if oracle is None:
        raise GenerationError(f"unknown task_type {inst.task_type!r}")
    flags = oracle(kb, inst)
    if sum(flags) != 1 or not flags[inst.answer_index]:
        raise GenerationError(
            f"instance {inst.id} fails its oracle: flags={flags}, answer={inst.answer_index}"
        )


def _running_dimensions(
    kb: KnowledgeBase, terms: Sequence[str], ops: Sequence[str]
) -> list[DimensionVector]:
    """Dimension of each prefix ``u1 op1 ... uk`` of the expression."""
    if len(ops) != len(terms) - 1:
        raise GenerationError(f"{len(terms)} terms need {len(terms) - 1} ops, got {len(ops)}")
    dims = [kb.unit(terms[0]).dimension]
    for op, term in zip(ops, terms[1:]):
        other = kb.unit(term).dimension
        if op in ("×", "*"):
            dims.append(dims[-1] * other)
        elif op in ("÷", "/"):
            dims.append(dims[-1] / other)
        else:
            raise GenerationError(f"unknown operator {op!r}")
    return dims


def expression_dimension(
    kb: KnowledgeBase, terms: Sequence[str], ops: Sequence[str]
) -> DimensionVector:
    """Left-to-right dimension of ``u1 op1 u2 ... op(n-1) un``: flat
    form, no precedence."""
    return _running_dimensions(kb, terms, ops)[-1]


# ---------------------------------------------------------------------------
# Generators


def gen_kind_match(
    kb: KnowledgeBase, rng: random.Random, n: int, m: int = DEFAULT_CANDIDATES
) -> list[TaskInstance]:
    """Name a quantity kind; exactly one candidate unit measures it."""
    kinds = sorted(kb.kinds)
    if len(kinds) < 4:
        raise GenerationError(f"need >= 4 kinds, KB has {len(kinds)}")

    sample_distractors = _distractor_sampler(kb)

    def draw(irng):
        kind_id = irng.choice(kinds)
        correct = irng.choice(kb.units_of_kind(kind_id))
        distractors = sample_distractors(irng, kb.kinds[kind_id].dimension, m - 1)
        reasoning = (
            f"{_label(kb, correct)} measures {kind_id}; "
            + "; ".join(
                f"{_label(kb, d)} measures {kb.unit(d).quantity_kind}" for d in distractors
            )
            + "."
        )
        prompt = {"kind": kind_id, "question": f"Which unit measures {kind_id}?"}
        return prompt, correct, distractors, reasoning, _label(kb, correct)

    return _instances(kb, "kind_match", rng, n, m, draw)


def gen_comparable(
    kb: KnowledgeBase, rng: random.Random, n: int, m: int = DEFAULT_CANDIDATES
) -> list[TaskInstance]:
    """Anchor unit given; exactly one candidate shares its dimension."""
    anchors = [
        uid
        for uid, rec in kb.records.items()
        if len(kb.units_with_dimension(rec.dimension)) >= 2
    ]
    if not anchors or len(kb.dimension_index) < 4:
        raise GenerationError("KB lacks dimension diversity for comparable tasks")

    sample_distractors = _distractor_sampler(kb)

    def draw(irng):
        anchor = irng.choice(anchors)
        dim = kb.unit(anchor).dimension
        correct = irng.choice([u for u in kb.units_with_dimension(dim) if u != anchor])
        distractors = sample_distractors(irng, dim, m - 1)
        sym = format_symbolic(dim)
        reasoning = (
            f"{_label(kb, anchor)} has dimension {sym}; {_label(kb, correct)} shares it, "
            f"the other candidates do not."
        )
        prompt = {
            "anchor": anchor,
            "question": f"Which unit is comparable with {_label(kb, anchor)}?",
        }
        return prompt, correct, distractors, reasoning, _label(kb, correct)

    return _instances(kb, "comparable", rng, n, m, draw)


def gen_dimension_prediction(
    annotated: Sequence[AnnotatedSentence],
    kb: KnowledgeBase,
    rng: random.Random,
    n: int,
    m: int = DEFAULT_CANDIDATES,
) -> list[TaskInstance]:
    """Mask a linked quantity in a sentence; exactly one candidate has
    the dimension the masked quantity implies."""
    pool = [
        (sent, mention)
        for sent in annotated
        for mention in sent.mentions
        if mention.linked_unit is not None
    ]
    if not pool:
        raise GenerationError("no annotated sentences with linked mentions")

    sample_distractors = _distractor_sampler(kb)

    def draw(irng):
        sent, mention = pool[irng.randrange(len(pool))]
        source = mention.linked_unit
        dim = kb.unit(source).dimension
        masked = byte_replace(sent.text, *mention.quantity_span, "[MASK]")
        correct = irng.choice(kb.units_with_dimension(dim))
        distractors = sample_distractors(irng, dim, m - 1)
        sym = format_symbolic(dim)
        reasoning = (
            f"The masked quantity has the dimension of {_label(kb, source)}, {sym}; "
            f"{_label(kb, correct)} has dimension {sym}."
        )
        prompt = {"masked_text": masked, "source_unit": source}
        return prompt, correct, distractors, reasoning, _label(kb, correct)

    return _instances(kb, "dimension_prediction", rng, n, m, draw)


def gen_dimension_arithmetic(
    kb: KnowledgeBase,
    rng: random.Random,
    n: int,
    max_terms: int = 3,
    m: int = DEFAULT_CANDIDATES,
) -> list[TaskInstance]:
    """Unit arithmetic expression; exactly one candidate has dim(E).

    Expressions whose dimension no KB unit carries are resampled.
    """
    if max_terms < 2:
        raise GenerationError("max_terms must be >= 2")
    all_units = list(kb.records)
    if not all_units:
        raise GenerationError("empty KB")

    sample_distractors = _distractor_sampler(kb)

    def draw(irng):
        k = irng.randint(2, max_terms)
        terms = [irng.choice(all_units) for _ in range(k)]
        ops = [irng.choice("×÷") for _ in range(k - 1)]
        try:
            dim = expression_dimension(kb, terms, ops)
        except DimensionRangeError:
            return None
        matches = kb.units_with_dimension(dim)
        if not matches:
            return None
        correct = irng.choice(matches)
        try:
            distractors = sample_distractors(irng, dim, m - 1)
        except GenerationError:
            return None
        expression = " ".join(
            part
            for pair in zip([_label(kb, t) for t in terms], ops + [""])
            for part in pair
            if part
        )
        running = _running_dimensions(kb, terms, ops)
        steps = [f"dim({_label(kb, terms[0])}) = {format_symbolic(running[0])}"]
        for op, term, prefix_dim in zip(ops, terms[1:], running[1:]):
            steps.append(f"{op} dim({_label(kb, term)}) -> {format_symbolic(prefix_dim)}")
        reasoning = "; ".join(steps) + f"; {_label(kb, correct)} has dimension {format_symbolic(dim)}."
        prompt = {"expression": expression, "terms": terms, "ops": ops}
        return prompt, correct, distractors, reasoning, _label(kb, correct)

    return _instances(kb, "dimension_arithmetic", rng, n, m, draw)


def gen_magnitude_comparison(
    kb: KnowledgeBase, rng: random.Random, n: int, m: int = DEFAULT_CANDIDATES
) -> list[TaskInstance]:
    """m same-dimension units; exactly one has the largest magnitude.

    Groups with a tie at the maximum conversion value are rejected and
    resampled, preserving the single-answer invariant.
    """
    eligible = [d for d, units in kb.dimension_index.items() if len(units) >= m]
    if not eligible:
        raise GenerationError(f"no dimension has >= {m} units")

    def draw(irng):
        dim_key = irng.choice(eligible)
        group = irng.sample(kb.dimension_index[dim_key], m)
        values = [kb.unit(u).conversion_val for u in group]
        peak = max(values)
        if values.count(peak) != 1:
            return None  # tie at the maximum
        correct = group[values.index(peak)]
        others = [u for u in group if u != correct]
        reasoning = (
            "In standard units: "
            + ", ".join(f"{_label(kb, u)} = {format_number(kb.unit(u).conversion_val)}" for u in group)
            + f"; {_label(kb, correct)} is largest."
        )
        prompt = {"question": "Which unit has the largest magnitude?"}
        return prompt, correct, others, reasoning, _label(kb, correct)

    return _instances(kb, "magnitude_comparison", rng, n, m, draw)


def gen_unit_conversion(
    kb: KnowledgeBase, rng: random.Random, n: int, m: int = DEFAULT_CANDIDATES
) -> list[TaskInstance]:
    """Ask the factor beta converting u1 to u2; candidates are numeric
    literals.  Distractors are plausible confusions: the reciprocal,
    decade shifts, and the factor of a different same-dimension pair.
    """
    linear = {
        d: [u for u in units if kb.unit(u).affine_offset == 0.0]
        for d, units in kb.dimension_index.items()
    }
    pairs_pool = [d for d, units in linear.items() if len(units) >= 2]
    if not pairs_pool:
        raise GenerationError("no comparable non-affine pair in KB")

    def draw(irng):
        units = linear[irng.choice(pairs_pool)]
        u1, u2 = irng.sample(units, 2)
        beta = conversion_factor(kb, u1, u2)
        if beta == 1.0:
            return None  # degenerate (u, u)-like pair
        distractor_values: list[float] = [1.0 / beta]
        for k in (1, -1, 2, -2, 3, -3):
            distractor_values.append(beta * 10.0**k)
        if len(units) > 2:
            alt = [u for u in units if u not in (u1, u2)]
            distractor_values.append(conversion_factor(kb, irng.choice(alt), u2))
        chosen: list[float] = []
        irng.shuffle(distractor_values)
        for v in filter(math.isfinite, distractor_values):
            if not _same_factor(v, beta) and v not in chosen and len(chosen) < m - 1:
                chosen.append(v)
        if len(chosen) < m - 1:
            raise GenerationError(f"could not build {m - 1} distinct distractors for beta={beta}")

        gold = format_number(beta)
        reasoning = (
            f"1 {_label(kb, u1)} equals {gold} {_label(kb, u2)}: the conversion values are "
            f"{format_number(kb.unit(u1).conversion_val)} and {format_number(kb.unit(u2).conversion_val)}."
        )
        prompt = {
            "from_unit": u1,
            "to_unit": u2,
            "question": f"1 {_label(kb, u1)} = ? {_label(kb, u2)}",
        }
        return prompt, gold, [format_number(v) for v in chosen], reasoning, gold

    return _instances(kb, "unit_conversion", rng, n, m, draw)


# ---------------------------------------------------------------------------
# Registry: one entry per task family, in output order.  Both maps hold
# the functions themselves, so wrappers installed by identity (profilers,
# tracers) also see the calls dispatched through them.

GENERATORS = {
    "kind_match": gen_kind_match,
    "comparable": gen_comparable,
    "dimension_prediction": gen_dimension_prediction,
    "dimension_arithmetic": gen_dimension_arithmetic,
    "magnitude_comparison": gen_magnitude_comparison,
    "unit_conversion": gen_unit_conversion,
}

ORACLES = {
    "kind_match": _kind_match_oracle,
    "comparable": _comparable_oracle,
    "dimension_prediction": _dimension_prediction_oracle,
    "dimension_arithmetic": _dimension_arithmetic_oracle,
    "magnitude_comparison": _magnitude_comparison_oracle,
    "unit_conversion": _unit_conversion_oracle,
}

TASK_TYPES = tuple(GENERATORS)
