"""Run one dimkit CLI command in-process, optionally traced.

    python3 perfbench/incli.py --stats OUT.json [--trace] -- <dimkit args...>

Writes ``{"exit": code, "wall_s": seconds}`` to OUT.json.  With
``--trace`` it first wraps the functions named in :data:`FUNCTIONS` in
every dimkit module namespace (and module-level registry) that refers
to them, and adds per-function calls, self time, per-call durations
(for per-item functions) and counters.

Two kinds of wrapped function:

* span functions are the layer boundaries.  Each call keeps a span
  (name, parent span, start, end) in memory; the spans are written next
  to OUT.json as ``OUT.spans.jsonl``.  Their self time is the span's
  duration minus the time of its child spans.
* helpers are the hot inner functions (Levenshtein, cosine, surface
  normalization, dimension algebra, ...).  They are counted and timed,
  but keep no span, and their time stays inside the self time of the
  span that called them; a helper's own self time excludes only the
  helpers nested in it.  Span self times therefore add up to the traced
  wall time, and helper self times break one span's time down further.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (metric name, module, attribute path, per-item, span function)
FUNCTIONS = (
    ("linking.candidate_generation", "dimkit.linking", "candidate_generation", True, True),
    ("linking.mention_similarity", "dimkit.linking", "mention_similarity", False, False),
    ("linking.levenshtein", "dimkit.linking", "levenshtein", False, False),
    ("linking.context_score", "dimkit.linking", "context_score", True, True),
    ("linking.link", "dimkit.linking", "link", True, True),
    ("kb.load_kb", "dimkit.kb", "load_kb", False, True),
    ("kb.units_of_dimension", "dimkit.kb", "units_of_dimension", False, False),
    ("kb.conversion_factor", "dimkit.kb", "conversion_factor", False, False),
    ("embeddings.vector", "dimkit.embeddings", "TrigramHashEmbedding.vector", False, False),
    ("embeddings.cosine", "dimkit.embeddings", "cosine", False, False),
    ("quantity_text.extract_quantities", "dimkit.quantity_text", "extract_quantities", True, True),
    ("quantity_text.annotate_corpus", "dimkit.quantity_text", "annotate_corpus", False, True),
    ("quantity_text.predict", "dimkit.quantity_text", "ConstantOracle.predict", True, True),
    ("mwp.augment_context_format", "dimkit.mwp", "augment_context_format", True, True),
    ("mwp.augment_context_dimension", "dimkit.mwp", "augment_context_dimension", True, True),
    ("mwp.augment_question_format", "dimkit.mwp", "augment_question_format", True, True),
    ("mwp.augment_question_dimension", "dimkit.mwp", "augment_question_dimension", True, True),
    ("mwp.annotate_problem", "dimkit.mwp", "annotate_problem", True, True),
    ("mwp.find_unit_mentions", "dimkit.mwp", "find_unit_mentions", False, True),
    ("mwp.evaluate_equation", "dimkit.mwp", "evaluate_equation", False, False),
    ("tasks.gen_kind_match", "dimkit.tasks", "gen_kind_match", False, True),
    ("tasks.gen_comparable", "dimkit.tasks", "gen_comparable", False, True),
    ("tasks.gen_dimension_prediction", "dimkit.tasks", "gen_dimension_prediction", False, True),
    ("tasks.gen_dimension_arithmetic", "dimkit.tasks", "gen_dimension_arithmetic", False, True),
    ("tasks.gen_magnitude_comparison", "dimkit.tasks", "gen_magnitude_comparison", False, True),
    ("tasks.gen_unit_conversion", "dimkit.tasks", "gen_unit_conversion", False, True),
    ("tasks.verify_instance", "dimkit.tasks", "verify_instance", True, False),
    ("tasks.expression_dimension", "dimkit.tasks", "expression_dimension", False, False),
    ("dimension.parse_dimension", "dimkit.dimension", "parse_dimension", False, False),
    ("dimension.format_dimension", "dimkit.dimension", "format_dimension", False, False),
    ("dimension.is_comparable", "dimkit.dimension", "is_comparable", False, False),
    ("dimension.mul", "dimkit.dimension", "DimensionVector.__mul__", False, False),
    ("dimension.div", "dimkit.dimension", "DimensionVector.__truediv__", False, False),
    ("bootstrap.triplets_with_object_containing", "dimkit.bootstrap",
     "InMemoryTripletStore.triplets_with_object_containing", True, True),
    ("bootstrap.triplets_with_predicate", "dimkit.bootstrap",
     "InMemoryTripletStore.triplets_with_predicate", False, False),
    ("bootstrap.object_contains", "dimkit.bootstrap", "object_contains", False, False),
    ("bootstrap.load_triplets", "dimkit.bootstrap", "load_triplets", False, True),
    ("cli.cmd_annotate", "dimkit.cli", "cmd_annotate", False, True),
    ("cli.cmd_augment", "dimkit.cli", "cmd_augment", False, True),
    ("cli.cmd_gen_tasks", "dimkit.cli", "cmd_gen_tasks", False, True),
    ("cli.cmd_bootstrap", "dimkit.cli", "cmd_bootstrap", False, True),
    ("util.normalize_surface", "dimkit.util", "normalize_surface", False, False),
)


class Stat:
    __slots__ = ("calls", "self_s", "errors", "truthy", "durations")

    def __init__(self, per_item: bool):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.truthy = 0
        self.durations = [] if per_item else None


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds, span index]
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.kbs: list = []
        self.scored: set = set()

    def wrap(self, name: str, fn, per_item: bool, is_span: bool):
        stat = self.stats[name] = Stat(per_item)
        before, after = HOOKS.get(name, (None, None))
        stack, spans, edges, clock = self.stack, self.spans, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                edges[parent[0], name] += 1
            state = before(self, args) if before else None
            span = None
            if is_span:
                span = len(spans)
                parent_span = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                spans.append([name, parent_span, 0.0, 0.0])
            frame = [name, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if parent is not None and (is_span or parent[2] is None):
                    parent[1] += duration
                if stat.durations is not None:
                    stat.durations.append(duration)
                if span is not None:
                    spans[span][2:] = (start, end)
            if result is True:
                stat.truthy += 1
            if after:
                after(self, args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in sorted({f[1] for f in FUNCTIONS} | {"dimkit.cli"})]
        for name, module, path, per_item, is_span in FUNCTIONS:
            owner = importlib.import_module(module)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), per_item, is_span))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, per_item, is_span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        value.update({k: traced for k, v in value.items() if v is original})

    def report(self) -> dict:
        return {
            "functions": {
                name: {
                    "calls": s.calls,
                    "self_s": s.self_s,
                    "errors": s.errors,
                    "truthy": s.truthy,
                    "durations": s.durations,
                }
                for name, s in self.stats.items()
            },
            "edges": {f"{p} > {c}": n for (p, c), n in self.edges.items()},
            "counters": dict(self.counters),
            "kb_units": max((len(kb) for kb in self.kbs), default=0),
            "match_cache_entries": max((len(kb.match_cache) for kb in self.kbs), default=0),
        }


# ---------------------------------------------------------------------------
# Counter hooks: (before(tracer, args) -> state, after(tracer, args, result, state))


def _cg_before(t, args):
    return len(args[0].match_cache)


def _cg_after(t, args, result, size_before):
    if len(args[0].match_cache) > size_before:
        t.counters["candidate_generation.admitted_on_miss"] += len(result)
    else:
        t.counters["candidate_generation.cache_hits"] += 1


def _link_after(t, args, result, state):
    t.counters["link.candidates"] += len(result)


def _cs_before(t, args):
    key = (args[0], args[1].unit_id)
    if key in t.scored:
        t.counters["context_score.repeats"] += 1
    else:
        t.scored.add(key)


def _vector_before(t, args):
    if args[1].lower() in args[0]._cache:
        t.counters["vector.cache_hits"] += 1


def _eq_before(t, args):
    return t.stats["linking.link"].calls


def _eq_after(t, args, result, link_calls_before):
    t.counters["extract_quantities.links"] += t.stats["linking.link"].calls - link_calls_before
    t.counters["extract_quantities.values"] += len(result)
    t.counters["extract_quantities.linked_values"] += sum(m.linked_unit is not None for m in result)


def _load_kb_after(t, args, result, state):
    t.kbs.append(result)


def _gen_arith_after(t, args, result, state):
    t.counters["dimension_arithmetic.instances"] += len(result)


HOOKS = {
    "linking.candidate_generation": (_cg_before, _cg_after),
    "linking.link": (None, _link_after),
    "linking.context_score": (_cs_before, None),
    "embeddings.vector": (_vector_before, None),
    "quantity_text.extract_quantities": (_eq_before, _eq_after),
    "kb.load_kb": (None, _load_kb_after),
    "tasks.gen_dimension_arithmetic": (None, _gen_arith_after),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from dimkit import cli

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    out = {"exit": code, "wall_s": wall}
    if tracer:
        out.update(tracer.report())
        with open(args.stats + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for i, (name, parent, s, e) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "start": s, "end": e}) + "\n")
    Path(args.stats).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
