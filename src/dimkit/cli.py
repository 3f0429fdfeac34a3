"""Batch command-line surface.

Subcommands: convert, link, dim, gen-tasks, annotate, bootstrap,
augment, score.  All randomness flows from --seed through per-sub-task
derived sub-seeds; every seeded command is bit-reproducible.  No
command writes to an output path on failure: every output is built in
memory first, then all are committed together.

Exit codes:
    0  success
    1  empty result (link)
    2  incomparable units
    3  unresolvable unit
    4  data or validation error
    5  generation / augmentation error
    64 usage error

The KB path resolves as --kb flag > DIMKIT_KB env var > packaged
fixture KB.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the modules only it runs (tasks, mwp, bootstrap,
# quantity_text, scoring, the embedders), so convert and gen-tasks
# without annotation never load the ones they do not run.
from .dimension import format_symbolic
from .errors import (
    AugmentationError,
    DimkitError,
    GenerationError,
    IncomparableUnitsError,
    InputError,
    UnitResolutionError,
)
from .kb import KnowledgeBase, conversion_factor, load_kb, lookup_surface
from .linking import DEFAULT_THRESHOLD, candidate_generation, check_surface, check_threshold, link, rank_key
from .util import derive_rng, format_number, jsonl_lines, read_lines, read_records, write_lines

if TYPE_CHECKING:
    from .bootstrap import BootstrapResult
    from .quantity_text import MaskedFillOracle

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_INCOMPARABLE = 2
EXIT_UNRESOLVABLE = 3
EXIT_DATA = 4
EXIT_GENERATION = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def default_kb_path() -> Path:
    env = os.environ.get("DIMKIT_KB")
    if env:
        return Path(env)
    return packaged_data("units.tsv")


def packaged_data(name: str) -> Path:
    return Path(__file__).parent / "data" / name


def _load_kb(args) -> KnowledgeBase:
    return load_kb(args.kb if args.kb else default_kb_path())


def _embedder(spec: str):
    from .embeddings import TrigramHashEmbedding, WordVectorEmbedding

    if spec == "trigram":
        return TrigramHashEmbedding()
    return WordVectorEmbedding(spec.split(":", 1)[1])  # main checked the spec


def _oracle(spec: str) -> MaskedFillOracle:
    from . import quantity_text as qt

    if spec.startswith("constant:"):
        return qt.ConstantOracle(spec.split(":", 1)[1])
    if spec.startswith("command:"):
        import shlex

        try:
            argv = shlex.split(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DimkitError(f"bad oracle command {spec!r}: {exc}") from None
        if not argv:
            raise DimkitError(f"oracle spec {spec!r} names no command")
        # a command that cannot start is a configuration error, not a
        # per-mention oracle failure
        if shutil.which(argv[0]) is None:
            raise DimkitError(f"oracle command {argv[0]!r} is not an executable file")
        return qt.CommandOracle(argv)
    raise DimkitError(f"unknown oracle spec {spec!r} (use 'constant:TOKEN' or 'command:CMD')")


def _resolve_unit(kb, surface: str, threshold: float) -> str:
    """The unit a context-free surface names: its one exact owner, else
    the top of :func:`link`'s ranking.  Without context every context
    score is 1.0, so that ranking needs no embedder: it is
    candidate_generation's output under link's own key."""
    exact = sorted(lookup_surface(kb, surface))
    if len(exact) == 1:
        return exact[0]
    check_surface(surface)
    best = min(candidate_generation(kb, surface, threshold), key=rank_key, default=None)
    if best is None:
        raise UnitResolutionError(f"cannot resolve unit {surface!r}")
    return best.unit_id


# ---------------------------------------------------------------------------
# Commands


def cmd_convert(args) -> int:
    if not math.isfinite(args.value):
        raise InputError(f"value must be finite, got {args.value}")
    kb = _load_kb(args)
    u1 = _resolve_unit(kb, args.from_unit, args.threshold)
    u2 = _resolve_unit(kb, args.to_unit, args.threshold)
    try:
        beta = conversion_factor(kb, u1, u2)
    except IncomparableUnitsError as exc:
        print(f"{format_symbolic(exc.dim_a)} vs {format_symbolic(exc.dim_b)}")
        return EXIT_INCOMPARABLE
    result = args.value * beta
    if not math.isfinite(result):
        raise InputError(f"{args.value} {args.from_unit} overflows a float in {args.to_unit}")
    if result == 0.0 and args.value != 0.0:
        raise InputError(f"{args.value} {args.from_unit} underflows a float in {args.to_unit}")
    print(f"{format_number(result)} {args.to_unit}")
    return EXIT_OK


def cmd_link(args) -> int:
    if args.top_k < 1:
        raise InputError(f"--top-k must be >= 1, got {args.top_k}")
    kb = _load_kb(args)
    emb = _embedder(args.embedder)
    ranked = link(kb, args.surface, args.context, emb, args.threshold)
    if not ranked:
        print(f"no candidates for {args.surface!r}", file=sys.stderr)
        return EXIT_EMPTY
    print("unit_id\tprior\tp_mention\tp_context\tscore")
    for c in ranked[: args.top_k]:
        print(f"{c.unit_id}\t{c.prior:.6f}\t{c.p_mention:.6f}\t{c.p_context:.6f}\t{c.score:.6g}")
    return EXIT_OK


def cmd_dim(args) -> int:
    kb = _load_kb(args)
    import re as _re

    parts = [p for p in _re.split(r"\s*([*/×÷])\s*", args.expression.strip()) if p]
    terms, ops = parts[0::2], parts[1::2]
    if not terms or len(ops) != len(terms) - 1:
        print(f"error: cannot parse expression {args.expression!r}", file=sys.stderr)
        return EXIT_USAGE
    unit_ids = [_resolve_unit(kb, t, args.threshold) for t in terms]
    from .tasks import expression_dimension

    dim = expression_dimension(kb, unit_ids, ops)
    print(format_symbolic(dim))
    matches = kb.units_with_dimension(dim)
    if matches:
        print("matching units: " + ", ".join(f"{u} ({kb.unit(u).label_en})" for u in matches))
    else:
        print("matching units: (none)")
    return EXIT_OK


def cmd_gen_tasks(args) -> int:
    from . import tasks

    kb = _load_kb(args)
    m = tasks.DEFAULT_CANDIDATES if args.m is None else args.m
    wanted = list(tasks.TASK_TYPES) if args.task_type == "all" else [args.task_type]

    options = {"dimension_arithmetic": {"max_terms": args.max_terms}}
    if "dimension_prediction" in wanted:
        from . import quantity_text as qt

        if args.annotated:
            annotated = read_records(args.annotated, qt.AnnotatedSentence.from_dict)
        else:
            corpus = read_lines(packaged_data("corpus_sample.txt"))
            emb = _embedder(args.embedder)
            annotated, _ = qt.annotate_corpus(corpus, kb, emb, qt.ConstantOracle("5"), args.threshold)
        options["dimension_prediction"] = {"annotated": annotated}

    instances: list[tasks.TaskInstance] = []
    for task_type in wanted:
        rng = derive_rng(args.seed, "gen-tasks", task_type)
        extra = options.get(task_type, {})
        instances += tasks.GENERATORS[task_type](kb=kb, rng=rng, n=args.n, m=m, **extra)
    write_lines((args.output, jsonl_lines(instances)))
    return EXIT_OK


def cmd_annotate(args) -> int:
    from . import quantity_text as qt

    kb = _load_kb(args)
    emb = _embedder(args.embedder)
    corpus = read_lines(args.corpus)
    if args.apply_review:
        rule = qt.rule_annotate(corpus, kb, emb, args.threshold)
        reviewed = qt.apply_review(rule, qt.load_review(args.apply_review))
        sentences, review_rows = reviewed, []
    else:
        sentences, review_rows = qt.annotate_corpus(
            corpus, kb, emb, _oracle(args.oracle), args.threshold
        )
    outputs = [(args.output, jsonl_lines(sentences))]
    if args.review and review_rows:
        outputs.append((args.review, qt.review_lines(review_rows)))
    write_lines(*outputs)
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    from . import bootstrap as bootstrap_mod

    kb = _load_kb(args)
    store = bootstrap_mod.load_triplets(args.store)
    result = bootstrap_mod.bootstrap_retrieve(
        store, kb, args.tau, args.iters, args.seed_units, args.threshold
    )
    write_lines((args.output, [_bootstrap_json(result)]))
    return EXIT_OK


def _bootstrap_json(result: BootstrapResult) -> str:
    """json.dumps of {"triplets", "predicates", "mentions"} with
    ensure_ascii=False and indent=2, assembled with the C string encoder
    (dumps with an indent encodes every string in Python)."""
    enc = json.encoder.encode_basestring

    def array(items: list[str], indent: str) -> str:
        inner = "\n" + indent + "  "
        return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]" if items else "[]"

    # array(list(map(enc, t)), "    ") inlined: a triplet is never empty
    row = ",\n      ".join
    triplets = ["[\n      " + row(map(enc, t)) + "\n    ]" for t in result.triplets]
    predicates = list(map(enc, sorted(result.predicates)))
    mentions = list(map(enc, sorted(result.mentions)))
    return (
        f'{{\n  "triplets": {array(triplets, "  ")},\n  "predicates": {array(predicates, "  ")},'
        f'\n  "mentions": {array(mentions, "  ")}\n}}'
    )


def cmd_augment(args) -> int:
    from . import mwp as mwp_mod

    kb = _load_kb(args)
    emb = _embedder(args.embedder)
    problems = mwp_mod.load_problems(args.dataset)
    mix = None
    if args.methods is not None:
        mix = {name: 1.0 for name in args.methods.split(",") if name}
    rng = derive_rng(args.seed, "augment")
    out, records, failures = mwp_mod.augment_dataset(
        problems, kb, rng, args.eta, mix, emb, args.threshold, append=args.append
    )
    outputs = [(args.output, jsonl_lines(out))]
    if args.records:
        outputs.append((args.records, jsonl_lines(records)))
    write_lines(*outputs)
    for f in failures:
        print(f"skip {f.problem_id} [{f.method}]: {f.reason}", file=sys.stderr)
    return EXIT_OK


def cmd_score(args) -> int:
    from . import quantity_text as qt
    from . import scoring
    from .tasks import TaskInstance

    codec = None  # the first record decides the gold file's kind

    def decode(d: dict):
        nonlocal codec
        codec = codec or (TaskInstance if "task_type" in d else qt.AnnotatedSentence)
        return codec.from_dict(d)

    gold = read_records(args.gold, decode)
    if not gold:
        print("error: empty gold file", file=sys.stderr)
        return EXIT_DATA
    if codec is TaskInstance:
        preds = read_records(args.predictions, scoring.Prediction.from_dict)
        metrics = scoring.score_predictions(gold, preds)
        print("task\ttotal\tanswered\tcorrect\tprecision\trecall\tf1\taccuracy")
        for name, m in metrics.items():
            flag = " (no answers)" if m.degenerate else ""
            print(
                f"{name}\t{m.total}\t{m.answered}\t{m.correct}"
                f"\t{m.precision:.4f}\t{m.recall:.4f}\t{m.f1:.4f}\t{m.accuracy:.4f}{flag}"
            )
    else:
        preds = read_records(args.predictions, qt.AnnotatedSentence.from_dict)
        metrics = scoring.score_quantity_extraction(gold, preds)
        print("subtask\tgold\tpredicted\tmatched\tprecision\trecall\tf1")
        for name, m in metrics.items():
            print(
                f"{name}\t{m.gold_count}\t{m.predicted_count}\t{m.matched}"
                f"\t{m.precision:.4f}\t{m.recall:.4f}\t{m.f1:.4f}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


class _TaskTypes:
    """gen-tasks' task_type choices: the task families, then "all".  They
    are read from dimkit.tasks only when argparse checks or prints them,
    so commands other than gen-tasks never load the generators."""

    def __iter__(self):
        from .tasks import TASK_TYPES

        return iter((*TASK_TYPES, "all"))


def build_parser() -> _Parser:
    parser = _Parser(prog="dimkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--kb", help="KB file path (default: $DIMKIT_KB or the packaged KB)")
    parser.add_argument("--embedder", default="trigram", help="'trigram' or 'vectors:PATH'")
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD, help="candidate similarity threshold"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a value between units")
    p.add_argument("value", type=float)
    p.add_argument("from_unit")
    p.add_argument("to_unit")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("link", help="rank KB units for a mention")
    p.add_argument("surface")
    p.add_argument("--context", default="")
    p.add_argument("--top-k", type=int, default=5)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("dim", help="dimension of a unit expression, e.g. 'Joule * Meter'")
    p.add_argument("expression")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("gen-tasks", help="generate benchmark task instances")
    # set after add_argument, whose metavar check would iterate the choices
    p.add_argument("task_type").choices = _TaskTypes()
    p.add_argument("-n", type=int, default=100, help="instances per task type")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-m", type=int, help="candidates per instance")
    p.add_argument("--max-terms", type=int, default=3, help="max units per arithmetic expression")
    p.add_argument(
        "--annotated",
        help="annotated sentences (JSONL) for dimension_prediction; "
        "default: annotate the packaged sample corpus with a constant numeric stub",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_tasks)

    p = sub.add_parser("annotate", help="run the annotation pipeline over a corpus")
    p.add_argument("corpus")
    p.add_argument("--oracle", default="constant:5", help="'constant:TOKEN' or 'command:CMD'")
    p.add_argument("--review", help="write filter decisions to this TSV")
    p.add_argument("--apply-review", help="re-apply an edited review TSV instead of filtering")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("bootstrap", help="bootstrapping retrieval over a triplet store")
    p.add_argument("store", help="TSV of (subject, predicate, object)")
    p.add_argument("--tau", type=float, default=0.8)
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--seed-units", type=int, default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("augment", help="quantity-oriented MWP augmentation")
    p.add_argument("dataset", help="problems JSONL")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--methods", help="comma-separated method subset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--append", action="store_true", help="append augmented copies (2x output)")
    p.add_argument("--records", help="write augmentation records JSONL here")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("score", help="score predictions against gold")
    p.add_argument("gold")
    p.add_argument("predictions")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked here: some commands never generate candidates or build an embedder
        check_threshold(args.threshold)
        if args.embedder != "trigram" and not args.embedder.startswith("vectors:"):
            raise InputError(
                f"unknown embedder spec {args.embedder!r} (use 'trigram' or 'vectors:PATH')"
            )
        return args.func(args)
    except (GenerationError, AugmentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except UnitResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVABLE
    except (DimkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """Entry point of ``python -m dimkit.cli`` and the ``dimkit`` script.

    Runs :func:`main`, flushes stdout and stderr, and leaves with
    ``os._exit``: every output is complete by then, so the interpreter's
    teardown would only free memory.  When a flush fails, or a tracer
    or profiler is attached (cProfile, coverage, debuggers) and must
    see the normal exit, it leaves through ``sys.exit`` instead.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    monitoring = getattr(sys, "monitoring", None)  # the 3.12+ tracing hooks
    if (
        type(code) is int
        and sys.gettrace() is None
        and sys.getprofile() is None
        and not (monitoring and any(monitoring.get_tool(i) for i in range(6)))
    ):
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None: the descriptor was closed at start-up
                    stream.flush()
        except (OSError, ValueError):  # a broken pipe or a full disk: report it as usual
            sys.exit(code)
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
