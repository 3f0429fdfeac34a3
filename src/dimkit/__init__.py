"""dimkit: a dimensional-quantity engine.

Units-of-measure knowledge base with dimension-vector algebra,
probabilistic unit linking, quantity extraction from text, oracle-verified
benchmark task generation, and quantity-oriented augmentation of math
word problems.

The public names below are resolved on first access (PEP 562), so
``import dimkit`` loads no submodule and each command of
:mod:`dimkit.cli` imports only the modules it runs.  ``dimkit.<module>``
imports that submodule on first access.
"""

import importlib

# Public names by defining module: the one table __getattr__ resolves from.
_EXPORTS = {
    "bootstrap": (
        "BootstrapResult",
        "InMemoryTripletStore",
        "Triplet",
        "bootstrap_retrieve",
        "load_triplets",
        "render_triplet_sentence",
    ),
    "dimension": (
        "DIMENSIONLESS",
        "DimensionVector",
        "format_dimension",
        "format_symbolic",
        "is_comparable",
        "parse_dimension",
    ),
    "embeddings": ("TrigramHashEmbedding", "WordVectorEmbedding"),
    "kb": (
        "KnowledgeBase",
        "QuantityKind",
        "UnitRecord",
        "compute_frequency",
        "conversion_factor",
        "kind_frequency",
        "load_frequency_sidecar",
        "load_kb",
        "lookup_surface",
        "units_of_dimension",
    ),
    "linking": (
        "LinkCandidate",
        "candidate_generation",
        "context_score",
        "levenshtein",
        "link",
        "mention_similarity",
    ),
    "mwp": (
        "AugmentationRecord",
        "MwpProblem",
        "annotate_problem",
        "augment_context_dimension",
        "augment_context_format",
        "augment_dataset",
        "augment_question_dimension",
        "augment_question_format",
        "evaluate_equation",
        "find_unit_mentions",
        "load_problems",
        "tokenize_equation",
    ),
    "quantity_text": (
        "AnnotatedSentence",
        "ConstantOracle",
        "QuantityMention",
        "annotate_corpus",
        "apply_review",
        "extract_quantities",
        "extract_values",
        "rule_annotate",
        "value_units",
    ),
    "scoring": ("Prediction", "score_predictions", "score_quantity_extraction"),
    "tasks": (
        "TaskInstance",
        "gen_comparable",
        "gen_dimension_arithmetic",
        "gen_dimension_prediction",
        "gen_kind_match",
        "gen_magnitude_comparison",
        "gen_unit_conversion",
        "verify_instance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "util"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
