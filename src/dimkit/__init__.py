"""dimkit: a dimensional-quantity engine.

Units-of-measure knowledge base with dimension-vector algebra,
probabilistic unit linking, quantity extraction from text, oracle-verified
benchmark task generation, and quantity-oriented augmentation of math
word problems.
"""

from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    InMemoryTripletStore,
    Triplet,
    bootstrap_retrieve,
    load_triplets,
    render_triplet_sentence,
)
from .dimension import (
    DIMENSIONLESS,
    DimensionVector,
    dim_div,
    dim_mul,
    dim_pow,
    format_dimension,
    format_symbolic,
    is_comparable,
    parse_dimension,
)
from .embeddings import TrigramHashEmbedding, WordVectorEmbedding
from .kb import (
    FrequencyWeights,
    KnowledgeBase,
    QuantityKind,
    UnitRecord,
    compute_frequency,
    conversion_factor,
    kind_frequency,
    load_frequency_sidecar,
    load_kb,
    lookup_surface,
    units_of_dimension,
)
from .linking import (
    LinkCandidate,
    Mention,
    candidate_generation,
    context_score,
    levenshtein,
    link,
    mention_similarity,
)
from .mwp import (
    AugmentationRecord,
    MwpProblem,
    annotate_problem,
    augment_context_dimension,
    augment_context_format,
    augment_dataset,
    augment_question_dimension,
    augment_question_format,
    evaluate_equation,
    find_unit_mentions,
    load_problems,
    tokenize_equation,
)
from .quantity_text import (
    AnnotatedSentence,
    ConstantOracle,
    QuantityMention,
    annotate_corpus,
    apply_review,
    extract_quantities,
    extract_values,
    rule_annotate,
    value_units,
)
from .scoring import (
    Prediction,
    score_predictions,
    score_quantity_extraction,
)
from .tasks import (
    TaskInstance,
    gen_comparable,
    gen_dimension_arithmetic,
    gen_dimension_prediction,
    gen_kind_match,
    gen_magnitude_comparison,
    gen_unit_conversion,
    verify_instance,
)

__version__ = "0.1.0"
