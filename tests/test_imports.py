"""Every module-level import in src/dimkit is used by its module, no
module imports numpy at all, and the package's public names resolve
lazily.

No linter ships with the package, and deleting a function easily leaves
the imports only it needed behind.  Both embedders compute in plain
Python, so no command pays for numpy.  ``import dimkit`` imports no
submodule: ``__init__.py`` resolves each public name on first use.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dimkit"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Any, Callable\nsys.exit(Callable)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Any"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def numpy_imports(source: str) -> list[int]:
    """Lines that import numpy anywhere: at module level, in a function
    body, or under ``if TYPE_CHECKING:``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_an_eager_numpy_import():
    """It flags every numpy import, eager or lazy, and nothing else."""
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n    import numpy\n"
        "try:\n    from numpy.linalg import norm\nexcept ImportError:\n    pass\n"
        "def f():\n    import numpy\n"
        "class C:\n    import numpy\n    def g(self):\n        from numpy import dot\n"
        "import numpyish, os.numpy\n"
    )
    assert numpy_imports(source) == [2, 4, 6, 10, 12, 14]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_is_imported_lazily(path):
    """No module imports numpy, lazily or not."""
    assert numpy_imports(path.read_text(encoding="utf-8")) == []


# The 68 public names of the dimkit package, by defining module.
PUBLIC = {
    "bootstrap": "BootstrapResult InMemoryTripletStore Triplet "
    "bootstrap_retrieve load_triplets render_triplet_sentence",
    "dimension": "DIMENSIONLESS DimensionVector format_dimension "
    "format_symbolic is_comparable parse_dimension",
    "embeddings": "TrigramHashEmbedding WordVectorEmbedding",
    "kb": "KnowledgeBase QuantityKind UnitRecord compute_frequency "
    "conversion_factor kind_frequency load_frequency_sidecar load_kb lookup_surface "
    "units_of_dimension",
    "linking": "LinkCandidate candidate_generation context_score levenshtein link "
    "mention_similarity",
    "mwp": "AugmentationRecord MwpProblem annotate_problem augment_context_dimension "
    "augment_context_format augment_dataset augment_question_dimension augment_question_format "
    "evaluate_equation find_unit_mentions load_problems tokenize_equation",
    "quantity_text": "AnnotatedSentence ConstantOracle QuantityMention annotate_corpus "
    "apply_review extract_quantities extract_values rule_annotate value_units",
    "scoring": "Prediction score_predictions score_quantity_extraction",
    "tasks": "TaskInstance gen_comparable gen_dimension_arithmetic gen_dimension_prediction "
    "gen_kind_match gen_magnitude_comparison gen_unit_conversion verify_instance",
}
PUBLIC_NAMES = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_public_names_are_pinned():
    import dimkit

    assert len(PUBLIC_NAMES) == 62
    assert sorted(dimkit.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(dimkit))


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_public_name_is_its_modules_object(name):
    import dimkit

    defining = importlib.import_module(f"dimkit.{PUBLIC_NAMES[name]}")
    assert getattr(dimkit, name) is getattr(defining, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dimkit import *", namespace)
    for name, module in PUBLIC_NAMES.items():
        assert namespace[name] is getattr(importlib.import_module(f"dimkit.{module}"), name)


def test_unknown_name_is_an_attribute_error():
    import dimkit

    with pytest.raises(AttributeError):
        dimkit.no_such_name  # noqa: B018
    assert not hasattr(dimkit, "numpy")


def test_import_dimkit_loads_no_submodule_until_used():
    script = (
        "import sys, dimkit\n"
        "before = sorted(m for m in sys.modules if m.startswith('dimkit.'))\n"
        "dimkit.kb.load_kb, dimkit.link\n"
        "after = sorted(m for m in sys.modules if m.startswith('dimkit.'))\n"
        "print(before, 'dimkit.kb' in after, 'dimkit.linking' in after)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "[] True True\n", proc.stderr
