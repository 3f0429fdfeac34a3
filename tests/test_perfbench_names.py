"""The traced benchmark wraps dimkit functions by name.

``perfbench/incli.py --trace`` looks up each ``(module, attribute path)``
in its FUNCTIONS table and its counter hooks read two attributes of the
objects they see; a rename or deletion in dimkit would make the traced
run fail with AttributeError.  The harness is loaded read-only here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dimkit import TrigramHashEmbedding

INCLI = Path(__file__).resolve().parent.parent / "perfbench" / "incli.py"


def _load_incli():
    spec = importlib.util.spec_from_file_location("perfbench_incli", INCLI)
    module = importlib.util.module_from_spec(spec)
    # read-only: no bytecode cache is written under perfbench/
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


FUNCTIONS = _load_incli().FUNCTIONS


@pytest.mark.parametrize("module,path", [f[1:3] for f in FUNCTIONS], ids=[f[0] for f in FUNCTIONS])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_hooked_attributes_exist(kb):
    assert isinstance(kb.match_cache, dict)
    assert isinstance(TrigramHashEmbedding()._cache, dict)
