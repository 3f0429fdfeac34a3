import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimkit.bootstrap import load_triplets
from dimkit.errors import InputError
from dimkit.kb import load_frequency_sidecar, load_kb
from dimkit.quantity_text import load_review
from dimkit.util import normalize_surface

# ASCII letters, combining diacritics (weighted towards the marks that
# compose with a lowercase letter but not with its capital, as in
# U+1E98), the two letterlike signs with singleton decompositions, CJK,
# and ASCII/Unicode whitespace.
_LETTER = st.sampled_from(string.ascii_letters)
_MARK = st.one_of(
    st.sampled_from("\u030a\u030c\u0308\u0331"),
    st.characters(min_codepoint=0x0300, max_codepoint=0x036F),
)
_OTHER = st.sampled_from("\u212a\u212b千克米秒度 \t\n\u2003\u3000")
_MIXED = st.lists(
    st.one_of(_LETTER, _MARK, st.tuples(_LETTER, _MARK).map("".join), _OTHER), max_size=12
).map("".join)


class TestNormalizeSurface:
    def test_examples(self):
        assert normalize_surface("  75\tKG ") == "75 kg"
        assert normalize_surface("\u212a") == "k"  # KELVIN SIGN
        assert normalize_surface("\u212b") == "\u00c5"  # ANGSTROM SIGN; the fold is ASCII only
        assert normalize_surface("W\u030a") == "\u1e98"

    @given(_MIXED)
    @settings(max_examples=400)
    def test_idempotent(self, text):
        once = normalize_surface(text)
        assert normalize_surface(once) == once


_KB_ROW = "X\t\tx\t\t\t\tk\t{freq}\tLength\tA0E0L1I0M0H0T0D0\t1"


@pytest.mark.parametrize(
    "load,good,bad",
    [
        (load_kb, _KB_ROW.format(freq="0.5"), "X\t\tx\t\t\t\tk"),
        (load_kb, _KB_ROW.format(freq="0.5"), _KB_ROW.format(freq="abc")),
        (load_frequency_sidecar, "M\t1\t2\t3", "M\t1\t2"),
        (load_frequency_sidecar, "M\t1\t2\t3", "M\t1\tabc\t3"),
        (load_frequency_sidecar, "M\t1\t2\t3", "M\t4\t5\t6"),
        (load_triplets, "a\tb\tc", "a\tb"),
        (load_review, "1\t0-3\tabc\tkept:numeric", "1\t0-3\tabc"),
        (load_review, "1\t0-3\tabc\tkept:numeric", "1\t0-x\tabc\tkept:numeric"),
    ],
    ids=["kb-fields", "kb-number", "sidecar-fields", "sidecar-number", "sidecar-duplicate", "triplet-fields",
         "review-fields", "review-number"],
)
def test_malformed_tsv_line_names_file_and_line(tmp_path, load, good, bad):
    path = tmp_path / "input.tsv"
    path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: line 3: ")
