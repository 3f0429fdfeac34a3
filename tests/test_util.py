import string

from hypothesis import given, settings
from hypothesis import strategies as st

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
