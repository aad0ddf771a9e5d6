"""Property-based differential tests of the exact determinant kernels.

Both pencil methods are compared with the permutation-expansion oracle in
conftest, on Seifert matrices of generated codes and on generated integer
matrices that are not triangular, as flattened diagrams can produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from flatbasket import alexander, pencil_determinant, seifert_matrix
from flatbasket.codes import FlatBasketCode, rotated
from flatbasket.search import _mirror_word
from flatbasket.seifert import SeifertMatrix
from conftest import leibniz_pencil_det

# derandomized and without an example database, so runs are reproducible
# and leave no files behind
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def codes(max_bands: int):
    return st.integers(1, max_bands).flatmap(
        lambda n: st.permutations([label for label in range(1, n + 1) for _ in range(2)])
    ).map(lambda word: FlatBasketCode(tuple(word)))


@st.composite
def integer_matrices(draw, max_size: int = 7):
    n = draw(st.integers(0, max_size))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return SeifertMatrix(tuple(tuple(row) for row in rows))


@PROPERTY
@given(codes(7))
def test_pencil_methods_match_leibniz_on_codes(code):
    v = seifert_matrix(code)
    expected = leibniz_pencil_det(v)
    assert pencil_determinant(v, "fraction_free").coeffs == expected
    assert pencil_determinant(v, "eval_interp").coeffs == expected


@PROPERTY
@given(integer_matrices())
def test_pencil_methods_match_leibniz_on_integer_matrices(v):
    expected = leibniz_pencil_det(v)
    assert pencil_determinant(v, "fraction_free").coeffs == expected
    assert pencil_determinant(v, "eval_interp").coeffs == expected


@PROPERTY
@given(codes(7), st.integers(0, 13))
def test_alexander_invariant_under_rotation_and_mirror(code, shift):
    base = alexander(code, checked=True).normalized
    assert alexander(rotated(code, shift)).normalized == base
    mirror = FlatBasketCode(_mirror_word(code.word, code.n))
    assert alexander(mirror, checked=True).normalized == base
