"""Parsing, canonical forms, and surface statistics of basket codes."""

import pytest

from flatbasket import (
    FlatBasketCode,
    boundary_components,
    canonicalize,
    parse_code,
    parse_matching,
    relabel,
    surface_stats,
    underlying,
)
from flatbasket.codes import canonical_word
from conftest import rotated
from flatbasket.errors import (
    EmptyInput,
    InvalidPermutation,
    MalformedCode,
    NonContiguousLabels,
)
from flatbasket.search import enumerate_matchings
from flatbasket.seifert import seifert_matrix


def test_parse_table_syntax():
    code = parse_code("(1,2,3,4,1,2,3,4)")
    assert code.word == (1, 2, 3, 4, 1, 2, 3, 4)
    assert code.n == 4


def test_parse_whitespace_and_commas():
    assert parse_code("1 2,1\t2").word == (1, 2, 1, 2)


def test_parse_smallest_code():
    assert parse_code("1,1").n == 1


def test_parse_rejects_odd_length():
    with pytest.raises(MalformedCode):
        parse_code("1,2,1")


def test_parse_rejects_multiplicity():
    with pytest.raises(MalformedCode):
        parse_code("1,1,1,2,2,2")


def test_parse_rejects_label_gap():
    with pytest.raises(NonContiguousLabels):
        parse_code("1,1,3,3")


def test_parse_rejects_empty():
    with pytest.raises(EmptyInput):
        parse_code("   ")
    with pytest.raises(EmptyInput):
        parse_code("()")


def test_parse_rejects_garbage_token():
    with pytest.raises(MalformedCode):
        parse_code("1,x,1,2")
    with pytest.raises(MalformedCode):
        parse_code("0,0")
    # str.isdigit accepts superscript and Arabic-Indic digits; int() then
    # rejects the first and silently reads the second as 1 and 2
    for text in ("1,²,1,²", "١,٢,١,٢"):
        with pytest.raises(MalformedCode):
            parse_code(text)
        with pytest.raises(MalformedCode):
            parse_matching(text)
    # more digits than Python's int-conversion limit allows
    with pytest.raises(MalformedCode):
        parse_code("9" * 5000 + ",1")


def test_foot_positions():
    code = parse_code("1,3,1,2,3,2")
    assert code.foot_positions == {1: (1, 3), 2: (4, 6), 3: (2, 5)}


def test_underlying_examples():
    assert underlying(parse_code("1,2,1,2")).pairs() == ((1, 3), (2, 4))
    assert underlying(parse_code("1,1,2,2")).pairs() == ((1, 2), (3, 4))
    assert underlying(parse_code("1,2,3,4,1,2,3,4")).pairs() == (
        (1, 5), (2, 6), (3, 7), (4, 8),
    )


def test_crossings_examples():
    assert underlying(parse_code("1,2,1,2")).crossings == ((0, 1),)
    assert underlying(parse_code("1,1,2,2")).crossings == ()
    assert underlying(parse_code("1,3,1,2,3,2")).crossings == ((0, 1), (1, 3))
    assert underlying(parse_code("1,2,3,4,1,2,3,4")).crossings == (
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    )


def test_boundary_components_examples():
    assert boundary_components(underlying(parse_code("1,1"))) == 2
    assert boundary_components(underlying(parse_code("1,2,1,2"))) == 1
    assert boundary_components(underlying(parse_code("1,1,2,2"))) == 3


def test_surface_stats_examples():
    assert surface_stats(parse_code("1,1")) == surface_stats(parse_code("1,1"))
    s = surface_stats(parse_code("1,1"))
    assert (s.bands, s.euler, s.boundary, s.genus) == (1, 0, 2, 0)
    s = surface_stats(parse_code("1,2,1,2"))
    assert (s.bands, s.euler, s.boundary, s.genus) == (2, -1, 1, 1)
    s = surface_stats(parse_code("1,2,3,4,1,2,3,4"))
    assert (s.bands, s.euler, s.boundary, s.genus) == (4, -3, 1, 2)


def test_canonicalize_examples():
    assert canonicalize(parse_code("2,1,2,1")).word == (1, 2, 1, 2)
    assert canonicalize(parse_code("1,2,3,4,1,2,3,4")).word == (1, 2, 3, 4, 1, 2, 3, 4)
    assert canonicalize(parse_code("1,2,2,1")).word == (1, 1, 2, 2)


def test_canonicalize_idempotent_and_rotation_invariant():
    for text in ("1,2,1,2", "1,2,2,3,1,3", "1,2,3,1,2,4,6,5,3,4,6,5"):
        code = parse_code(text)
        canonical = canonicalize(code)
        assert canonicalize(canonical) == canonical
        assert canonical_word(canonical.word) == canonical.word
        for k in range(len(code.word)):
            assert canonicalize(rotated(code, k)) == canonical


def test_canonical_word_is_least_rotation():
    from conftest import all_codes
    from flatbasket.codes import canonical_word

    words = [code.word for n in (1, 2, 3, 4) for code in all_codes(n)]
    words += [(3, 1, 2, 1, 1), (2, 2, 2), (5,), (1, 2, 1, 1, 2, 1, 1)]
    for word in words:
        assert canonical_word(word) == min(word[k:] + word[:k] for k in range(len(word)))


def test_relabel_examples(trefoil_code):
    assert relabel(parse_code("1,2,1,2"), (2, 1)).word == (1, 2, 1, 2)
    assert relabel(trefoil_code, (4, 3, 2, 1)).word == (1, 4, 3, 2, 1, 4, 3, 2)
    assert relabel(trefoil_code, (1, 2, 3, 4)) == canonicalize(trefoil_code)


def test_relabel_rejects_bad_permutation():
    with pytest.raises(InvalidPermutation):
        relabel(parse_code("1,2,1,2"), (1, 1))
    with pytest.raises(InvalidPermutation):
        relabel(parse_code("1,2,1,2"), (1, 3))


def test_relabel_preserves_underlying_up_to_rotation(trefoil_code):
    # The drawn chord diagram is basepoint-free; canonical rotation may shift
    # the pairing but never the rotation class.
    from flatbasket.codes import UnderlyingDiagram

    for code in (parse_code("1,2,2,3,1,3"), trefoil_code):
        before = underlying(code).pairing
        m = len(before)
        after = underlying(relabel(code, tuple(range(code.n, 0, -1)))).pairing
        rotations = {
            tuple((before[(i + k) % m] - k) % m for i in range(m))
            for k in range(m)
        }
        assert after in rotations


def test_boundary_invariant_under_relabeling():
    code = parse_code("1,2,3,1,2,4,6,5,3,4,6,5")
    base = surface_stats(code)
    for perm in ((6, 5, 4, 3, 2, 1), (2, 3, 4, 5, 6, 1)):
        stats = surface_stats(relabel(code, perm))
        assert (stats.boundary, stats.euler, stats.genus) == (
            base.boundary, base.euler, base.genus,
        )


def test_boundary_parity_exhaustive():
    # b = n+1 (mod 2) for every matching with n <= 6; knots need even n.
    for n in range(1, 7):
        for diagram in enumerate_matchings(n):
            b = boundary_components(diagram)
            assert (b - (n + 1)) % 2 == 0
            if b == 1:
                assert n % 2 == 0


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of the matrix whose rows are the bits of ``rows``."""
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [row ^ pivot if row & low else row for row in rows]
    return rank


def boundary_from_gf2_rank(word: tuple[int, ...]) -> int:
    """n + 1 - rank over GF(2) of V + V^T for the Seifert matrix V of the
    code ``word``.  Mod 2, V + V^T is the chord interleaving matrix, the
    intersection form on H_1(F; Z/2), and its radical has dimension b - 1;
    no boundary walk is involved."""
    rows = seifert_matrix(FlatBasketCode(word)).rows
    n = len(rows)
    bits = [
        sum(((rows[i][j] + rows[j][i]) & 1) << j for j in range(n)) for i in range(n)
    ]
    return n + 1 - gf2_rank(bits)


def test_boundary_count_is_n_plus_1_minus_gf2_rank_exhaustive():
    checked = 0
    for n in range(1, 7):
        for matching in enumerate_matchings(n):
            word = tuple(chord + 1 for chord in matching.chord_at)
            assert boundary_components(matching) == boundary_from_gf2_rank(word), word
            checked += 1
    assert checked == 1 + 3 + 15 + 105 + 945 + 10395  # (2n - 1)!! matchings


def test_full_interleaving_matching_is_knot_for_even_n():
    from flatbasket.codes import UnderlyingDiagram

    for n in (2, 4, 6):
        pairing = tuple((i + n) % (2 * n) for i in range(2 * n))
        assert boundary_components(UnderlyingDiagram(pairing)) == 1


def test_code_display():
    assert str(parse_code("1,2,1,2")) == "(1,2,1,2)"
