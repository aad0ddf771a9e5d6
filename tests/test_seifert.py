"""The six-case Seifert matrix rule."""

import random

from flatbasket import parse_code, seifert_matrix, symmetrized, underlying
from conftest import all_codes, random_code


def test_interleaved_pair():
    assert seifert_matrix(parse_code("1,2,1,2")).rows == ((0, 0), (-1, 0))


def test_disjoint_pair():
    assert seifert_matrix(parse_code("1,1,2,2")).rows == ((0, 0), (0, 0))


def test_trefoil_full_lower_triangle(trefoil_code):
    rows = seifert_matrix(trefoil_code).rows
    for i in range(4):
        for j in range(4):
            assert rows[i][j] == (-1 if i > j else 0)


def test_mixed_three_band_code():
    rows = seifert_matrix(parse_code("1,3,1,2,3,2")).rows
    assert rows == ((0, 0, 0), (0, 0, 0), (-1, 1, 0))


def test_all_six_patterns():
    cases = {
        "1,2,1,2": -1,  # i j i j
        "2,1,2,1": 1,   # j i j i
        "1,2,2,1": 0,   # i j j i
        "1,1,2,2": 0,   # i i j j
        "2,1,1,2": 0,   # j i i j
        "2,2,1,1": 0,   # j j i i
    }
    for text, expected in cases.items():
        assert seifert_matrix(parse_code(text)).rows == ((0, 0), (expected, 0))


def test_strictly_lower_triangular_random():
    rng = random.Random(20240901)
    for _ in range(300):
        code = random_code(rng, rng.randint(1, 8))
        rows = seifert_matrix(code).rows
        for i in range(code.n):
            for j in range(code.n):
                if i <= j:
                    assert rows[i][j] == 0
                else:
                    assert rows[i][j] in (-1, 0, 1)


def test_reversal_negates_exhaustive_small():
    # Reading the word backwards swaps the two interleaved patterns.
    for n in (2, 3, 4):
        for code in all_codes(n):
            reverse = parse_code(",".join(map(str, reversed(code.word))))
            a = seifert_matrix(code).rows
            b = seifert_matrix(reverse).rows
            assert all(
                b[i][j] == -a[i][j] for i in range(n) for j in range(n)
            )


def test_nonzero_entries_match_chord_crossings():
    rng = random.Random(7)
    for _ in range(100):
        code = random_code(rng, rng.randint(2, 7))
        rows = seifert_matrix(code).rows
        pairing = underlying(code).pairing
        feet = code.foot_positions
        for j in range(2, code.n + 1):
            for i in range(1, j):
                pi, qi = feet[i]
                pj, qj = feet[j]
                crossing = (pi < pj < qi) != (pi < qj < qi)
                assert (rows[j - 1][i - 1] != 0) == crossing


def test_symmetrized():
    assert symmetrized(seifert_matrix(parse_code("1,2,1,2"))) == (
        (0, -1), (-1, 0),
    )
    assert symmetrized(seifert_matrix(parse_code("1,1,2,2"))) == (
        (0, 0), (0, 0),
    )
    sym = symmetrized(seifert_matrix(parse_code("1,2,3,4,1,2,3,4")))
    for i in range(4):
        for j in range(4):
            assert sym[i][j] == (0 if i == j else -1)
