"""Property-based tests of the exact determinant kernels and the parsers.

Both pencil methods are compared with the permutation-expansion oracle in
conftest, on Seifert matrices of generated codes and on generated integer
matrices that are not triangular, as flattened diagrams can produce.  The
matrix families are chosen to reach each path of the pivoted Z[t] Bareiss
elimination: unit pivots with row and column swaps and row negation, pivots
that are never units, and a zero trailing block.  Entries up to 1000 make
the one evaluation point 2^B of ``eval_interp`` large, and a zero row makes
its Hadamard bound zero.  Flattening is compared with the independent
boundary-trace oracle on generated diagrams, and validation with the
reference crossing check on diagrams drawn from a small grid.  The parsers
and the CLI's integer options are fuzzed with text that mixes their syntax
with digits they must refuse, and the CLI with input files of random bytes.
"""

import contextlib
import io
import re
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from flatbasket import alexander, parse_code, parse_matching, parse_polynomial
from flatbasket import pencil_determinant, pushdown, seifert_matrix
from flatbasket.cli import _shared_parser, cli_dispatch
from flatbasket.codes import FlatBasketCode, boundary_components, underlying
from flatbasket.errors import (
    EmptyInput,
    FlatBasketError,
    MalformedCode,
    NonContiguousLabels,
    _excerpt,
)
from flatbasket.pushdown import (
    RectilinearDiagram,
    flatten,
    flatten_trace,
    validate_diagram,
)
from flatbasket.search import _mirror_word
from flatbasket.seifert import SeifertMatrix
from boundary_oracle import boundary_alexander
from conftest import diagram_boundary_components, leibniz_pencil_det, replay_flatten, rotated
from test_pushdown import (
    checked_touch,
    grid_staircases,
    reference_walk,
    walked_lines_and_columns,
    whole_walk_oracle,
)

# derandomized and without an example database, so runs are reproducible
# and leave no files behind
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def codes(max_bands: int):
    return st.integers(1, max_bands).flatmap(
        lambda n: st.permutations([label for label in range(1, n + 1) for _ in range(2)])
    ).map(lambda word: FlatBasketCode(tuple(word)))


def _matrix(rows) -> SeifertMatrix:
    return SeifertMatrix(tuple(tuple(row) for row in rows))


def square_lists(entry, min_size: int = 2, max_size: int = 7):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@st.composite
def unitless_matrices(draw):
    """Entries from {0, +-2, +-3} with a nonzero entry in the top-right and
    bottom-left corners, so V is not triangular and no pencil entry is a
    constant +-1."""
    nonzero = st.sampled_from((2, -2, 3, -3))
    rows = draw(square_lists(st.sampled_from((0, 2, -2, 3, -3))))
    rows[0][-1] = draw(nonzero)
    rows[-1][0] = draw(nonzero)
    return _matrix(rows)


@st.composite
def repeated_index_matrices(draw):
    """V in which one index repeats another in its row and its column, so
    V - t V^T has two equal rows and its determinant is zero."""
    base = draw(square_lists(st.integers(-3, 3), min_size=1, max_size=6))
    index = list(range(len(base)))
    index.insert(draw(st.integers(0, len(base))), draw(st.integers(0, len(base) - 1)))
    return _matrix([[base[a][b] for b in index] for a in index])


def _methods_match_leibniz(v) -> tuple[int, ...]:
    expected = leibniz_pencil_det(v)
    assert pencil_determinant(v, "fraction_free").coeffs == expected
    assert pencil_determinant(v, "eval_interp").coeffs == expected
    return expected


@PROPERTY
@given(codes(7))
def test_pencil_methods_match_leibniz_on_codes(code):
    _methods_match_leibniz(seifert_matrix(code))


@PROPERTY
@given(square_lists(st.integers(-2, 2), min_size=0).map(_matrix))
def test_pencil_methods_match_leibniz_on_integer_matrices(v):
    _methods_match_leibniz(v)


@PROPERTY
@given(unitless_matrices())
def test_pencil_methods_match_leibniz_without_unit_entries(v):
    _methods_match_leibniz(v)


@PROPERTY
@given(square_lists(st.sampled_from((1, -1, 0)), min_size=1).map(_matrix))
def test_pencil_methods_match_leibniz_on_dense_sign_matrices(v):
    _methods_match_leibniz(v)


@st.composite
def zero_row_matrices(draw):
    """V with row and column k zero, so V - t V^T has a zero row and the
    pencil is zero without any determinant."""
    rows = draw(square_lists(st.integers(-1000, 1000), min_size=1, max_size=5))
    k = draw(st.integers(0, len(rows) - 1))
    for row in rows:
        row[k] = 0
    rows[k] = [0] * len(rows)
    return _matrix(rows)


@PROPERTY
@given(square_lists(st.integers(-1000, 1000), min_size=0, max_size=5).map(_matrix))
def test_pencil_methods_match_leibniz_on_large_entries(v):
    _methods_match_leibniz(v)


@PROPERTY
@given(zero_row_matrices())
def test_pencil_methods_vanish_on_a_zero_row(v):
    assert _methods_match_leibniz(v) == ()


@PROPERTY
@given(repeated_index_matrices())
def test_pencil_methods_vanish_on_repeated_rows(v):
    assert _methods_match_leibniz(v) == ()


@st.composite
def permuted_matrices(draw):
    """V with n <= 6, a code's Seifert matrix or a matrix with many zero
    and +-1 entries, and P V P^T for a permutation P of its indices."""
    rows = draw(
        st.one_of(
            codes(6).map(lambda code: seifert_matrix(code).rows),
            square_lists(st.sampled_from((0, 0, 1, -1, 2, -3)), min_size=1, max_size=6),
        )
    )
    perm = draw(st.permutations(range(len(rows))))
    return _matrix(rows), _matrix([[rows[a][b] for b in perm] for a in perm])


@PROPERTY
@given(permuted_matrices())
def test_fraction_free_pencil_is_invariant_under_simultaneous_permutation(pair):
    # P (V - t V^T) P^T has the same determinant; the least-fill pivots of
    # the two eliminations take different paths
    v, permuted = pair
    expected = leibniz_pencil_det(v)
    assert pencil_determinant(v, "fraction_free").coeffs == expected
    assert pencil_determinant(permuted, "fraction_free").coeffs == expected


@PROPERTY
@given(codes(7), st.integers(0, 13))
def test_alexander_invariant_under_rotation_and_mirror(code, shift):
    base = alexander(code, checked=True).normalized
    assert alexander(rotated(code, shift)).normalized == base
    mirror = FlatBasketCode(_mirror_word(code.word, code.n))
    assert alexander(mirror, checked=True).normalized == base


@st.composite
def staircase_diagrams(draw, max_bands: int = 4, max_xlines: int = 3, xlines=None):
    """Bands that alternate up and across, each with 1..max_xlines x-lines
    or with a count drawn from ``xlines``; every column and every height is
    distinct, which makes the diagram valid."""
    bands = draw(st.integers(1, max_bands))
    xlines = st.integers(1, max_xlines) if xlines is None else xlines
    counts = draw(st.lists(xlines, min_size=bands, max_size=bands))
    columns = iter(draw(st.permutations(range(1, sum(counts) + len(counts) + 1))))
    heights = iter(draw(st.permutations(range(1, sum(counts) + 1))))
    paths = []
    for k in counts:
        cols = [next(columns) for _ in range(k + 1)]
        verts = [(cols[0], 0)]
        for j in range(k):
            level = next(heights)
            verts += [(cols[j], level), (cols[j + 1], level)]
        verts.append((cols[k], 0))
        paths.append(tuple((Fraction(x), Fraction(y)) for x, y in verts))
    return RectilinearDiagram(tuple(paths))


# about one generated diagram in nine bounds a knot, so more examples are
# drawn here: 200 reach 23 knots
@settings(PROPERTY, max_examples=200)
@given(staircase_diagrams())
def test_flatten_matches_boundary_oracle(diagram):
    validate_diagram(diagram)
    code = flatten(diagram)
    boundary = diagram_boundary_components(diagram)
    assert boundary_components(underlying(code)) == boundary
    if boundary == 1:
        assert alexander(code).normalized == boundary_alexander(diagram)


@PROPERTY
@given(staircase_diagrams())
def test_flatten_grid_matches_fraction_replay(diagram):
    replay_flatten(diagram)


@PROPERTY
@given(staircase_diagrams())
def test_walk_matches_reference_on_staircases(diagram):
    assert walked_lines_and_columns(diagram) == reference_walk(diagram)


@st.composite
def capped_diagrams(draw):
    """Staircase diagrams of up to ``FLATTEN_CAP`` x-lines in all, from one
    long band to sixteen short ones; a band is often as long as the cap
    allows, so many diagrams reach it."""
    bands = draw(st.integers(1, 16))
    longest = pushdown.FLATTEN_CAP // bands
    xlines = st.one_of(st.just(longest), st.integers(1, longest))
    return draw(staircase_diagrams(bands, longest, xlines))


@settings(PROPERTY, max_examples=30)
@given(capped_diagrams())
def test_incremental_walk_matches_whole_walk_up_to_the_cap(diagram):
    with whole_walk_oracle() as checked:
        steps = len(flatten_trace(diagram).steps)
    assert checked[0] == steps


# Parser syntax mixed with what the parsers must refuse: digits of other
# scripts, superscripts, full-width digits and the underscore that ``int``
# accepts inside numbers.
PARSER_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("0123456789,()t^+-* \t\n"),
        st.sampled_from("_\u00a0\u2003\u00b2\u0661\u0662\u096a\uff13"),
        st.characters(categories=("Nd",)),
    ),
    max_size=40,
)

FUZZ = settings(max_examples=500, deadline=None, derandomize=True, database=None)


@FUZZ
@given(PARSER_TEXT)
def test_parsers_return_or_raise_domain_errors(text):
    foreign = any(c == "_" or (c.isdigit() and not c.isascii()) for c in text)
    for parse in (parse_code, parse_matching, parse_polynomial):
        try:
            parse(text)
        except FlatBasketError:
            continue
        assert not foreign, (parse.__name__, text)


@FUZZ
@given(PARSER_TEXT)
def test_cli_integer_options_refuse_foreign_digits(text):
    # parsing only: a usage error (exit 2), or an ASCII integer
    foreign = any(c == "_" or (c.isdigit() and not c.isascii()) for c in text)
    parser = _shared_parser()
    for argv in (
        ["census", "-n", text],
        ["search", "-n", "4", "--jobs", text],
        ["bound", "--code", "1,2,1,2", "--genus", text],
    ):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                assert exc.code == 2
                continue
        assert not foreign and re.fullmatch("[+-]?[0-9]+", text), argv
        value = args.genus if argv[0] == "bound" else args.jobs if "--jobs" in argv else args.bands
        assert value == int(text), argv


def counter_rule(word: tuple) -> tuple[type, str] | None:
    """The label rule of ``FlatBasketCode`` by counting alone: the class and
    message of the error it raises for ``word``, or None when it accepts."""
    try:
        if not word:
            raise EmptyInput("empty code")
        if len(word) % 2:
            raise MalformedCode(f"code length {len(word)} is odd")
        n = len(word) // 2
        counts = Counter(word)
        bad = sorted(x for x, c in counts.items() if c != 2)
        if bad:
            listed = _excerpt(",".join(map(str, bad)))
            raise MalformedCode(f"{len(bad)} labels do not occur exactly twice: {listed}")
        if set(counts) != set(range(1, n + 1)):
            listed = _excerpt(",".join(map(str, sorted(counts))))
            raise NonContiguousLabels(f"labels {listed} are not exactly 1..{n}")
    except Exception as exc:
        return type(exc), str(exc)
    return None


# codes, doubled label sets that need not be 1..n, any small integers, and
# labels that do not sort with the others
LABEL_WORDS = st.one_of(
    codes(7).map(lambda code: code.word),
    st.sets(st.integers(-1, 9), min_size=1, max_size=6).flatmap(
        lambda labels: st.permutations([x for x in labels for _ in range(2)])
    ),
    st.lists(st.integers(-1, 8), max_size=14),
    st.lists(st.one_of(st.integers(1, 3), st.sampled_from(["1", "x"])), max_size=6),
).map(tuple)


@settings(FUZZ, max_examples=400)
@given(LABEL_WORDS)
def test_code_label_check_matches_the_counter_rule(word):
    try:
        FlatBasketCode(word)
        outcome = None
    except Exception as exc:
        outcome = type(exc), str(exc)
    assert outcome == counter_rule(word)


# columns and heights from six halves, so most drawings repeat one and many
# have a touch; validation must reject every drawing with a touch
@FUZZ
@given(st.randoms(use_true_random=False))
def test_validated_diagrams_pass_the_crossing_reference(rng):
    checked_touch(grid_staircases(rng, [Fraction(k, 2) for k in range(1, 7)]))


# raw bytes, mostly not UTF-8, and UTF-8 text in the syntax of the four files
FILE_BYTES = st.one_of(
    st.binary(max_size=48),
    st.text(alphabet="0123456789,;/()-t^{}[]\":# \t\n\u00e9\u0661", max_size=48).map(
        str.encode
    ),
)


@settings(FUZZ, max_examples=100)
@given(FILE_BYTES)
def test_cli_input_files_end_in_exit_0_or_1(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        # the search last: it appends to the file as a store
        for argv in (
            ["flatten", "--diagram", str(path)],
            ["verify-table", "--table", str(path)],
            ["verify-table", "--references", str(path)],
            ["search", "-n", "2", "--store", str(path)],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli_dispatch(argv)
            assert status in (0, 1), (argv, data)
            assert "Traceback" not in err.getvalue(), (argv, data)
