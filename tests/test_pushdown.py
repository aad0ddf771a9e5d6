"""Rectilinear diagrams, push-downs, and the diagram Seifert oracle."""

from contextlib import contextmanager
from fractions import Fraction
from importlib import resources

import pytest

from flatbasket import alexander, normalize_alexander, parse_code, pushdown, seifert_matrix
from flatbasket.errors import (
    CapExceeded,
    DuplicateColumn,
    DuplicateHeight,
    FlatBasketError,
    FootOrderViolation,
    InvariantViolation,
    MalformedDiagram,
    SiteNotEligible,
)
from flatbasket.invariants import pencil_determinant
from flatbasket.pushdown import (
    Connector,
    RectilinearDiagram,
    classify_xlines,
    diagram_seifert_matrix,
    diagram_to_text,
    flatten,
    flatten_trace,
    load_diagram,
    parse_diagram,
    push_down,
    validate_diagram,
)
from flatbasket.seifert import SeifertMatrix
from conftest import code_to_flat_diagram, diagram_boundary_components, diagram_feet

VALLEY = "1,0; 1,3; 2,3; 2,1; 3,1; 3,4; 4,4; 4,0"
# the x-line at y=2 descends on the left and ascends on the right
SNAKE = "1,0; 1,2; 4,2; 4,5; 5,5; 5,0"


def corpus_paths():
    root = resources.files("flatbasket") / "data" / "diagrams"
    return sorted(root.iterdir(), key=lambda p: p.name)


def corpus_diagram(name: str) -> RectilinearDiagram:
    root = resources.files("flatbasket") / "data" / "diagrams"
    return parse_diagram((root / f"{name}.txt").read_text())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_single_arch_valid():
    validate_diagram(parse_diagram("1,0; 1,1; 2,1; 2,0"))


def test_valley_valid():
    validate_diagram(parse_diagram(VALLEY))


def test_duplicate_height_rejected():
    with pytest.raises(DuplicateHeight):
        validate_diagram(parse_diagram("1,0; 1,1; 2,1; 2,0\n3,0; 3,1; 4,1; 4,0"))


def test_duplicate_column_rejected():
    with pytest.raises(DuplicateColumn):
        validate_diagram(parse_diagram("1,0; 1,1; 2,1; 2,0\n2,0; 2,3; 4,3; 4,0"))


class _Touch(Exception):
    """An x-line/y-line contact that is not a transverse interior crossing."""


def _reference_check_crossings(diagram: RectilinearDiagram) -> None:
    """The crossing test written directly on Fraction coordinates."""
    xlines = []
    ylines = []
    for bi, band in enumerate(diagram.bands):
        for k in range(len(band) - 1):
            a, b = band[k], band[k + 1]
            if a[0] == b[0]:
                ylines.append((bi, k, a[0], min(a[1], b[1]), max(a[1], b[1])))
            else:
                xlines.append((bi, k, a[1], min(a[0], b[0]), max(a[0], b[0])))
    for bi, ki, y, xl, xr in xlines:
        for bj, kj, x, ylo, yhi in ylines:
            if bi == bj and abs(ki - kj) == 1:
                continue
            if xl <= x <= xr and ylo <= y <= yhi:
                if not (xl < x < xr and ylo < y < yhi):
                    raise _Touch(f"crossing touches a segment endpoint at ({x},{y})")


def checked_touch(diagram: RectilinearDiagram) -> str | None:
    """The reference check's message for ``diagram``, None if it finds no
    touch; fails if ``validate_diagram`` accepts a diagram with a touch."""
    try:
        _reference_check_crossings(diagram)
    except _Touch as exc:
        try:
            validate_diagram(diagram)
        except FlatBasketError:
            return str(exc)
        pytest.fail(f"validate_diagram accepted a diagram whose {exc}")
    return None


def touching_diagrams():
    touching = parse_diagram("1,0; 1,2; 4,2; 4,0\n2,0; 2,2; 3,2; 3,0")
    # a y-line at a fractional column ends on an x-line
    fractional = parse_diagram("1,0; 1,2; 4,2; 4,0\n3/2,0; 3/2,2; 5,2; 5,0")
    # an x-line ends on another band's y-line
    sideways = parse_diagram("2,0; 2,3; 3,3; 3,0\n1,0; 1,1; 2,1; 2,2; 4,2; 4,0")
    return touching, fractional, sideways


def test_rank_crossing_check_matches_fraction_reference_on_touches():
    # The reference finds each touch and validate_diagram rejects each one.
    touching, fractional, sideways = touching_diagrams()
    assert checked_touch(touching) is not None
    assert "(3/2,2)" in checked_touch(fractional)
    assert "(2,1)" in checked_touch(sideways)


def test_endpoint_crossing_rejected():
    # An endpoint touch repeats a height or a column (see validate_diagram),
    # so validation reports the duplicate.
    touching, fractional, sideways = touching_diagrams()
    for diagram, error in (
        (touching, DuplicateHeight),
        (fractional, DuplicateHeight),
        (sideways, DuplicateColumn),
    ):
        with pytest.raises(error):
            validate_diagram(diagram)


def test_validated_diagrams_pass_the_crossing_reference_after_push_downs():
    for path in corpus_paths():
        final = flatten_trace(parse_diagram(path.read_text())).final
        validate_diagram(final)
        assert checked_touch(final) is None
    # the stub next to the snake's ascending end is cut at x = 5/2
    pushed = push_down(parse_diagram(SNAKE), 2)
    assert any(x.denominator > 1 for band in pushed.bands for x, _ in band)
    validate_diagram(pushed)
    assert checked_touch(pushed) is None


def grid_staircases(rng, grid) -> RectilinearDiagram:
    """One to three staircase bands with columns and heights drawn from
    ``grid``, so repeated coordinates and touches are frequent."""
    bands = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 3)
        cols = [rng.choice(grid) for _ in range(k + 1)]
        levels = [rng.choice(grid) for _ in range(k)]
        verts = [(cols[0], Fraction(0))]
        for j in range(k):
            verts += [(cols[j], levels[j]), (cols[j + 1], levels[j])]
        verts.append((cols[k], Fraction(0)))
        bands.append(tuple(verts))
    return RectilinearDiagram(tuple(bands))


def test_validated_diagrams_pass_the_crossing_reference_on_a_small_grid():
    import random

    rng = random.Random(20261018)
    grid = [Fraction(k, 2) for k in range(1, 9)]
    touches = accepted = 0
    for _ in range(300):
        diagram = grid_staircases(rng, grid)
        touch = checked_touch(diagram)
        touches += touch is not None
        if touch is None:
            try:
                validate_diagram(diagram)
            except FlatBasketError:
                continue
            accepted += 1
    assert 30 <= touches <= 270
    assert accepted >= 30


def test_foot_violations_rejected():
    with pytest.raises(FootOrderViolation):
        validate_diagram(parse_diagram("1,1; 1,2; 2,2; 2,0"))
    with pytest.raises(FootOrderViolation):
        validate_diagram(parse_diagram("1,0; 1,2; 2,2; 2,0; 3,0; 3,1; 4,1; 4,0"))


def test_malformed_paths_rejected():
    with pytest.raises(MalformedDiagram):
        validate_diagram(parse_diagram("1,0; 2,1; 3,0; 4,0"))
    with pytest.raises(MalformedDiagram):
        validate_diagram(parse_diagram("1,0; 1,1"))
    with pytest.raises(MalformedDiagram):
        parse_diagram("   ")


def test_parse_and_format_round_trip():
    diagram = parse_diagram(VALLEY)
    again = parse_diagram(diagram_to_text(diagram))
    assert again == diagram


def test_constructor_turns_int_vertices_into_fractions():
    diagram = RectilinearDiagram((((1, 0), (1, 1), (2, 1), (2, 0)),))
    assert diagram == parse_diagram("1,0; 1,1; 2,1; 2,0")
    assert all(type(c) is Fraction for v in diagram.bands[0] for c in v)


def test_parse_reads_ascii_integers_and_fractions():
    diagram = parse_diagram("-1/2,0; -1/2,+3; 7/3,3; 7/3,0")
    assert diagram.bands[0][2] == (Fraction(7, 3), Fraction(3))
    assert parse_diagram(diagram_to_text(diagram)) == diagram
    longest = "9" * 4300
    (band,) = parse_diagram(f"1,0; 1,{longest}; 2,{longest}; 2,0").bands
    assert band[1][1] == int(longest)


def test_parse_reads_integers_as_the_fraction_text_path_does():
    # integers take int(); each coordinate must equal Fraction(text), the
    # path that fractions take, and be a Fraction
    texts = [path.read_text() for path in corpus_paths()]
    texts += [
        "-1/2,0; -1/2,+3; 7/3,3; 7/3,0",
        "+0,0; -0,+5; 006,5; 6,-0",
        "-12,0; -12,+4/2; +7,4/2; 7,0\n 10/4 , 0 ; 10/4,-3/9;-5,-1/3; -5,0",
        f"1,0; 1,-{'9' * 4300}; 2,+{'9' * 4300}; 2,0",
    ]
    for text in texts:
        expected = [
            Fraction(part.strip())
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
            for chunk in line.split(";")
            if chunk.strip()
            for part in chunk.split(",")
        ]
        diagram = parse_diagram(text)
        parsed = [c for band in diagram.bands for vertex in band for c in vertex]
        assert parsed == expected
        assert all(type(c) is Fraction for c in parsed)


@pytest.mark.parametrize(
    "coordinate",
    ["1e2000000", "1E5", "1.5", ".5", "1_0", "\u0661", "\uff13", "\u00b2",
     "3/", "/2", "1/-2", "1/0", "nan", "inf", "0x10", "9" * 4301,
     "1/" + "9" * 4301],
)
def test_parse_rejects_other_coordinate_syntax(coordinate):
    with pytest.raises(MalformedDiagram) as info:
        parse_diagram(f"1,0; 1,{coordinate}; 2,{coordinate}; 2,0")
    assert len(str(info.value)) < 100


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_single_arch_flat():
    (cls,) = classify_xlines(parse_diagram("1,0; 1,1; 2,1; 2,0"))
    assert cls.flat and cls.left == "descends" and cls.right == "descends"


def test_classify_valley():
    classes = {c.height: c for c in classify_xlines(parse_diagram(VALLEY))}
    assert classes[Fraction(1)].left == "ascends"
    assert classes[Fraction(1)].right == "ascends"
    assert classes[Fraction(3)].flat
    assert classes[Fraction(4)].flat


def test_classify_all_arches_flat(trefoil_code):
    for cls in classify_xlines(code_to_flat_diagram(trefoil_code)):
        assert cls.flat


# ---------------------------------------------------------------------------
# push-down surgery
# ---------------------------------------------------------------------------

def test_push_down_valley():
    diagram = parse_diagram(VALLEY)
    result = push_down(diagram, 1)
    assert result.band_count == 3
    assert diagram_boundary_components(diagram) == 2
    assert diagram_boundary_components(result) == 2
    assert result.band_count == diagram.band_count + 2
    # a clean valley goes in one piece, between connector feet at 3/2 and 7/2
    assert result.connectors == (Connector(Fraction(3, 2), Fraction(7, 2)),)
    # the new feet realize the connector-flanked pattern A C A B C B
    code = flatten(diagram)
    assert code.word == (1, 3, 1, 2, 3, 2)


def test_push_down_flat_rejected(trefoil_code):
    flat = code_to_flat_diagram(trefoil_code)
    with pytest.raises(SiteNotEligible):
        push_down(flat, 1)
    with pytest.raises(SiteNotEligible):
        push_down(flat, 99)  # no such x-line


def test_push_down_cuts_the_stub_next_to_an_ascending_end():
    # the snake's x-line descends on the left, so the stub [5/2, 4] goes
    snake = parse_diagram(SNAKE)
    pushed = push_down(snake, 2)
    assert pushed.bands == parse_diagram(
        "1,0; 1,2; 5/2,2; 5/2,0\n4,0; 4,5; 5,5; 5,0"
    ).bands
    assert pushed.connectors == (Connector(Fraction(7, 4), Fraction(9, 2)),)
    assert diagram_boundary_components(pushed) == diagram_boundary_components(snake)


def test_valley_delta_preserved():
    diagram = parse_diagram(VALLEY)
    oracle = diagram_seifert_matrix(diagram)
    raw = pencil_determinant(SeifertMatrix(oracle))
    assert raw.is_zero  # annulus boundary: two-component unlink
    assert alexander(flatten(diagram)).normalized.is_zero


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def test_flatten_flat_diagram_is_read_off(trefoil_code):
    flat = code_to_flat_diagram(trefoil_code)
    result = flatten_trace(flat)
    assert result.steps == ()
    assert result.code == trefoil_code


def test_flatten_interleaved_pair():
    flat = code_to_flat_diagram(parse_code("1,2,1,2"))
    assert flatten(flat).word == (1, 2, 1, 2)


def read_off_code(diagram: RectilinearDiagram):
    """The private read-off on a diagram's own walk, whatever its shape."""
    return pushdown._read_off_code(diagram, pushdown._walk(diagram))


def test_read_off_requires_flat():
    with pytest.raises(SiteNotEligible):
        read_off_code(parse_diagram(VALLEY))


def test_flatten_trefoil_normal_form_keeps_delta():
    diagram = corpus_diagram("trefoil_curled")
    oracle = normalize_alexander(
        pencil_determinant(SeifertMatrix(diagram_seifert_matrix(diagram)))
    )
    assert str(oracle.normalized) == "t^2 - t + 1"
    result = flatten_trace(diagram)
    assert str(alexander(result.code, checked=True).normalized) == "t^2 - t + 1"


def test_flatten_hopf_curl_keeps_delta():
    diagram = corpus_diagram("hopf_curl")
    oracle = normalize_alexander(
        pencil_determinant(SeifertMatrix(diagram_seifert_matrix(diagram)))
    )
    assert str(oracle.normalized) == "t - 1"
    assert str(alexander(flatten(diagram)).normalized) == "t - 1"


def _record_walks(monkeypatch) -> list[RectilinearDiagram]:
    """Every diagram that ``pushdown._walk`` is called on, in call order."""
    walked = []
    real = pushdown._walk

    def recorded(diagram):
        walked.append(diagram)
        return real(diagram)

    monkeypatch.setattr(pushdown, "_walk", recorded)
    return walked


def test_flatten_validates_each_diagram_once(monkeypatch):
    # one walk, of the grid copy and not of the input; a push-down walks
    # nothing whole, and the read-off labels the walk's feet
    walked = _record_walks(monkeypatch)
    pushes = 0
    for path in corpus_paths():
        diagram = parse_diagram(path.read_text())
        walked.clear()
        result = flatten_trace(diagram)
        assert len(walked) == 1 and walked[0] is not diagram, path.name
        pushes += len(result.steps)
    assert pushes > 0


def invalid_diagrams() -> list[RectilinearDiagram]:
    """The invalid diagrams that the validation tests build, some with
    fractional columns, and invalid staircases on a grid of halves."""
    import random

    arch = parse_diagram("1,0; 1,1; 2,1; 2,0")
    diagrams = [
        parse_diagram(text)
        for text in (
            "1,0; 1,1; 2,1; 2,0\n3,0; 3,1; 4,1; 4,0",
            "1,0; 1,1; 2,1; 2,0\n2,0; 2,3; 4,3; 4,0",
            "1,0; 1,2; 3/2,2; 3/2,0\n5,0; 5,3; 3/2,3; 3/2,4; 6,4; 6,0",
            "1,1; 1,2; 2,2; 2,0",
            "1,0; 1,2; 2,2; 2,0; 3,0; 3,1; 4,1; 4,0",
            "1,0; 2,1; 3,0; 4,0",
            "1,0; 1,1",
            VALLEY + "\n4,0; 4,6; 5,6; 5,0",
        )
    ]
    diagrams += touching_diagrams()
    diagrams += [parse_diagram("5,0; 5,7; 6,7; 6,0\n" + text) for text, _ in MALFORMED_BANDS]
    diagrams += [
        RectilinearDiagram(arch.bands, (Connector(Fraction(1), Fraction(5)),)),
        RectilinearDiagram(arch.bands, (Connector(Fraction(5), Fraction(3)),)),
    ]
    rng = random.Random(20261018)
    grid = [Fraction(k, 2) for k in range(1, 9)]
    while len(diagrams) < 100:
        diagram = grid_staircases(rng, grid)
        try:
            validate_diagram(diagram)
        except FlatBasketError:
            diagrams.append(diagram)
    return diagrams


def test_flatten_raises_what_validation_raises(monkeypatch):
    # the grid walk fails at the check where a walk of the drawing fails,
    # and only then is the drawing walked, so the error quotes its
    # coordinates
    walked = _record_walks(monkeypatch)
    for diagram in invalid_diagrams():
        with pytest.raises(FlatBasketError) as expected:
            validate_diagram(diagram)
        walked.clear()
        with pytest.raises(FlatBasketError) as raised:
            flatten_trace(diagram)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        assert len(walked) == 2 and walked[0] is not diagram and walked[1] is diagram


def test_ascending_ends_are_x_lines_minus_bands():
    # what flatten_trace sizes its grid by, against the walk's count
    import random

    from test_cli import _staircases

    rng = random.Random(20261020)
    diagrams = [parse_diagram(path.read_text()) for path in corpus_paths()]
    diagrams += [_random_diagram(rng, 5, 5) for _ in range(200)]
    cap = pushdown.FLATTEN_CAP
    diagrams += [
        parse_diagram(_staircases(bands, xlines))
        for bands, xlines in ((cap // 8, 8), (8, cap // 8), (1, cap))
    ]
    for diagram in diagrams:
        xlines = sum((len(band) - 2) // 2 for band in diagram.bands)
        assert pushdown._walk(diagram).ascending == xlines - len(diagram.bands)


def test_caps_are_checked_before_any_grid(monkeypatch):
    from test_cli import _staircases

    cap = pushdown.FLATTEN_CAP

    def beside_valley(denominator: int) -> RectilinearDiagram:
        return parse_diagram(f"{VALLEY}\n1/{denominator},0; 1/{denominator},5; 5,5; 5,0")

    # a denominator of exactly 3 * cap bits is within the budget
    assert len(flatten_trace(beside_valley(2 ** (3 * cap - 1))).steps) == 1

    def refuse(*args):
        raise AssertionError("a flatten grid was built over a cap")

    monkeypatch.setattr(pushdown, "_mapped", refuse)
    over = parse_diagram(_staircases(cap + 1, 1))
    hostile = beside_valley(2 ** (3 * cap))
    for diagram, error, message in (
        (over, CapExceeded, f"diagram with {cap + 1} x-lines exceeds the flatten cap {cap}"),
        (hostile, CapExceeded, f"diagram denominators exceed the flatten cap of {3 * cap} bits"),
        # an invalid drawing over a cap gets its validation error first
        (RectilinearDiagram(over.bands + over.bands[:1]), DuplicateColumn,
         "two y-lines share column x=1"),
        (RectilinearDiagram(hostile.bands + hostile.bands[:1]), DuplicateColumn,
         "two y-lines share column x=1"),
    ):
        with pytest.raises(error) as raised:
            flatten_trace(diagram)
        assert type(raised.value) is error and str(raised.value) == message


def test_public_entry_points_walk_each_diagram_once(monkeypatch):
    walked = _record_walks(monkeypatch)
    valley = parse_diagram(VALLEY)
    for call in (validate_diagram, classify_xlines, diagram_seifert_matrix):
        walked.clear()
        call(valley)
        assert walked == [valley], call.__name__
    walked.clear()
    push_down(valley, 1)
    assert walked == [valley]


def reference_xlines(diagram: RectilinearDiagram) -> list:
    """The x-lines of a valid diagram in band and path order, from a walk of
    every segment of its own."""
    out = []
    for bi, band in enumerate(diagram.bands):
        for k in range(len(band) - 1):
            a, b = band[k], band[k + 1]
            if a[0] == b[0]:
                continue
            # neighbours in path order; both exist because paths end vertically
            entry_other = band[k - 1]
            exit_other = band[k + 2]
            if a[0] < b[0]:
                left_other, right_other = entry_other, exit_other
                x_left, x_right = a[0], b[0]
            else:
                left_other, right_other = exit_other, entry_other
                x_left, x_right = b[0], a[0]
            out.append(
                pushdown._XLine(
                    band=bi,
                    seg=k,
                    y=a[1],
                    x_left=x_left,
                    x_right=x_right,
                    left_ascends=left_other[1] > a[1],
                    right_ascends=right_other[1] > a[1],
                )
            )
    return out


def reference_occupied_columns(diagram: RectilinearDiagram) -> set:
    """The y-line columns and connector feet of a diagram."""
    occupied = set()
    for band in diagram.bands:
        for k in range(len(band) - 1):
            if band[k][0] == band[k + 1][0]:
                occupied.add(band[k][0])
    for connector in diagram.connectors:
        occupied.add(connector.left)
        occupied.add(connector.right)
    return occupied


def reference_walk(diagram: RectilinearDiagram) -> tuple[list, set]:
    return reference_xlines(diagram), reference_occupied_columns(diagram)


def walked_lines_and_columns(diagram: RectilinearDiagram) -> tuple[list, set]:
    walk = pushdown._walk(diagram)
    return walk.lines, walk.columns


def test_walk_matches_reference_walks(monkeypatch):
    # on the inputs, and on every push-down result on the flatten grid
    import random

    results = [0]
    real_push = pushdown._push

    def checked_push(diagram, walk, *args):
        result = real_push(diagram, walk, *args)
        assert (walk.lines, walk.columns) == reference_walk(result)
        results[0] += 1
        return result

    monkeypatch.setattr(pushdown, "_push", checked_push)
    rng = random.Random(20261018)
    diagrams = [parse_diagram(path.read_text()) for path in corpus_paths()]
    diagrams += [_random_diagram(rng) for _ in range(40)]
    diagrams.append(push_down(parse_diagram(VALLEY), 1))
    for diagram in diagrams:
        assert walked_lines_and_columns(diagram) == reference_walk(diagram)
        flatten_trace(diagram)
    assert results[0] > 150


def foot_word(walk) -> tuple[int, ...]:
    """The code word of the walk's feet in baseline order, each chord (band
    or connector) labeled by the order of its first foot."""
    label: dict[Fraction, int] = {}
    return tuple(
        label.setdefault(min(foot, walk.partner[foot]), len(label) + 1)
        for foot in walk.feet
    )


def test_walk_boundary_against_gf2_rank(monkeypatch):
    # the walk of every corpus diagram and of every push-down result, against
    # b = n + 1 - rank over GF(2) of V + V^T for the matching of its feet
    from test_codes import boundary_from_gf2_rank

    walked, pushed = [], []
    real_walk = pushdown._walk
    real_push = pushdown._push

    def recorded_walk(diagram):
        walk = real_walk(diagram)
        walked.append(walk.boundary() == boundary_from_gf2_rank(foot_word(walk)))
        return walk

    def recorded_push(diagram, walk, *args):
        result = real_push(diagram, walk, *args)
        pushed.append(walk.boundary() == boundary_from_gf2_rank(foot_word(walk)))
        return result

    monkeypatch.setattr(pushdown, "_walk", recorded_walk)
    monkeypatch.setattr(pushdown, "_push", recorded_push)
    paths = corpus_paths()
    pushes = sum(len(flatten_trace(parse_diagram(p.read_text())).steps) for p in paths)
    assert len(walked) >= len(paths) and all(walked)
    assert pushes > 0 and pushed == [True] * pushes


@contextmanager
def whole_walk_oracle():
    """Check the walk that ``_push`` updates in place against a whole
    ``_walk`` of its result after every push-down: the same x-lines,
    heights, columns (as a set and sorted), ascending-end count, feet in
    baseline order with their partners, and boundary count.  Yields a list
    whose one entry counts the checked push-downs."""
    checked = [0]
    real_push = pushdown._push

    def oracle_push(diagram, walk, *args):
        result = real_push(diagram, walk, *args)
        whole = pushdown._walk(result)
        assert walk.lines == whole.lines
        assert walk.heights == whole.heights
        assert walk.columns == whole.columns
        assert walk.sorted_columns == whole.sorted_columns == sorted(whole.columns)
        assert walk.ascending == whole.ascending
        assert walk.feet == whole.feet == sorted(diagram_feet(result))
        assert walk.partner == whole.partner
        assert walk.boundary() == whole.boundary() == diagram_boundary_components(result)
        checked[0] += 1
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pushdown, "_push", oracle_push)
        yield checked


def test_incremental_walk_matches_whole_walk_after_every_step():
    import random

    from test_cli import _staircases

    rng = random.Random(20261018)
    diagrams = [parse_diagram(path.read_text()) for path in corpus_paths()]
    cap = pushdown.FLATTEN_CAP
    diagrams += [
        parse_diagram(_staircases(bands, xlines))
        for bands, xlines in ((cap // 8, 8), (8, cap // 8), (1, cap))
    ]
    diagrams += [_random_diagram(rng) for _ in range(40)]
    grid = [Fraction(k, 2) for k in range(1, 9)]
    for _ in range(300):
        diagram = grid_staircases(rng, grid)
        try:
            validate_diagram(diagram)
        except FlatBasketError:
            continue
        diagrams.append(diagram)
    diagrams.append(push_down(parse_diagram(VALLEY), 1))
    public = 0
    with whole_walk_oracle() as checked:
        pushes = sum(len(flatten_trace(diagram).steps) for diagram in diagrams)
        # the public surgery, at every non-flat x-line of a few inputs
        for diagram in diagrams[:8]:
            for line in classify_xlines(diagram):
                if not line.flat:
                    push_down(diagram, line.height)
                    public += 1
    assert checked[0] == pushes + public
    assert public > 0 and pushes > 3 * cap


# band 1 of each diagram, after a valid arch
MALFORMED_BANDS = (
    ("1,0; 1,1; 2,1", "band 1 has fewer than 4 vertices"),
    ("1,0; 2,0; 2,1; 3,1; 3,0", "band 1 must start and end vertically"),
    ("1,0; 1,1; 2,1; 2,2; 3,2", "band 1 must start and end vertically"),
    ("1,0; 1,1; 1,2; 2,2; 2,0", "band 1 does not alternate at segment 1"),
)


@pytest.mark.parametrize("text, message", MALFORMED_BANDS)
def test_malformed_bands_raise_their_error_from_every_entry_point(text, message):
    diagram = parse_diagram("5,0; 5,7; 6,7; 6,0\n" + text)
    for call in (
        validate_diagram,
        classify_xlines,
        flatten_trace,
        diagram_seifert_matrix,
        lambda d: push_down(d, 7),
    ):
        with pytest.raises(MalformedDiagram) as info:
            call(diagram)
        assert type(info.value) is MalformedDiagram and str(info.value) == message


def test_read_off_names_the_first_band_that_is_not_an_arch():
    arch = "1,0; 1,1; 2,1; 2,0"
    valley = "3,0; 3,5; 4,5; 4,2; 5,2; 5,6; 6,6; 6,0"
    snake = "7,0; 7,3; 8,3; 8,4; 9,4; 9,0"
    for text, band in ((f"{arch}\n{valley}\n{snake}", 1), (f"{snake}\n{arch}", 0)):
        with pytest.raises(SiteNotEligible) as info:
            read_off_code(parse_diagram(text))
        assert str(info.value) == (
            f"band {band} is not a single arch; flatten the diagram first"
        )


def test_public_surgery_and_read_off_validate_their_input():
    # column 4 is used twice; the valley's x-line at y=1 is still eligible
    invalid = parse_diagram(VALLEY + "\n4,0; 4,6; 5,6; 5,0")
    with pytest.raises(DuplicateColumn):
        push_down(invalid, 1)
    # a flatten of an all-flat diagram only reads it off, after validating it
    two_flat_arches_one_height = parse_diagram("1,0; 1,1; 2,1; 2,0\n3,0; 3,1; 4,1; 4,0")
    with pytest.raises(DuplicateHeight):
        flatten_trace(two_flat_arches_one_height)


def test_push_down_checks_that_an_ascending_end_goes(monkeypatch):
    # the public surgery runs the check that flatten relies on
    monkeypatch.setattr(pushdown, "_ascending_count", lambda lines: 0)
    with pytest.raises(InvariantViolation, match="push-down must remove an ascending end"):
        push_down(parse_diagram(VALLEY), 1)


def test_flatten_grid_replays_through_public_push_down():
    # the integer-grid flatten against the Fraction surgery, step by step
    import random

    from conftest import replay_flatten

    pushes = 0
    for path in corpus_paths():
        pushes += len(replay_flatten(parse_diagram(path.read_text())).steps)
    rng = random.Random(20261018)
    for _ in range(40):
        pushes += len(replay_flatten(_random_diagram(rng)).steps)
    # a diagram that already has connectors, with feet at 3/2 and 7/2
    pushed = push_down(parse_diagram(VALLEY), 1)
    pushes += len(replay_flatten(pushed).steps)
    assert pushes > 150


def test_corrupted_surgery_result_is_rejected(monkeypatch):
    # a connector foot on an occupied column must fail the result's validation
    monkeypatch.setattr(pushdown, "_fresh_left", lambda occupied, x, unit: min(occupied))
    with pytest.raises(DuplicateColumn):
        flatten_trace(parse_diagram(VALLEY))
    with pytest.raises(DuplicateColumn):
        push_down(parse_diagram(VALLEY), 1)


def _surgery(text: str, height, u, w) -> RectilinearDiagram:
    """The private surgery on the diagram ``text`` at an interval [u, w]
    that the public checks of ``push_down`` would refuse."""
    diagram = parse_diagram(text)
    walk = pushdown._walk(diagram)
    line = pushdown._find_xline(walk.lines, height)
    return pushdown._push(diagram, walk, line, Fraction(u), Fraction(w), walk.boundary(), 1)


@pytest.mark.parametrize(
    "text, height, interval, pieces, error, message",
    (
        # an interval inside the x-line, away from both ends, leaves part of
        # it in each piece
        (VALLEY, 1, ("9/4", "11/4"),
         ("1,0; 1,3; 2,3; 2,1; 9/4,1; 9/4,0", "11/4,0; 11/4,1; 3,1; 3,4; 4,4; 4,0"),
         DuplicateHeight, "two x-lines share height y=1"),
        # both cuts in one column
        (VALLEY, 1, ("5/2", "5/2"),
         ("1,0; 1,3; 2,3; 2,1; 5/2,1; 5/2,0", "5/2,0; 5/2,1; 3,1; 3,4; 4,4; 4,0"),
         DuplicateColumn, "two y-lines share column x=5/2"),
        # a cut at the snake's descending junction, above its own foot
        ("1,0; 1,2; 4,2; 4,5; 5,5; 5,0", 2, (1, 2),
         ("1,0; 1,0", "2,0; 2,2; 4,2; 4,5; 5,5; 5,0"),
         MalformedDiagram, "band 0 has fewer than 4 vertices"),
    ),
)
def test_bad_pieces_raise_what_a_whole_walk_raises(
    text, height, interval, pieces, error, message
):
    # the surgery checks only its two pieces and the connector, with the
    # error and message a whole walk of the pieces gives
    with pytest.raises(error) as local:
        _surgery(text, height, *interval)
    with pytest.raises(error) as whole:
        validate_diagram(parse_diagram("\n".join(pieces)))
    assert type(local.value) is type(whole.value) is error
    assert str(local.value) == str(whole.value) == message


def test_flatten_rejects_a_bad_piece_on_its_grid(monkeypatch):
    # a site inside the x-line, on the flatten grid, gives two x-lines at
    # its height
    def inside(line, occupied):
        quarter = (line.x_right - line.x_left) // 4
        return line.x_left + quarter, line.x_right - quarter

    monkeypatch.setattr(pushdown, "_site_for", inside)
    with pytest.raises(DuplicateHeight, match="two x-lines share height"):
        flatten_trace(parse_diagram(VALLEY))


# ---------------------------------------------------------------------------
# diagram Seifert oracle
# ---------------------------------------------------------------------------

def test_oracle_calibration_anchors(trefoil_code):
    flat = code_to_flat_diagram(parse_code("1,2,1,2"))
    assert diagram_seifert_matrix(flat) == ((0, 0), (-1, 0))
    assert diagram_seifert_matrix(code_to_flat_diagram(parse_code("1,1,2,2"))) == (
        (0, 0), (0, 0),
    )
    tre = code_to_flat_diagram(trefoil_code)
    assert diagram_seifert_matrix(tre) == seifert_matrix(trefoil_code).rows


def test_oracle_matches_rule_on_flat_codes_up_to_six_bands():
    texts = (
        "1,1", "1,2,1,2", "1,2,2,1", "1,2,3,1,2,3", "1,3,1,2,3,2",
        "1,2,3,4,1,2,3,4", "1,2,4,3,1,2,4,3", "1,2,3,5,6,4,5,6,1,2,3,4",
        "1,2,3,1,2,4,6,5,3,4,6,5", "1,2,4,6,5,3,1,2,4,6,5,3",
    )
    for text in texts:
        code = parse_code(text)
        flat = code_to_flat_diagram(code)
        assert diagram_seifert_matrix(flat) == seifert_matrix(code).rows


def test_oracle_matches_rule_exhaustively_small():
    from conftest import all_codes

    for n in (1, 2, 3):
        for code in all_codes(n):
            flat = code_to_flat_diagram(code)
            assert diagram_seifert_matrix(flat) == seifert_matrix(code).rows


def test_oracle_matches_rule_on_all_table_codes():
    from flatbasket.tables import load_table

    for record in load_table():
        flat = code_to_flat_diagram(record.code)
        assert diagram_seifert_matrix(flat) == seifert_matrix(record.code).rows


def test_oracle_rejects_connectors():
    pushed = push_down(parse_diagram(VALLEY), 1)
    with pytest.raises(MalformedDiagram):
        diagram_seifert_matrix(pushed)


# ---------------------------------------------------------------------------
# the bundled corpus
# ---------------------------------------------------------------------------

def test_corpus_size_and_contents():
    names = [p.name for p in corpus_paths()]
    assert len(names) >= 20
    assert "valley.txt" in names
    assert any(name.startswith("flat_") for name in names)


def _random_diagram(rng, max_bands=4, max_xlines=4):
    """Any globally distinct column/height choice yields a valid diagram."""
    bands = []
    columns = rng.sample(range(1, 400), 80)
    heights = rng.sample(range(1, 400), 80)
    ci = hi = 0
    for _ in range(rng.randint(1, max_bands)):
        k = rng.randint(1, max_xlines)
        cols = columns[ci:ci + k + 1]
        ci += k + 1
        levels = heights[hi:hi + k]
        hi += k
        verts = [(cols[0], 0)]
        for j in range(k):
            verts.append((cols[j], levels[j]))
            verts.append((cols[j + 1], levels[j]))
        verts.append((cols[k], 0))
        bands.append(tuple((Fraction(x), Fraction(y)) for x, y in verts))
    return RectilinearDiagram(tuple(bands))


def test_random_diagrams_three_way_consistency():
    # flatten, the crossing oracle, and an independent boundary-trace
    # oracle (Wirtinger presentation + Fox calculus) must agree
    import random

    from boundary_oracle import boundary_alexander

    rng = random.Random(20250809)
    knots = 0
    for _ in range(120):
        diagram = _random_diagram(rng)
        validate_diagram(diagram)
        oracle = normalize_alexander(
            pencil_determinant(SeifertMatrix(diagram_seifert_matrix(diagram)))
        ).normalized
        result = flatten_trace(diagram)
        assert alexander(result.code).normalized == oracle
        if diagram_boundary_components(diagram) == 1:
            knots += 1
            assert boundary_alexander(diagram) == oracle
    assert knots >= 10


def test_boundary_oracle_matches_code_rule_on_flat_knots():
    from boundary_oracle import boundary_alexander

    for text in ("1,2,1,2", "1,2,3,4,1,2,3,4", "1,2,4,3,1,2,4,3",
                 "1,2,3,5,6,4,5,6,1,2,3,4", "1,3,2,6,5,1,6,4,5,3,2,4"):
        code = parse_code(text)
        assert boundary_alexander(code_to_flat_diagram(code)) == alexander(code).normalized


def test_oracle_flow_orientation_independent_of_path_start():
    # reversing a band's vertex list must not change the matrix
    diagram = corpus_diagram("trefoil_curled")
    reversed_bands = tuple(tuple(reversed(band)) for band in diagram.bands)
    flipped = RectilinearDiagram(reversed_bands)
    assert diagram_seifert_matrix(flipped) == diagram_seifert_matrix(diagram)


def test_corpus_consistency():
    for path in corpus_paths():
        diagram = parse_diagram(path.read_text())
        validate_diagram(diagram)
        oracle = normalize_alexander(
            pencil_determinant(SeifertMatrix(diagram_seifert_matrix(diagram)))
        )
        result = flatten_trace(diagram)
        for step in result.steps:
            assert step.euler_after == step.euler_before - 2
            assert step.boundary_after == step.boundary_before
            assert step.ascending_after < step.ascending_before
        final = alexander(result.code)
        assert final.normalized == oracle.normalized, path.name
        if not result.steps:
            assert diagram_seifert_matrix(diagram) == seifert_matrix(result.code).rows
