"""Workloads: seeded inputs, the CLI commands they drive, output checks, and
the traced replay of each command through the library's public functions.

A command is an argv list for ``flatbasket.cli.cli_dispatch``.  Its kind is
its first word.  For every kind there is

* ``check``: what must hold for its exit code and stdout, for any seed;
* ``codes_in``: how many codes one command completes;
* ``replay``: the same work rebuilt from public functions, one span around
  each call, returning the exact stdout the CLI printed.

``import flatbasket`` must already resolve to the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Callable

from flatbasket import search as search_module
from flatbasket.bounds import fpbk_lower_bound
from flatbasket.codes import (
    FlatBasketCode,
    boundary_components,
    canonicalize,
    parse_code,
    parse_matching,
    underlying,
)
from flatbasket.invariants import (
    alexander,
    arf,
    normalize_alexander,
    pencil_determinant,
    signature,
)
from flatbasket.pushdown import diagram_seifert_matrix, flatten_trace, parse_diagram
from flatbasket.search import (
    SearchRecord,
    enumerate_codes,
    enumerate_matchings,
    record_to_json,
    write_store,
)
from flatbasket.seifert import SeifertMatrix, seifert_matrix
from flatbasket.tables import load_references, load_table

from tracer import Tracer

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# seeded input generators
# ---------------------------------------------------------------------------

def knot_words(rng: random.Random, bands: int, count: int) -> list[str]:
    """Uniform random words with each label twice, kept when they bound one
    component."""
    out = []
    while len(out) < count:
        word = [label for label in range(1, bands + 1) for _ in (0, 1)]
        rng.shuffle(word)
        if boundary_components(underlying(FlatBasketCode(tuple(word)))) == 1:
            out.append(",".join(map(str, word)))
    return out


def diagram_text(rng: random.Random, bands: int, max_xlines: int) -> str:
    """A rectilinear diagram with globally distinct columns and heights,
    which makes it valid.  Each band is a staircase; the bands' x-line
    counts are distinct draws from 1..max_xlines, so every diagram carries
    a similar amount of push-down work."""
    columns = rng.sample(range(1, 400), 80)
    heights = rng.sample(range(1, 400), 80)
    ci = hi = 0
    lines = []
    for k in rng.sample(range(1, max_xlines + 1), bands):
        cols = columns[ci:ci + k + 1]
        levels = heights[hi:hi + k]
        ci += k + 1
        hi += k
        verts = [(cols[0], 0)]
        for j in range(k):
            verts += [(cols[j], levels[j]), (cols[j + 1], levels[j])]
        verts.append((cols[k], 0))
        lines.append("; ".join(f"{x},{y}" for x, y in verts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    primary: str  # command kind whose costs give p50_ref and p90_ref
    make_commands: Callable[[random.Random, Path], list[list[str]]]
    warmup: list[str]
    expected: dict = field(default_factory=dict)  # seed-independent outputs


def _warm_code(bands: int) -> list[str]:
    return ["invariants", "--json", "--code", ",".join(map(str, list(range(1, bands + 1)) * 2))]


def search_workload(bands: int, expected: dict | None = None) -> Workload:
    def make(rng, workdir):
        store = str(workdir / "store-{index}.jsonl")
        return [["search", "-n", str(bands), "--knots-only", "--json", "--store", store]]

    return Workload(
        name=f"search{bands}",
        primary="search",
        make_commands=make,
        warmup=_warm_code(bands),
        expected=EXPECTED["search"] if expected is None else expected,
    )


def census_workload(bands: int) -> Workload:
    return Workload(
        name=f"census{bands}",
        primary="census",
        make_commands=lambda rng, workdir: [["census", "-n", str(bands), "--json"]],
        warmup=_warm_code(bands),
        expected=EXPECTED["census"],
    )


def stratified(rng: random.Random, words: list[str], strata: int = 10) -> list[str]:
    """The words reordered so that every prefix of ``k * strata`` words holds
    ``k`` from each crossing-count stratum of the pool.  A code's cost
    follows its number of crossing chord pairs, and a run uses only a
    prefix, so this keeps the mix of cheap and costly codes the same from
    run to run."""
    def crossings(word: str) -> int:
        matrix = seifert_matrix(FlatBasketCode(tuple(map(int, word.split(",")))))
        return sum(1 for row in matrix.rows for x in row if x)

    ranked = sorted(words, key=crossings)
    size = len(ranked) // strata
    groups = [ranked[k * size:(k + 1) * size] for k in range(strata)]
    for group in groups:
        rng.shuffle(group)
    out = []
    for position in range(size):
        round_ = [group[position] for group in groups]
        rng.shuffle(round_)
        out += round_
    return out


def invariants_workload(bands: int, count: int = 600) -> Workload:
    def make(rng, workdir):
        words = stratified(rng, knot_words(rng, bands, count))
        return [["invariants", "--json", "--code", w] for w in words]

    return Workload(
        name=f"invariants{bands}",
        primary="invariants",
        make_commands=make,
        warmup=_warm_code(bands),
    )


def flatten_verify_workload(
    bands: int, max_xlines: int, matching_bands: int, cycles: int = 200
) -> Workload:
    """Each cycle: six diagrams flattened, one table verification, one orbit
    check."""

    def make(rng, workdir):
        matchings = knot_words(rng, matching_bands, cycles)
        commands = []
        for cycle in range(cycles):
            for k in range(6):
                path = workdir / f"diagram-{cycle}-{k}.txt"
                path.write_text(diagram_text(rng, bands, max_xlines))
                commands.append(["flatten", "--json", "--diagram", str(path)])
            commands.append(["verify-table", "--json"])
            commands.append(["orbit-check", "--json", "--matching", matchings[cycle]])
        return commands

    return Workload(
        name="flatten-verify",
        primary="flatten",
        make_commands=make,
        warmup=_warm_code(matching_bands),
    )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "search4": lambda: search_workload(4),
    "census4": lambda: census_workload(4),
    "invariants24": lambda: invariants_workload(24),
    "flatten-verify": lambda: flatten_verify_workload(5, 5, 6),
    # Not in BENCHMARK.json: one command takes 30-45 s, too long and too
    # noisy for the gated runs, but it checks the full n = 6 output digests.
    "search6": lambda: search_workload(6),
}


# ---------------------------------------------------------------------------
# output checks (never timed)
# ---------------------------------------------------------------------------

def check(
    workload: Workload, argv: list[str], exit_code: int, stdout: str, tracer: Tracer | None = None
) -> list[str]:
    """Problems with one command's result; empty when it is correct.  With a
    tracer, the flatten check's crossing oracle gets a span of its own."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    kind = argv[0]
    if kind == "search":
        return _check_search(workload.expected, argv, stdout)
    if kind == "census":
        return _check_census(workload.expected, argv, stdout)
    if kind == "invariants":
        return _check_invariants(argv, json.loads(stdout))
    if kind == "flatten":
        return _check_flatten(argv, json.loads(stdout), tracer)
    if kind == "verify-table":
        rows = json.loads(stdout)
        passed = sum(row["passed"] for row in rows)
        return [] if passed == len(rows) == 84 else [f"verify-table passed {passed}/{len(rows)} rows"]
    if kind == "orbit-check":
        return [] if json.loads(stdout)["pass"] else ["orbit-check did not pass"]
    return [f"no check for {kind}"]


def _against_expected(expected: dict, argv: list[str], found: dict) -> list[str]:
    want = expected.get(_option(argv, "-n"))
    if want is None:
        return [f"no expected outputs for {argv[0]} -n {_option(argv, '-n')}"]
    return [f"{argv[0]} {what} is {got}, expected {want[what]}"
            for what, got in found.items() if got != want[what]]


def _check_search(expected: dict, argv: list[str], stdout: str) -> list[str]:
    lines = stdout.splitlines()
    return _against_expected(expected, argv, {
        "stdout_sha256": sha256(stdout),
        "store_sha256": sha256(Path(_option(argv, "--store")).read_bytes()),
        "records": len(lines),
        "distinct_delta": len({tuple(json.loads(line)["delta"]) for line in lines}),
    })


def _check_census(expected: dict, argv: list[str], stdout: str) -> list[str]:
    rows = json.loads(stdout)
    return _against_expected(expected, argv, {
        "stdout_sha256": sha256(stdout),
        "codes": sum(row["count"] for row in rows),
        "distinct_delta": len(rows),
    })


def _check_invariants(argv: list[str], payload: dict) -> list[str]:
    if payload["boundary"] != 1:
        return ["generated code is not a knot"]
    n = len(_option(argv, "--code").split(",")) // 2
    coeffs = payload["alexander"]["coeffs"]
    at_one = sum(coeffs)
    at_minus_one = sum(c if k % 2 == 0 else -c for k, c in enumerate(coeffs))
    det, arf_value, sig, genus = (
        payload["determinant"], payload["arf"], payload["signature"], payload["genus"]
    )
    problems = []
    if abs(at_one) != 1:
        problems.append(f"Delta(1) = {at_one}")
    if det != abs(at_minus_one) or det % 2 == 0:
        problems.append(f"det {det} is not |Delta(-1)| = {abs(at_minus_one)} or not odd")
    elif arf_value != (0 if det % 8 in (1, 7) else 1):
        problems.append(f"arf {arf_value} disagrees with det {det} mod 8")
    if sig % 2 or abs(sig) > 2 * genus:
        problems.append(f"signature {sig} is odd or exceeds 2g = {2 * genus}")
    if 2 * genus != n:
        problems.append(f"genus {genus} is not n/2 = {n / 2}")
    return problems


def _check_flatten(argv: list[str], payload: dict, tracer: Tracer | None) -> list[str]:
    diagram = parse_diagram(Path(_option(argv, "--diagram")).read_text())
    if tracer is None:
        matrix = diagram_seifert_matrix(diagram)
    else:
        with tracer.span("pushdown.diagram_seifert_matrix"):
            matrix = diagram_seifert_matrix(diagram)
    oracle = normalize_alexander(pencil_determinant(SeifertMatrix(matrix), "eval_interp"))
    flat = alexander(parse_code(payload["code"]), method="eval_interp")
    if oracle.normalized != flat.normalized:
        return [f"flattened Delta {flat} differs from the drawing's {oracle}"]
    return []


def codes_in(argv: list[str], stdout: str) -> int:
    """Codes one command completed: search records, census codes, table rows,
    orbit codes, one for a single code or a flattened diagram."""
    kind = argv[0]
    if kind == "search":
        return stdout.count("\n")
    if kind == "census":
        return sum(row["count"] for row in json.loads(stdout))
    if kind == "verify-table":
        return len(json.loads(stdout))
    if kind == "orbit-check":
        return json.loads(stdout)["orbit_size"]
    return 1


# ---------------------------------------------------------------------------
# traced replay through public functions
# ---------------------------------------------------------------------------

def replay(tracer: Tracer, argv: list[str], store: Path) -> str:
    """Redo one command through public functions and return its stdout."""
    kind = argv[0]
    with tracer.span(f"cli.{kind}"):
        if kind == "search":
            return _replay_search(tracer, int(_option(argv, "-n")), store)
        if kind == "census":
            return _replay_census(tracer, int(_option(argv, "-n")))
        if kind == "invariants":
            return _replay_invariants(tracer, _option(argv, "--code"))
        if kind == "flatten":
            return _replay_flatten(tracer, _option(argv, "--diagram"))
        if kind == "verify-table":
            return _replay_verify_table(tracer)
        if kind == "orbit-check":
            return _replay_orbit_check(tracer, _option(argv, "--matching"))
    raise ValueError(f"no replay for {kind}")


class _CountingPermutations:
    """Stands in for ``itertools.permutations`` inside the search module, so
    the labelings that enumeration really scans are counted."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, *args):
        for perm in permutations(*args):
            self.tracer.counts["search.labelings_tried"] += 1
            yield perm


def _search_records(tracer: Tracer, bands: int) -> list[SearchRecord]:
    """All canonical knot codes with their records, as ``search`` builds them."""
    span, counts = tracer.span, tracer.counts
    with span("search.enumerate_matchings"):
        matchings = list(enumerate_matchings(bands, knots_only=True))
    counts["search.knot_matchings"] += len(matchings)
    records = []
    original = search_module.permutations
    search_module.permutations = _CountingPermutations(tracer)
    try:
        for matching in matchings:
            with span("codes.boundary_components"):
                b = boundary_components(matching)
            genus = (1 + bands - b) // 2
            with span("search.enumerate_codes"):
                codes = enumerate_codes(matching)
            counts["search.codes_kept"] += len(codes)
            for code in codes:
                records.append(_search_record(tracer, code, b, genus))
    finally:
        search_module.permutations = original
    records.sort(key=lambda r: r.code.word)
    return records


def _replay_search(tracer: Tracer, bands: int, store: Path) -> str:
    records = _search_records(tracer, bands)
    with tracer.span("search.write_store.append"):
        appended, _ = write_store(store, records)
    with tracer.span("search.write_store.verify"):
        again, verified = write_store(store, records)
    if (appended, again, verified) != (len(records), 0, len(records)):
        raise RuntimeError(f"store replay appended {appended}, then {again} and verified {verified}")
    tracer.counts["search.store_bytes"] += store.stat().st_size
    lines = []
    for record in records:
        with tracer.span("search.record_to_json"):
            payload = record_to_json(record)
        lines.append(json.dumps(payload, sort_keys=True) + "\n")
    return "".join(lines)


def _replay_census(tracer: Tracer, bands: int) -> str:
    histogram: dict = {}
    for record in _search_records(tracer, bands):
        key = record.delta.normalized
        histogram[key] = histogram.get(key, 0) + 1
    items = sorted(histogram.items(), key=lambda kv: (len(kv[0].coeffs), kv[0].coeffs))
    return json.dumps([{"delta": _poly_json(poly), "count": count} for poly, count in items]) + "\n"


def _search_record(tracer: Tracer, code: FlatBasketCode, b: int, genus: int) -> SearchRecord:
    span = tracer.span
    with span("seifert.seifert_matrix"):
        matrix = seifert_matrix(code)
    with span("invariants.pencil_eval_interp"):
        raw = pencil_determinant(matrix, "eval_interp")
    delta = normalize_alexander(raw)
    det = arf_value = None
    if b == 1:
        det = abs(delta.normalized.evaluate(-1))
        arf_value = 0 if det % 8 in (1, 7) else 1
        if delta.span:
            with span("bounds.fpbk_lower_bound"):
                bound = fpbk_lower_bound(delta, genus=delta.span // 2)
            if code.n < bound.overall:
                raise RuntimeError(f"{code} has fewer bands than its bound {bound.overall}")
    with span("invariants.signature"):
        sig = signature(code)
    return SearchRecord(code, b, genus, delta, det, arf_value, sig)


def _traced_alexander(tracer: Tracer, code: FlatBasketCode, checked: bool):
    with tracer.span("seifert.seifert_matrix"):
        matrix = seifert_matrix(code)
    with tracer.span("invariants.pencil_fraction_free"):
        raw = pencil_determinant(matrix, "fraction_free")
    if checked:
        with tracer.span("invariants.pencil_eval_interp"):
            again = pencil_determinant(matrix, "eval_interp")
        if again != raw:
            raise RuntimeError(f"pencil methods disagree on {code}")
    return normalize_alexander(raw)


def _traced_boundary(tracer: Tracer, code: FlatBasketCode) -> int:
    diagram = underlying(code)
    with tracer.span("codes.boundary_components"):
        return boundary_components(diagram)


def _poly_json(poly) -> dict:
    return {"coeffs": list(poly.coeffs), "min_degree": 0}


def _replay_invariants(tracer: Tracer, text: str) -> str:
    code = parse_code(text)
    b = _traced_boundary(tracer, code)
    delta = _traced_alexander(tracer, code, checked=True)
    with tracer.span("invariants.signature"):
        sig = signature(code)
    det = arf_value = None
    if b == 1:
        # knot_determinant: the boundary walk and Delta again, then arf,
        # which computes both once more inside its own span
        _traced_boundary(tracer, code)
        det = abs(_traced_alexander(tracer, code, checked=False).normalized.evaluate(-1))
        with tracer.span("invariants.arf"):
            arf_value = arf(code)
    payload = {
        "bands": code.n,
        "boundary": b,
        "genus": (1 + code.n - b) // 2,
        "alexander": _poly_json(delta.normalized),
        "signature": sig,
        "determinant": det,
        "arf": arf_value,
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _replay_flatten(tracer: Tracer, path: str) -> str:
    text = Path(path).read_text()
    with tracer.span("pushdown.parse_diagram"):
        diagram = parse_diagram(text)
    with tracer.span("pushdown.flatten_trace"):
        result = flatten_trace(diagram)
    tracer.counts["pushdown.push_downs"] += len(result.steps)
    payload = {
        "code": ",".join(map(str, result.code.word)),
        "bands": result.code.n,
        "push_downs": len(result.steps),
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _replay_verify_table(tracer: Tracer) -> str:
    with tracer.span("tables.verify_table"):
        records = load_table()
        references = load_references()
        rows = []
        for record in records:
            b = _traced_boundary(tracer, record.code)
            delta = _traced_alexander(tracer, record.code, checked=True)
            span = delta.span or 0
            leading = abs(delta.leading or 1)
            checks = {"knot": b == 1}
            checks["alexander"] = delta.normalized == references[record.name]
            checks["bands"] = record.code.n == record.fpbk_high
            with tracer.span("bounds.fpbk_lower_bound"):
                bound = fpbk_lower_bound(delta, genus=record.genus)
            checks["bound"] = bound.overall == record.fpbk_low
            checks["genus"] = 2 * record.genus >= span
            sharpened = leading != 1 and span + 4 > 2 * record.genus + 2
            checks["bullet"] = record.bullet == sharpened
            passed = all(checks.values())
            tracer.counts["tables.rows_passed"] += passed
            rows.append({"name": record.name, "checks": checks, "passed": passed})
    return json.dumps(rows) + "\n"


def _replay_orbit_check(tracer: Tracer, text: str) -> str:
    diagram = parse_matching(text)
    with tracer.span("codes.boundary_components"):
        b = boundary_components(diagram)
    if b != 1:
        raise RuntimeError(f"matching {text} is not a knot diagram")
    with tracer.span("passclass.labeling_orbit"):
        chord_at = [0] * (2 * diagram.n)
        for idx, (p, q) in enumerate(diagram.pairs()):
            chord_at[p - 1] = chord_at[q - 1] = idx
        seen = set()
        for perm in permutations(range(1, diagram.n + 1)):
            word = tuple(perm[c] for c in chord_at)
            with tracer.span("codes.canonicalize"):
                seen.add(canonicalize(FlatBasketCode(word)).word)
        orbit = [FlatBasketCode(w) for w in sorted(seen)]
    tracer.counts["passclass.orbit_size"] += len(orbit)
    values = set()
    for code in orbit:
        with tracer.span("invariants.arf"):
            values.add(arf(code))
    payload = {
        "arf_values": sorted(values),
        "orbit_size": len(orbit),
        "pass": len(values) == 1,
    }
    return json.dumps(payload, sort_keys=True) + "\n"
