"""Command-line behaviour: outputs and exit codes."""

import argparse
import builtins
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from flatbasket import cli, invariants, seifert
from flatbasket.cli import build_parser, cli_dispatch
from flatbasket.codes import FlatBasketCode, UnderlyingDiagram, surface_stats
from flatbasket.invariants import PENCIL_CAP, arf_from_determinant
from flatbasket.pushdown import FLATTEN_CAP
from conftest import z_t_steps


def run(capsys, *argv):
    status = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_alexander_plain(capsys):
    status, out, _ = run(capsys, "alexander", "--code", "1,2,3,4,1,2,3,4")
    assert status == 0
    assert out.strip() == "t^2 - t + 1"


def test_alexander_json(capsys):
    status, out, _ = run(capsys, "alexander", "--code", "1,2,3,4,1,2,3,4", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["normalized"] == {"coeffs": [1, -1, 1], "min_degree": 0}
    assert payload["raw"] == {"coeffs": [1, -1, 1], "min_degree": 1}
    assert payload["span"] == 2 and payload["leading"] == 1


def test_validate_and_stats(capsys):
    status, out, _ = run(capsys, "validate", "--code", "(2,1,2,1)", "--json")
    assert status == 0
    assert json.loads(out)["canonical"] == "1,2,1,2"
    status, out, _ = run(capsys, "stats", "--code", "1,2,1,2")
    assert status == 0
    assert "boundary=1" in out


def test_matrix_output(capsys):
    status, out, _ = run(capsys, "matrix", "--code", "1,2,1,2", "--json")
    assert json.loads(out)["matrix"] == [[0, 0], [-1, 0]]
    status, out, _ = run(capsys, "matrix", "--code", "1,2,1,2", "--symmetrized", "--json")
    assert json.loads(out)["matrix"] == [[0, -1], [-1, 0]]


def test_bound_command(capsys):
    status, out, _ = run(
        capsys, "bound", "--code", "1,2,3,5,6,4,5,6,1,2,3,4", "--genus", "1", "--json"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["overall"] == 6 and payload["case"] == "non_monic"


def test_bound_rejects_links(capsys):
    status, _, err = run(capsys, "bound", "--code", "1,1")
    assert status == 1
    assert "error" in err


def test_domain_error_exit_code(capsys):
    status, _, err = run(capsys, "alexander", "--code", "1,2,1")
    assert status == 1
    assert "error" in err


def test_non_ascii_digits_are_domain_errors(capsys):
    for argv in (
        ("alexander", "--code", "1,²,1,²"),
        ("alexander", "--code", "١,٢,١,٢"),
        ("search", "-n", "2", "--target", "١,٢"),
        ("search", "-n", "2", "--target", "t^٢ - t + ١"),
        ("search", "-n", "2", "--target", "1_0,2"),
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ")


def test_overlong_numbers_are_domain_errors(capsys):
    # past Python's 4300-digit int-conversion limit
    huge = "9" * 5000
    for argv in (
        ("alexander", "--code", f"{huge},1"),
        ("search", "-n", "2", "--target", f"t^{huge}"),
        ("search", "-n", "2", "--target", f"{huge}t + 1"),
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ") and len(err) < 200


def test_long_coefficient_lists_are_domain_errors(capsys):
    # the degree cap of a t^k term holds for a coefficient list too
    target = "1," + "0," * 40_000 + "0"
    status, out, err = run(capsys, "search", "-n", "2", "--target", target)
    assert (status, out) == (1, "")
    assert err == f"error: more than {invariants.MAX_EXPONENT + 1} coefficients\n"


def test_polynomial_errors_name_a_short_excerpt(capsys):
    huge = "9" * 5000
    for target in (f"1,{huge}", f"1,{huge}x", f"t + 1 {huge}", f"t + 1 + {huge}x"):
        status, out, err = run(capsys, "search", "-n", "2", "--target", target)
        assert status == 1 and out == ""
        assert err.startswith("error: ") and len(err.encode()) < 200, err[:300]


def test_errors_on_long_inputs_stay_short(capsys):
    # 3,000 labels: each message gives a count and a short excerpt
    once = ",".join(map(str, range(1, 3001)))
    shifted = ",".join(map(str, list(range(2, 3002)) * 2))
    for argv, says in (
        (("alexander", "--code", "1," + "x" * 5000), "token 'xxx"),
        (("alexander", "--code", once), "3000 labels do not occur exactly twice"),
        (("alexander", "--code", shifted), "are not exactly 1..3000"),
        (("orbit-check", "--matching", once), "3000 matching tokens"),
    ):
        status, out, err = run(capsys, *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: ") and says in err
        assert len(err.encode()) < 200, err[:300]


def test_enumeration_caps_are_fixed(capsys):
    status, out, _ = run(capsys, "census", "-n", "4", "--cap", "6")
    assert (status, out) == (2, "")
    for command in ("census", "search"):
        status, out, err = run(capsys, command, "-n", "7")
        assert (status, out) == (1, "") and "exceeds the cap 6" in err
    nine = ",".join(map(str, list(range(1, 10)) * 2))
    status, out, _ = run(capsys, "orbit-check", "--matching", nine)
    assert (status, out) == (1, "")
    ten = ",".join(map(str, list(range(1, 11)) * 2))
    status, out, err = run(capsys, "orbit-check", "--matching", ten)
    assert (status, out) == (1, "") and "exceeds the orbit cap 8" in err
    status, out, _ = run(capsys, "orbit-check", "--matching", "1,2,1,2", "--cap", "9")
    assert (status, out) == (2, "")


def test_dispatch_calls_share_no_state(capsys):
    status, out, _ = run(capsys, "search", "-n", "4", "--no-such-flag")
    assert (status, out) == (2, "")
    status, out, _ = run(
        capsys, "search", "-n", "4", "--knots-only", "--target", "t^2 - t + 1"
    )
    assert status == 0 and len(out.splitlines()) == 2
    status, full, err = run(capsys, "search", "-n", "4", "--knots-only")
    assert status == 0 and "66 records" in err
    assert set(out.splitlines()) < set(full.splitlines()) and len(full.splitlines()) == 66
    status, again, _ = run(capsys, "search", "-n", "4", "--knots-only")
    assert (status, again) == (0, full)
    assert build_parser() is not build_parser()


# Every subcommand's options, one entry per option with all its spellings
# (help aside), so an added or removed option shows up here.
OPTIONS = {
    "validate": {"--json", "--code"},
    "stats": {"--json", "--code"},
    "matrix": {"--json", "--code", "--symmetrized"},
    "alexander": {"--json", "--code"},
    "invariants": {"--json", "--code"},
    "bound": {"--json", "--code", "--genus"},
    "passclass": {"--json", "--code"},
    "orbit-check": {"--json", "--matching"},
    "flatten": {"--json", "--diagram", "--trace"},
    "search": {
        "--json", "-n --bands", "--target", "--knots-only", "--dedup-mirror",
        "--jobs", "--store",
    },
    "census": {"--json", "-n --bands", "--jobs"},
    "verify-table": {"--json", "--table", "--references"},
}


def test_option_inventory_is_pinned(capsys):
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = {
        name: {
            " ".join(action.option_strings)
            for action in parser._actions
            if action.option_strings and action.dest != "help"
        }
        for name, parser in commands.choices.items()
    }
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 34
    status, out, _ = run(capsys, "search", "-n", "4", "--limit", "1")
    assert (status, out) == (2, "")


def test_usage_error_exit_code(capsys):
    status, _, _ = run(capsys, "no-such-command")
    assert status == 2
    status, _, _ = run(capsys, "alexander")
    assert status == 2


def test_passclass_and_orbit(capsys):
    status, out, _ = run(capsys, "passclass", "--code", "1,2,3,4,1,2,3,4", "--json")
    assert json.loads(out)["family"] == "II"
    status, out, _ = run(capsys, "orbit-check", "--matching", "1,2,1,2", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["arf_values"] == [0]


def test_flatten_command(tmp_path, capsys):
    diagram = tmp_path / "valley.txt"
    diagram.write_text("1,0; 1,3; 2,3; 2,1; 3,1; 3,4; 4,4; 4,0\n")
    status, out, _ = run(capsys, "flatten", "--diagram", str(diagram), "--trace")
    assert status == 0
    assert "push-down at y=1" in out
    assert "(1,3,1,2,3,2)" in out
    status, out, _ = run(capsys, "flatten", "--diagram", str(diagram), "--json")
    assert json.loads(out) == {"code": "1,3,1,2,3,2", "bands": 3, "push_downs": 1}


def test_flatten_rejects_non_rational_coordinates(tmp_path, capsys):
    diagram = tmp_path / "exponent.txt"
    for text in (
        "1,0; 1,1e2000000; 2,1e2000000; 2,0\n",
        "1,0; 1,1.5; 2,1.5; 2,0\n",
        "1,0; 1,1_0; 2,1_0; 2,0\n",
        "1,0; 1,\u0661; 2,\u0661; 2,0\n",
    ):
        diagram.write_text(text, encoding="utf-8")
        status, out, err = run(capsys, "flatten", "--json", "--diagram", str(diagram))
        assert status == 1 and out == ""
        assert "bad coordinate" in err and len(err) < 200
    diagram.write_bytes(b"1,0; 1,1; 2,1; 2,0\xff\n")
    status, out, err = run(capsys, "flatten", "--json", "--diagram", str(diagram))
    assert status == 1 and out == "" and "undecodable byte" in err


def test_undecodable_input_files_are_domain_errors(tmp_path, capsys):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe1\x00,\x002\x00\n\x00")
    for argv in (
        ("flatten", "--diagram", str(bad)),
        ("search", "-n", "2", "--store", str(bad)),
        ("verify-table", "--table", str(bad)),
        ("verify-table", "--references", str(bad)),
    ):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, ""), argv
        assert err == f"error: {bad}: undecodable byte at offset 0\n", argv


def _staircases(bands: int, xlines: int) -> str:
    """Side-by-side rising staircases on distinct columns and heights."""
    rows = []
    for b in range(bands):
        cols = [b * (xlines + 1) + j + 1 for j in range(xlines + 1)]
        verts = [(cols[0], 0)]
        for j in range(xlines):
            level = b * xlines + j + 1
            verts += [(cols[j], level), (cols[j + 1], level)]
        verts.append((cols[-1], 0))
        rows.append("; ".join(f"{x},{y}" for x, y in verts))
    return "\n".join(rows) + "\n"


def test_flatten_cap_is_fixed(tmp_path, capsys):
    diagram = tmp_path / "stairs.txt"
    diagram.write_text(_staircases(FLATTEN_CAP // 2, 2))
    status, out, _ = run(capsys, "flatten", "--json", "--diagram", str(diagram))
    assert status == 0 and json.loads(out)["push_downs"] == FLATTEN_CAP // 2
    diagram.write_text(_staircases(FLATTEN_CAP + 1, 1))
    start = time.perf_counter()
    status, out, err = run(capsys, "flatten", "--json", "--diagram", str(diagram))
    assert time.perf_counter() - start < 1
    assert (status, out) == (1, "")
    assert err == (
        f"error: diagram with {FLATTEN_CAP + 1} x-lines exceeds the flatten cap"
        f" {FLATTEN_CAP}\n"
    )


def _hostile_feet(bands: int, digits: int) -> str:
    """One arch per band, at height 1, 2, ...; its feet have denominators
    of ``digits`` + 1 digits, nearly coprime across feet, so their lcm has
    about 2 * bands * ``digits`` digits."""
    rows = []
    for i in range(bands):
        q, r = 10**digits + 4 * i + 1, 10**digits + 4 * i + 3
        left, right = f"{2 * i * q + 1}/{q}", f"{(2 * i + 1) * r + 1}/{r}"
        rows.append(f"{left},0; {left},{i + 1}; {right},{i + 1}; {right},0")
    return "\n".join(rows) + "\n"


def test_flatten_refuses_hostile_denominators(tmp_path, capsys):
    # the lcm of the denominators is folded only up to 3 * FLATTEN_CAP bits
    diagram = tmp_path / "hostile.txt"
    for text, message in (
        (_hostile_feet(32, 2000),
         f"diagram denominators exceed the flatten cap of {3 * FLATTEN_CAP} bits"),
        # an invalid drawing of that kind still gets its validation error
        (_hostile_feet(32, 2000) + "1,0; 1,7; 3,7; 3,0\n", "two x-lines share height y=7"),
    ):
        diagram.write_text(text)
        start = time.perf_counter()
        status, out, err = run(capsys, "flatten", "--json", "--diagram", str(diagram))
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (1, "", f"error: {message}\n")


def _all_crossing(bands: int) -> str:
    """1..n,1..n: every chord pair interleaves; a knot for even n."""
    return ",".join(map(str, list(range(1, bands + 1)) * 2))


def test_pencil_cap_is_fixed(monkeypatch, capsys):
    assert PENCIL_CAP == 56
    status, out, _ = run(capsys, "invariants", "--json", "--code", _all_crossing(PENCIL_CAP))
    assert status == 0 and json.loads(out)["determinant"] == PENCIL_CAP - 1
    status, out, _ = run(capsys, "passclass", "--json", "--code", _all_crossing(PENCIL_CAP))
    assert status == 0 and json.loads(out)["family"] == "I"

    # the cap is checked before any pencil determinant
    def refuse(rows):
        raise AssertionError("a pencil ran above the cap")

    monkeypatch.setattr(invariants, "_det_bareiss_int", refuse)
    monkeypatch.setattr(invariants, "_det_bareiss_poly", refuse)
    monkeypatch.setattr(invariants, "_signature_and_determinant_of_rows", refuse)
    over = _all_crossing(PENCIL_CAP + 2)
    for argv in (
        ("alexander",), ("invariants",), ("bound", "--genus", "1"), ("passclass",)
    ):
        status, out, err = run(capsys, *argv, "--code", over)
        assert (status, out) == (1, "")
        assert err == f"error: {PENCIL_CAP + 2} bands exceeds the pencil cap {PENCIL_CAP}\n"


def test_pencil_cap_is_checked_before_any_seifert_matrix(monkeypatch, capsys, tmp_path):
    # no command builds the Seifert rows or the crossing list of a code
    # above the cap; verify-table meets the cap in a row of its --table
    def refuse(*args):
        raise AssertionError("a Seifert matrix was built above the cap")

    monkeypatch.setattr(seifert, "_key_pencil", refuse)
    monkeypatch.setattr(UnderlyingDiagram, "crossings", property(refuse))
    over = _all_crossing(PENCIL_CAP + 1)
    knot = _all_crossing(PENCIL_CAP + 2)
    table = tmp_path / "over.tsv"
    table.write_text(f"3_1\t{knot}\t1\t4\n")
    for argv, bands in (
        (("matrix", "--code", over), PENCIL_CAP + 1),
        (("alexander", "--code", over), PENCIL_CAP + 1),
        (("invariants", "--code", over), PENCIL_CAP + 1),
        (("bound", "--code", knot), PENCIL_CAP + 2),
        (("verify-table", "--table", str(table)), PENCIL_CAP + 2),
    ):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, ""), argv
        assert err == f"error: {bands} bands exceeds the pencil cap {PENCIL_CAP}\n", argv


def _seeded_knot(rng: random.Random, bands: int) -> str:
    while True:
        word = [label for label in range(1, bands + 1) for _ in (0, 1)]
        rng.shuffle(word)
        if surface_stats(FlatBasketCode(tuple(word))).boundary == 1:
            return ",".join(map(str, word))


def test_single_code_commands_agree_at_the_pencil_cap(capsys):
    # a random knot of exactly PENCIL_CAP bands: every single-code command
    # answers, and Delta, det, Arf and the pass class tell one story
    rng = random.Random(PENCIL_CAP)
    code = _seeded_knot(rng, PENCIL_CAP)
    status, out, _ = run(capsys, "alexander", "--json", "--code", code)
    assert status == 0
    normalized = json.loads(out)["normalized"]["coeffs"]
    status, out, _ = run(capsys, "invariants", "--json", "--code", code)
    assert status == 0
    inv = json.loads(out)
    assert inv["alexander"]["coeffs"] == normalized
    assert inv["genus"] == PENCIL_CAP // 2
    assert inv["determinant"] == abs(sum(c * (-1) ** k for k, c in enumerate(normalized)))
    assert inv["arf"] == arf_from_determinant(inv["determinant"])
    status, out, _ = run(
        capsys, "bound", "--json", "--genus", str(inv["genus"]), "--code", code
    )
    assert status == 0
    bound = json.loads(out)
    monic = abs(normalized[-1]) == 1
    assert bound["degree_bound"] == len(normalized) - 1 + (2 if monic else 4)
    assert bound["overall"] == max(bound["degree_bound"], PENCIL_CAP + 2)
    status, out, _ = run(capsys, "passclass", "--json", "--code", code)
    assert status == 0
    assert json.loads(out)["family"] == ("II" if inv["arf"] else "I")

    over = _seeded_knot(rng, PENCIL_CAP + 2)
    for argv in (
        ("alexander",), ("invariants",), ("bound", "--genus", "1"), ("passclass",)
    ):
        status, out, err = run(capsys, *argv, "--code", over)
        assert (status, out) == (1, "")
        assert err == f"error: {PENCIL_CAP + 2} bands exceeds the pencil cap {PENCIL_CAP}\n"


def _perturb_once(monkeypatch, name, perturb, when):
    """Make the first call of ``invariants.<name>`` whose arguments satisfy
    ``when`` see its first argument changed by ``perturb``; return the list
    that records that it happened."""
    done = []
    real = getattr(invariants, name, None) or getattr(builtins, name)

    def faulty(a, *rest):
        if not done and when(a, *rest):
            done.append(a)
            a = perturb(a)
        return real(a, *rest)

    monkeypatch.setattr(invariants, name, faulty, raising=False)
    return done


def test_seeded_12_band_knots_take_monomial_steps(monkeypatch, capsys):
    # the fault tests below use three seeded 12-band knots: the first two
    # take Laurent steps only, and the third takes packed steps, from prev
    # [1] and after it, and its result drops three low coefficients
    steps = z_t_steps(monkeypatch)
    first, second, third = (_seeded_knot(random.Random(seed), 12) for seed in (12, 2, 173))
    assert run(capsys, "invariants", "--json", "--code", first)[0] == 0
    assert Counter(steps) == {("unit", 0): 9, ("shift", 1): 1}
    steps.clear()
    assert run(capsys, "invariants", "--json", "--code", second)[0] == 0
    assert Counter(steps) == {("unit", 0): 8, ("shift", 1): 2}
    steps.clear()
    assert run(capsys, "invariants", "--json", "--code", third)[0] == 0
    assert Counter(steps) == {
        ("unit", 0): 6, ("shift", 1): 1, ("shift", 2): 1,
        ("packed", False): 1, ("packed", True): 2, ("drop", 3): 1,
    }


def _assert_one_z_t_error(capsys, code):
    status, out, err = run(capsys, "invariants", "--json", "--code", code)
    assert (status, out, err) == (1, "", "error: inexact Z[t] Bareiss step\n")


def test_inexact_z_t_steps_exit_1_without_a_traceback(monkeypatch, capsys):
    # a numerator one unit off on a packed step, divided by a prev other
    # than 1: the checked divmod, then the fallback division, raises
    # InvariantViolation, so the command exits 1 with one error line
    code = _seeded_knot(random.Random(173), 12)
    done = _perturb_once(monkeypatch, "divmod", lambda a: a + 1, lambda a, b: b != 1)
    _assert_one_z_t_error(capsys, code)
    assert done
    monkeypatch.undo()
    monkeypatch.setattr(invariants, "_quotient_limit", lambda bits, prev: -1)
    done = _perturb_once(
        monkeypatch, "_poly_exact_div", lambda a: [a[0] + 1] + a[1:], lambda a, b: b != [1]
    )
    _assert_one_z_t_error(capsys, code)
    assert done


def _during_laurent_steps(monkeypatch, which) -> list:
    """A one-item list that holds k while a Laurent step of the Z[t]
    elimination on t^k with ``which(k)`` runs, and None otherwise."""
    active = [None]
    real = invariants._laurent_step

    def step(rows, rk, q, k, shifts):
        active[0] = k if which(k) else None
        try:
            return real(rows, rk, q, k, shifts)
        finally:
            active[0] = None

    monkeypatch.setattr(invariants, "_laurent_step", step)
    return active


def test_miscounted_powers_of_t_exit_1_without_a_traceback(monkeypatch, capsys):
    # a row strip after a step on t^k, k >= 1, that reports one power of t
    # more than it takes out: fraction_free's own degree and symmetry checks
    # raise, before the checked Delta compares the two methods
    active = _during_laurent_steps(monkeypatch, lambda k: k >= 1)
    done = []
    real = invariants._strip_t

    def strip(row):
        s = real(row)
        if active[0] and not done:
            done.append(s)
            return s + 1
        return s

    monkeypatch.setattr(invariants, "_strip_t", strip)
    status, out, err = run(
        capsys, "invariants", "--json", "--code", _seeded_knot(random.Random(12), 12)
    )
    assert done and (status, out) == (1, "")
    assert err == "error: pencil coefficients break c_(n-k) = (-1)^n c_k\n"


def test_dropped_coefficients_exit_1_without_a_traceback(monkeypatch, capsys):
    # the knot of seed 173 goes on to packed steps with e = -3 in det =
    # +-t^e det(block), so its last block's determinant drops three low
    # coefficients; with the lowest one unit off, their check raises
    real = invariants._packed_step
    done = []

    def last_step_off(rows, rk, q, pivot, prev):
        real(rows, rk, q, pivot, prev)
        if len(rows) == 1:
            done.append(rows[0][0][:3])
            rows[0][0] = [rows[0][0][0] + 1] + rows[0][0][1:]

    monkeypatch.setattr(invariants, "_packed_step", last_step_off)
    _assert_one_z_t_error(capsys, _seeded_knot(random.Random(173), 12))
    assert done == [[0, 0, 0]]


class _OffByOne(int):
    def __mul__(self, other):
        return int(self) * other + 1

    __rmul__ = __mul__


def test_product_off_in_a_shift_step_exits_1_without_a_traceback(monkeypatch, capsys):
    # a step on t^k with k >= 1: the products of the lowest nonzero
    # coefficient of a_iq one unit off change the block, and
    # fraction_free's own symmetry check catches it
    active = _during_laurent_steps(monkeypatch, lambda k: k >= 1)
    done = []
    real = invariants._poly_sub_mul

    def faulty(a, c, b):
        if active[0] and not done:
            i = next(i for i, x in enumerate(c) if x)
            done.append(i)
            c = c[:i] + [_OffByOne(c[i])] + c[i + 1:]
        return real(a, c, b)

    monkeypatch.setattr(invariants, "_poly_sub_mul", faulty)
    code = _seeded_knot(random.Random(2), 12)
    status, out, err = run(capsys, "invariants", "--json", "--code", code)
    assert done and (status, out) == (1, "")
    assert err == "error: pencil coefficients break c_(n-k) = (-1)^n c_k\n"


def test_faulty_unit_step_exits_1_without_a_traceback(monkeypatch, capsys):
    # a unit step (pivot 1 while prev is 1) divides nothing, and the block
    # it leaves is the Schur complement itself, so no later division can
    # see a wrong entry there; with every unit-step update one unit off,
    # fraction_free's own degree check catches it
    code = _seeded_knot(random.Random(12), 12)
    active = _during_laurent_steps(monkeypatch, lambda k: k == 0)
    updates = []
    real = invariants._poly_sub_mul

    def faulty(a, c, b):
        if active[0] is None:
            return real(a, c, b)
        updates.append(1)
        return real(a, c, b) + [1]

    monkeypatch.setattr(invariants, "_poly_sub_mul", faulty)
    status, out, err = run(capsys, "invariants", "--json", "--code", code)
    assert updates and (status, out) == (1, "")
    assert err == "error: pencil determinant has degree above n\n"


def test_flatten_errors_quote_drawing_coordinates(tmp_path, capsys):
    diagram = tmp_path / "invalid.txt"
    for text, message in (
        ("1,0; 1,2; 3/2,2; 3/2,0\n5,0; 5,3; 3/2,3; 3/2,4; 6,4; 6,0\n",
         "error: two y-lines share column x=3/2\n"),
        # a y-line that ends on another band's x-line at (3/2, 5/2): the
        # shared height is reported first
        ("1,0; 1,5/2; 4,5/2; 4,0\n3/2,0; 3/2,5/2; 5,5/2; 5,0\n",
         "error: two x-lines share height y=5/2\n"),
    ):
        diagram.write_text(text)
        for flags in ((), ("--json",), ("--trace",)):
            status, out, err = run(capsys, "flatten", *flags, "--diagram", str(diagram))
            assert (status, out, err) == (1, "", message)


def test_invariants_builds_one_seifert_matrix(monkeypatch, capsys):
    from flatbasket import invariants

    calls = []
    real = invariants.seifert_matrix

    def counted(code):
        calls.append(code)
        return real(code)

    monkeypatch.setattr(invariants, "seifert_matrix", counted)
    status, out, _ = run(capsys, "invariants", "--json", "--code", "1,2,3,4,1,2,3,4")
    assert status == 0
    payload = json.loads(out)
    assert payload["signature"] == 2 and payload["determinant"] == 3
    assert len(calls) == 1


def test_flatten_missing_file(capsys):
    status, _, err = run(capsys, "flatten", "--diagram", "does-not-exist.txt")
    assert status == 1


def test_search_command(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    status, out, err = run(
        capsys,
        "search", "-n", "4", "--target", "t^2 - t + 1", "--knots-only",
        "--json", "--store", str(store),
    )
    assert status == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(rec["code"] == "1,2,3,4,1,2,3,4" for rec in lines)
    assert "2 records" in err
    assert len(store.read_text().splitlines()) == 2


def test_search_store_with_a_non_object_line_is_an_error(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    # valid JSON, but not an object with a string "code"
    for line in ("5", "[]", "null", '"1,1"', "{}", '{"code": 5}', '{"code": null}'):
        store.write_text(line + "\n")
        status, out, err = run(capsys, "search", "-n", "2", "--store", str(store))
        assert status == 1 and err.startswith("error: ") and ":1: " in err, err
        assert store.read_text() == line + "\n"
    # JSON nested past the decoder's recursion limit
    store.write_text("[" * 100_000 + "\n")
    status, out, err = run(capsys, "search", "-n", "2", "--store", str(store))
    assert (status, out) == (1, "")
    assert err == f"error: {store}:1: unreadable store line at byte 0\n"


def test_search_store_cut_mid_line_names_where_the_line_starts(tmp_path, capsys):
    # a store whose last write was cut off mid-line: the error gives the byte
    # at which the torn line starts, counted in the file as stored (a CRLF
    # line end and a two-byte character come before it), and writes nothing
    store = tmp_path / "torn.jsonl"
    whole = '{"code":"9,9","note":"\u00e9"}\r\n{"code":"8,8"}\n'.encode()
    torn = whole + b'{"code":"1,2,1,2","b":1,"gen'
    store.write_bytes(torn)
    status, out, err = run(capsys, "search", "-n", "2", "--store", str(store))
    assert (status, out) == (1, "")
    assert err == f"error: {store}:3: unreadable store line at byte {len(whole)}\n"
    assert len(whole) == 43 and store.read_bytes() == torn


def test_search_store_without_a_final_newline_takes_new_records(tmp_path, capsys):
    # the last line has parsed, so it is complete: the first new record
    # goes on a line of its own, and the next run reads every line back
    store = tmp_path / "glued.jsonl"
    store.write_text('{"code":"9,9"}')
    status, _, err = run(capsys, "search", "-n", "2", "--store", str(store))
    assert status == 0 and f"store {store}: 2 appended, 0 verified" in err
    status, _, err = run(capsys, "search", "-n", "2", "--store", str(store))
    assert status == 0 and f"store {store}: 0 appended, 2 verified" in err
    lines = store.read_text().splitlines()
    assert len(lines) == 3 and lines[0] == '{"code":"9,9"}'
    assert store.read_text().endswith("}\n")


def test_census_six_bands_output_is_pinned(capsys):
    # the whole n = 6 knot census, plain and --json, byte for byte
    digests = {
        (): "51231c86843e6ed818dcf32626c478e3694cdbc76c90c0fea23cb9a8006449b2",
        ("--json",): "61cb24b146e9df2efe562db31fb05c6bce80c7bf7474533cfaf4b1496529f783",
    }
    for extra, digest in digests.items():
        status, out, _ = run(capsys, "census", "-n", "6", *extra)
        assert (status, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_census_command(capsys):
    status, out, _ = run(capsys, "census", "-n", "2", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload == [{"delta": {"coeffs": [1], "min_degree": 0}, "count": 1}]


def test_verify_table_command(capsys):
    status, out, _ = run(capsys, "verify-table")
    assert status == 0
    assert "84/84 rows pass" in out


def test_verify_table_reports_a_row_without_a_bound(tmp_path, capsys):
    # 2 * genus = 0 < span 2 leaves the bound undefined: that row fails
    # check (v) and the report goes on
    table = tmp_path / "table.tsv"
    table.write_text(
        "3_1\t(1,2,3,4,1,2,3,4)\t1\t4\n4_1\t(1,2,4,3,1,2,4,3)\t0\t4\n",
        encoding="utf-8",
    )
    status, out, err = run(capsys, "verify-table", "--table", str(table))
    assert (status, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("ok   3_1 ")
    assert lines[1].startswith("FAIL 4_1 ") and "GENUS!" in lines[1]
    assert "BOUND!" in lines[1] and lines[2] == "1/2 rows pass"
    # a link row: zero polynomial, no bound, KNOT! instead of an abort
    table.write_text("3_1\t(1,1,2,2)\t1\t2\n", encoding="utf-8")
    status, out, err = run(capsys, "verify-table", "--table", str(table))
    assert (status, err) == (1, "")
    assert out.startswith("FAIL 3_1 ") and "KNOT!" in out


_IMPORT_STEPS = """
import json, sys
from flatbasket import cli

watched = sys.argv[1:]
steps = []
cli.build_parser()
steps.append([0] + [m for m in watched if m in sys.modules])
for argv in (
    ["invariants", "--code", "1,2,3,4,1,2,3,4"],
    ["search", "-n", "4", "--knots-only"],
):
    status = cli.cli_dispatch(argv)
    steps.append([status] + [m for m in watched if m in sys.modules])
print(json.dumps(steps))
"""


def test_each_command_imports_only_the_modules_it_runs():
    # one fresh process: the parser and a one-code command load none of the
    # modules that only other commands (or a process pool) need, and a serial
    # search loads its own modules but no pool
    watched = [
        "concurrent.futures", "multiprocessing", "fractions", "flatbasket.search",
        "flatbasket.pushdown", "flatbasket.tables", "flatbasket.passclass",
        "flatbasket.bounds",
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_STEPS, *watched],
        capture_output=True, env=env, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [[0], [0], [0, "flatbasket.search", "flatbasket.bounds"]]


def test_console_search_writes_golden_output_to_a_pipe(tmp_path):
    # the real entry point, stdout a pipe and the store a file: each is
    # written in one piece, and both must match the golden digests
    store = tmp_path / "store.jsonl"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flatbasket.cli", "search", "-n", "4",
         "--knots-only", "--json", "--store", str(store)],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "5b85e29c6077eb6c9cfac6eba3b2f0c4b551d9e8d884d24d14b117668803f753"
    )
    assert hashlib.sha256(store.read_bytes()).hexdigest() == (
        "a1b77a12b995aaf19699c015e10dbbe7678a0d4ef52fb917d3e91dc5cec71627"
    )
    assert proc.stderr.decode() == f"store {store}: 66 appended, 0 verified\n66 records\n"
