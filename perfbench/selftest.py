"""Self-test of the benchmark harness on tiny sizes; not part of the test suite.

    python3 perfbench/selftest.py

It checks four things:

- `BENCHMARK.json` names exactly the metrics and units that `run.py`
  prints, within the format limits.
- Each workload at a tiny size (search and census at n = 2, 8-band codes,
  2-band diagrams) runs correctly, untraced and traced, and prints every
  metric with its unit.
- A deliberately wrong expected digest is reported as a failure.
- Run from a directory that holds only the benchmark, the harness exits
  non-zero without printing a result.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the contract keys",
    )
    end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end == run.END_TO_END, "end_to_end names and units match run.py")
    expect(layer == {k: v[0] for k, v in run.PER_LAYER.items()}, "per_layer names and units match run.py")
    expect({w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS), "every listed workload exists")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)), "names are valid and unique")
    expect(all(UNIT.match(u) for u in [*end.values(), *layer.values()]), "units are valid")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]), "each why is one short line")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values()), "bounds <= 0.25, setup_s largest")


def check_workload(workload, trace: bool) -> None:
    result = run.run_workload(workload, seed=7, seconds=1.0, trace=trace)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.print_report(workload.name, 7, result)
    wanted = run.PER_LAYER if trace else run.END_TO_END
    label = f"{workload.name} trace={int(trace)}"
    expect(result["correct"] and result["failed"] == 0, f"{label} is correct ({result['problems'][:2]})")
    expect(set(result["metrics"]) == set(wanted), f"{label} reports exactly its metrics")
    lines = printed.getvalue().splitlines()
    expect(
        all(any(line.split()[:1] == [name] and line.split()[2] == entry["unit"] for line in lines)
            for name, entry in result["metrics"].items()),
        f"{label} prints every metric with its unit",
    )


def check_wrong_digest() -> None:
    expected = json.loads(json.dumps(wl.EXPECTED["search"]))
    expected["2"]["stdout_sha256"] = "0" * 64
    result = run.run_workload(wl.search_workload(2, expected), seed=7, seconds=0.5, trace=False)
    expect(
        not result["correct"] and result["failed"] == result["attempted"]
        and "stdout_sha256" in result["problems"][0],
        "a wrong expected digest is reported as a failure",
    )


def check_bare_directory() -> None:
    bare = BENCH / "work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("work", "runs", "__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(), "without src/ it exits non-zero and prints no result")


def main() -> int:
    check_benchmark_json()
    for workload in (
        wl.search_workload(2),
        wl.census_workload(2),
        wl.invariants_workload(8, count=50),
        wl.flatten_verify_workload(2, 3, 4, cycles=4),
    ):
        for trace in (False, True):
            check_workload(workload, trace)
    check_wrong_digest()
    check_bare_directory()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
