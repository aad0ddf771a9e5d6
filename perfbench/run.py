"""Benchmark of the flatbasket CLI: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload search4 --seed 1 --seconds 20 --trace 0

Run from any directory; the package is imported from the ``src`` directory
of the checkout that holds this file.  Inputs come from ``--seed``.  A fresh
child process (``worker.py``) issues the workload's commands to
``cli_dispatch`` back to back for ``--seconds`` seconds (at least one
command); every output is then checked outside the timed window.

``--trace 0`` prints the end-to-end metrics.  Command latencies are gated in
``ref`` units, each divided by a reference loop timed next to it, because
the machine's own speed drifts (see DESIGN.md); raw milliseconds are in the
report.  ``--trace 1`` runs the same commands untraced, replays them through
the library's public functions with a span around each call, requires the
replay to print byte-identical output, and prints the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A run record and, when traced, the spans are written under ``perfbench/runs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # fresh starts before the closed loop, and again after it
WORKER_TIMEOUT_S = 160

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_per_code": "ref",
    "p50_ref": "ref",
    "p90_ref": "ref",
}

# name -> (unit, where the value comes from): ("self", span) is the span's
# summed self time, ("calls", span) its number of spans, ("count", key) a
# tracer counter, ("run", key) a figure of the run itself.
PER_LAYER = {
    "search.enumerate_matchings.s": ("s", ("self", "search.enumerate_matchings")),
    "search.knot_matchings": ("count", ("count", "search.knot_matchings")),
    "search.enumerate_codes.s": ("s", ("self", "search.enumerate_codes")),
    "search.labelings_tried": ("count", ("count", "search.labelings_tried")),
    "search.codes_kept": ("count", ("count", "search.codes_kept")),
    "search.keep_ratio": ("ratio", ("run", "keep_ratio")),
    "search.record_to_json.s": ("s", ("self", "search.record_to_json")),
    "search.write_store.append_s": ("s", ("self", "search.write_store.append")),
    "search.write_store.verify_s": ("s", ("self", "search.write_store.verify")),
    "search.store_bytes": ("bytes", ("count", "search.store_bytes")),
    "codes.boundary_components.s": ("s", ("self", "codes.boundary_components")),
    "codes.boundary_components.calls": ("count", ("calls", "codes.boundary_components")),
    "codes.canonicalize.s": ("s", ("self", "codes.canonicalize")),
    "seifert.seifert_matrix.s": ("s", ("self", "seifert.seifert_matrix")),
    "seifert.seifert_matrix.calls": ("count", ("calls", "seifert.seifert_matrix")),
    "invariants.pencil_eval_interp.s": ("s", ("self", "invariants.pencil_eval_interp")),
    "invariants.pencil_eval_interp.calls": ("count", ("calls", "invariants.pencil_eval_interp")),
    "invariants.signature.s": ("s", ("self", "invariants.signature")),
    "invariants.signature.calls": ("count", ("calls", "invariants.signature")),
    "invariants.pencil_fraction_free.s": ("s", ("self", "invariants.pencil_fraction_free")),
    "invariants.pencil_fraction_free.calls": ("count", ("calls", "invariants.pencil_fraction_free")),
    "invariants.arf.s": ("s", ("self", "invariants.arf")),
    "bounds.fpbk_lower_bound.s": ("s", ("self", "bounds.fpbk_lower_bound")),
    "passclass.labeling_orbit.s": ("s", ("self", "passclass.labeling_orbit")),
    "passclass.orbit_size": ("count", ("count", "passclass.orbit_size")),
    "pushdown.parse_diagram.s": ("s", ("self", "pushdown.parse_diagram")),
    "pushdown.flatten_trace.s": ("s", ("self", "pushdown.flatten_trace")),
    "pushdown.push_downs": ("count", ("count", "pushdown.push_downs")),
    "pushdown.diagram_seifert_matrix.s": ("s", ("self", "pushdown.diagram_seifert_matrix")),
    "tables.verify_table.s": ("s", ("self", "tables.verify_table")),
    "tables.rows_passed": ("count", ("count", "tables.rows_passed")),
    "cli.import_s": ("s", ("run", "import_s")),
    "trace.overhead_ratio": ("ratio", ("run", "overhead_ratio")),
}


# ---------------------------------------------------------------------------
# run record and set-up time
# ---------------------------------------------------------------------------

def _git(*args: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record() -> dict:
    """Where and on what the run measured, taken at its start."""
    in_git = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_git else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "flatbasket").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from flatbasket import cli; "
    "cli.build_parser(); print('ready', flush=True)"
)


def setup_samples(count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to ``cli.build_parser()``
    ready, once per start."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(SRC)], stdout=subprocess.PIPE,
            env=_child_env(), text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("set-up probe did not reach build_parser()")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# the closed loop and its checks
# ---------------------------------------------------------------------------

def run_worker(workload, commands: list[list[str]], seconds: float, workdir: Path):
    """Run the commands in a fresh process.  Returns one outcome per command
    issued (argv, exit, stdout, latency_s, ref_s) and the worker's summary."""
    job = {
        "src": str(SRC),
        "commands": commands,
        "warmup": workload.warmup,
        "seconds": seconds,
        "outputs": str(workdir / "outputs.jsonl"),
        "result": str(workdir / "result.json"),
    }
    (workdir / "job.json").write_text(json.dumps(job))
    with subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(workdir / "job.json")], env=_child_env()
    ) as child:
        try:
            child.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if child.returncode != 0:
        raise RuntimeError(f"worker exited with {child.returncode}")
    summary = json.loads((workdir / "result.json").read_text())
    with open(job["outputs"]) as outputs:
        outcomes = [json.loads(line) for line in outputs]
    refs = summary["references_s"]
    for k, (outcome, latency) in enumerate(zip(outcomes, summary["latencies_s"])):
        outcome["latency_s"] = latency
        # the reference loop timed just before and just after this command
        outcome["ref_s"] = (refs[k] + refs[k + 1]) / 2
    return outcomes, summary


def tail(values: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with at least ten samples beyond it,
    and a note naming that percentile and the sample count.  Below eleven
    samples there is none; the maximum is reported, and the note says so."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"
    return ordered[-1], f"maximum of n={n}, fewer than 11 samples"


def check_outcomes(workload, outcomes: list[dict], tracer, workdir: Path):
    """Check every outcome; when tracing, also replay it and compare output.
    Returns (failed, problems) and sets each outcome's ``codes``."""
    import workloads as wl  # importable once main() has put src on sys.path

    failed = 0
    problems: list[str] = []
    for index, outcome in enumerate(outcomes):
        argv, stdout = outcome["argv"], outcome["stdout"]
        found = wl.check(workload, argv, outcome["exit"], stdout, tracer)
        if not found and tracer is not None:
            start = time.perf_counter()
            again = wl.replay(tracer, argv, workdir / f"replay-store-{index}.jsonl")
            outcome["replay_s"] = time.perf_counter() - start
            if wl.sha256(again) != wl.sha256(stdout):
                found = ["traced replay printed different output"]
        outcome["codes"] = 0 if found else wl.codes_in(argv, stdout)
        outcome["stdout"] = None  # release large outputs early
        if found:
            failed += 1
            problems.extend(f"{' '.join(argv)[:120]}: {p}" for p in found)
    return failed, problems


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record.update(run_record())
    workdir = BENCH / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    try:
        commands = workload.make_commands(random.Random(seed), workdir)
        if not trace:
            setup_samples(1)  # may compile bytecode; not counted
            setup = setup_samples(SETUP_SAMPLES)
        outcomes, summary = run_worker(workload, commands, seconds, workdir)
        if not trace:
            setup += setup_samples(SETUP_SAMPLES)
        failed, problems = check_outcomes(workload, outcomes, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    refs = summary["references_s"]
    report = {
        "attempted": len(outcomes),
        "failed": failed,
        "error_rate": failed / len(outcomes),
        "reference_p50_ms": (statistics.median(refs) * 1e3, "ms", f"n={len(refs)}"),
        "codes_per_s": (
            sum(o["codes"] for o in outcomes) / sum(o["latency_s"] for o in outcomes), "1/s", "raw"
        ),
    }
    by_kind: dict[str, list[float]] = {}
    for o in outcomes:
        by_kind.setdefault(o["argv"][0], []).append(o["latency_s"])
    for kind, values in by_kind.items():
        label = {"invariants": "code", "verify-table": "table", "orbit-check": "orbit"}.get(kind, kind)
        value, note = tail(values)
        report[f"{label}_p50_ms"] = (statistics.median(values) * 1e3, "ms", f"raw, n={len(values)}")
        report[f"{label}_tail_ms"] = (value * 1e3, "ms", f"raw, {note}")

    if trace:
        replayed = [o for o in outcomes if "replay_s" in o]
        figures = {
            "import_s": summary["import_s"],
            "overhead_ratio": sum(o["replay_s"] for o in replayed)
            / sum(o["latency_s"] for o in replayed) if replayed else 0.0,
            "keep_ratio": tracer.counts["search.codes_kept"] / tracer.counts["search.labelings_tried"]
            if tracer.counts["search.labelings_tried"] else 0.0,
        }
        metrics = layer_metrics(tracer, figures)
        tracer.write(runs_dir() / f"{workload.name}-seed{seed}.spans.jsonl.gz")
        record["spans"] = len(tracer.names)
    else:
        # command cost in reference units: latency / adjacent reference loop
        primary = [o["latency_s"] / o["ref_s"] for o in outcomes if o["argv"][0] == workload.primary]
        tail_value, note = tail(primary)
        report["tail_ref"] = (tail_value, "ref", note)
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": summary["peak_rss_kib"] / 1024,
            "ref_per_code": sum(o["latency_s"] / o["ref_s"] for o in outcomes)
            / max(1, sum(o["codes"] for o in outcomes)),
            "p50_ref": statistics.median(primary),
            "p90_ref": statistics.quantiles(primary, n=10)[-1] if len(primary) > 1 else primary[0],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record.update(report=report, problems=problems[:50], metrics=metrics)
    (runs_dir() / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "problems": problems,
    }


def layer_metrics(tracer, run_figures: dict) -> dict:
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    out = {}
    for name, (unit, (source, key)) in PER_LAYER.items():
        if source == "self":
            value = self_s.get(key, 0.0)
        elif source == "calls":
            value = calls.get(key, 0)
        elif source == "count":
            value = tracer.counts.get(key, 0)
        else:
            value = run_figures[key]
        out[name] = {"value": value, "unit": unit}
    return out


def runs_dir() -> Path:
    path = BENCH / "runs"
    path.mkdir(exist_ok=True)
    return path


def print_report(name: str, seed: int, result: dict) -> None:
    report = result["report"]
    print(f"workload {name} seed {seed}: {report['attempted']} commands, "
          f"{report['failed']} failed, error_rate {report['error_rate']:.4g}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    for key, entry in report.items():
        if isinstance(entry, tuple):
            print(f"  {key:40s} {entry[0]:.6g} {entry[1]}  ({entry[2]})")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flatbasket" / "cli.py").is_file():
        print(f"no flatbasket sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(wl.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
