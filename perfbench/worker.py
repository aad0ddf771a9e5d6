"""Closed-loop client of the flatbasket CLI, run as a fresh child process.

One client in one single-threaded process: each command goes to
``flatbasket.cli.cli_dispatch`` with stdout and stderr captured, and the
next is issued only after it returns.  Commands are taken in order, cycling
if the list runs out, until the window of ``seconds`` has elapsed (at least
one command).  A fixed reference loop is timed before the first command and
after every command, so each command's latency can be set against how fast
the machine ran just before and just after it.

Usage: ``python3 worker.py JOB.json``.  The job names the checkout's ``src``
directory, the commands, an untimed warm-up command, the window and the
output files.  Every command's stdout goes to the outputs file as one JSON
line; the timings go to the result file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _call(dispatch, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue()


def reference_work() -> int:
    """A fixed amount of pure-Python integer work (about 2 ms), timed between
    commands to track how fast the machine runs at that moment."""
    rows = [[(i * 7 + j * 3) % 5 - 2 for j in range(8)] for i in range(8)]
    total = 0
    for _ in range(500):
        for i in range(8):
            row = rows[i]
            for j in range(8):
                total += row[j] * (i - j)
    return total


def _timed_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"])
    sys.path.insert(0, str(src))
    start = perf_counter()
    import flatbasket.cli as cli

    import_s = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"flatbasket was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cli.build_parser()
    _call(cli.cli_dispatch, job["warmup"])

    commands = job["commands"]
    latencies = []
    references = [_timed_reference()]
    with open(job["outputs"], "w") as outputs:
        begin = perf_counter()
        index = 0
        while index == 0 or perf_counter() - begin < job["seconds"]:
            argv = [a.replace("{index}", str(index)) for a in commands[index % len(commands)]]
            t0 = perf_counter()
            code, text = _call(cli.cli_dispatch, argv)
            latencies.append(perf_counter() - t0)
            references.append(_timed_reference())
            outputs.write(json.dumps({"argv": argv, "exit": code, "stdout": text}) + "\n")
            index += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(
        json.dumps({
            "import_s": import_s,
            "latencies_s": latencies,
            "references_s": references,
            "peak_rss_kib": peak_kib,
        })
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
