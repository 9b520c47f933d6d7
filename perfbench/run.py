"""Benchmark of the baryquad command line: four workloads, checked outputs, optional tracing.

Run from the repository root::

    python3 perfbench/run.py --workload scan --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``scan`` (feasibility), ``matrices`` (gim CSV export and quadbench),
``solve`` (example 1 and example 2 at n = 9) and ``nonlocal`` (example 2 at
large n).  Every command goes through ``baryquad.cli.main`` with its output
in a temporary directory.  Each repetition runs in a fresh interpreter, one
at a time, with OpenBLAS pinned to one thread, so the package's Gauss-rule
cache starts cold as it does for every CLI user.  Repetitions run until the
next one would end after ``--seconds`` (at least the workload's minimum).

Every output is checked by ``checks.py``, which does not use the package.
A command fails on an unexpected exit code or a failed check; the known
refusals (the README's ``--alpha-grid -0.4:...`` form exits 1, and the
solvers refuse (16, 1.0) and (160, 1.0) with exit 2) are expected and
counted apart.  The script exits 1 when any command fails, after printing
the result, and 2 without a result when it cannot run at all.

End-to-end metrics (``--trace 0``), over the repetitions of one run:
``wall_s`` median time to run all commands, excluding import; ``setup_s``
median time of ``import baryquad.cli`` in a fresh interpreter (at least 5
samples); ``op_p50_ms`` and ``op_tail_ms`` the median and a fixed high
percentile of per-command latency pooled over repetitions (refusals
included, at their measured latency); ``peak_rss_mb`` median peak RSS of a
repetition's process; ``digits_min`` the fewest correct digits over all
checked outputs; ``ok_ratio`` commands that succeeded and passed their
check, over commands attempted (1 - fail_ratio).

``--trace 1`` interleaves untraced and traced repetitions and reports the
per-layer metrics of ``spans.py`` (medians over traced repetitions), the
import split from ``-X importtime``, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
#: no repetition starts after BUDGET_S, and every child process is killed at DEADLINE_S,
#: so a run ends inside 180 s
BUDGET_S = 150.0
DEADLINE_S = 175.0
EXPECTED_ERROR = {1: "UsageError", 2: "CollisionError"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "digits_min": "digits", "ok_ratio": "ratio"}
IMPORT_ONLY = ("import time; start = time.perf_counter(); import baryquad.cli; "
               "print(time.perf_counter() - start)")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing source, crashed worker, timeout)."""


def _environ() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    # users run from compiled bytecode after the first call; let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _python(args, deadline, extra=()):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, *extra, *args], env=_environ(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args))} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc


def percentile(values, q):
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def judge(command, outcome, path, ref):
    """Return (status, digits, detail); status is ok, refused or failed."""
    code = outcome["code"]
    if code == 0:
        try:
            ok, digits, detail = checks.CHECKS[command.check](command.params, path, ref)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return "failed", None, f"unreadable output: {exc!r}"
        return ("ok" if ok else "failed"), digits, detail
    if code == command.refusal and EXPECTED_ERROR[code] in outcome["stderr"]:
        return "refused", None, "known refusal"
    return "failed", None, f"exit {code}: {outcome['stderr'].strip()[-300:]}"


def run_repetition(commands, workdir, traced, ref, deadline):
    workdir.mkdir()
    job = {
        "src": str(SRC.resolve()),
        "workdir": str(workdir),
        "commands": [list(c.argv) + ["--out", f"c{i:03d}.csv"] for i, c in enumerate(commands)],
        "trace": traced,
        "result": str(workdir / "result.json"),
    }
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    proc = _python([str(WORKER), str(job_path)], deadline,
                   extra=("-X", "importtime") if traced else ())
    result = json.loads((workdir / "result.json").read_text())
    if len(result["commands"]) != len(commands):
        raise BenchError("worker returned the wrong number of command results")
    result["traced"] = traced
    result["verdicts"] = [judge(c, o, workdir / f"c{i:03d}.csv", ref)
                          for i, (c, o) in enumerate(zip(commands, result["commands"]))]
    if traced:
        result["layers"] = {**spans.import_times(proc.stderr), **spans.summarize(result["spans"])}
    result.pop("spans")
    shutil.rmtree(workdir)
    return result


def _median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def run(workload_name, seed, seconds, trace, tiny=False):
    """Run one benchmark; return (result object, report lines)."""
    if not (SRC / "baryquad" / "cli.py").is_file():
        raise BenchError(f"no package source under {SRC.name}/baryquad")
    deadline = time.monotonic() + DEADLINE_S
    ref = load_reference()
    workload = WORKLOADS[workload_name](seed, ref, tiny)
    env_record = json.loads(_python([str(WORKER), "--env"], deadline).stdout)

    reps = []
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        start = time.monotonic()
        min_reps = max(workload.min_reps, 2) if trace else workload.min_reps
        while True:
            # untraced, traced, traced, untraced, ...: a slow first repetition or a drift
            # in machine speed then weighs on both sides alike
            traced = trace and len(reps) % 4 in (1, 2)
            reps.append(run_repetition(workload.commands, tmp / f"rep{len(reps)}", traced, ref,
                                       deadline))
            elapsed = time.monotonic() - start
            if len(reps) >= min_reps and (elapsed * (len(reps) + 1) / len(reps) > seconds
                                          or elapsed > BUDGET_S):
                break
        setup = [r["import_s"] for r in reps if not r["traced"]]
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(float(_python(["-c", IMPORT_ONLY], deadline).stdout))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    verdicts = [v for r in reps for v in r["verdicts"]]
    attempted = len(verdicts)
    failed = sum(status == "failed" for status, _, _ in verdicts)
    refused = sum(status == "refused" for status, _, _ in verdicts)
    digits = [d for _, d, _ in verdicts if d is not None]
    plain = [r for r in reps if not r["traced"]]
    latencies = [c["latency_s"] for r in plain for c in r["commands"]]

    lines = [f"workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}: "
             f"{len(reps)} repetitions of {len(workload.commands)} commands",
             "env " + json.dumps(env_record, sort_keys=True),
             f"fail_ratio {failed + refused}/{attempted} = {(failed + refused) / attempted:.4f} "
             f"(known refusals {refused}, failures {failed})"]
    lines += [f"FAILED {workload.commands[i % len(workload.commands)].argv}: {detail}"
              for i, (status, _, detail) in enumerate(verdicts) if status == "failed"]

    if trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
                   for name in spans.PER_LAYER_UNITS if not name.startswith("trace.")}
        metrics["trace.wall_s"] = _median_of(traced, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median_of(plain, "wall_s")
        units, samples = spans.PER_LAYER_UNITS, {}
        lines.append(f"per-layer medians over {len(traced)} traced repetitions; "
                     f"tracing overhead {metrics['trace.overhead_s']:.4f} s against "
                     f"{len(plain)} untraced")
    else:
        tail = workload.tail_percentile
        metrics = {
            "wall_s": _median_of(plain, "wall_s"),
            "setup_s": statistics.median(setup),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_tail_ms": percentile(latencies, tail) * 1e3,
            "peak_rss_mb": _median_of(plain, "peak_rss_mb"),
            "digits_min": min(digits, default=0.0),
            "ok_ratio": (attempted - failed - refused) / attempted,
        }
        units = END_TO_END_UNITS
        samples = {"wall_s": f"median of {len(plain)} repetitions",
                   "setup_s": f"median of {len(setup)} imports",
                   "op_p50_ms": f"p50 of {len(latencies)} commands",
                   "op_tail_ms": f"p{tail} of {len(latencies)} commands",
                   "peak_rss_mb": f"median of {len(plain)} repetitions",
                   "digits_min": f"min over {len(digits)} checked outputs",
                   "ok_ratio": f"of {attempted} commands"}
        lines.append("wall_s per repetition " + " ".join(f"{r['wall_s']:.4f}" for r in plain))
    lines += [f"{name} {metrics[name]:.6g} {units[name]}"
              + (f" ({samples[name]})" if name in samples else "") for name in units]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
