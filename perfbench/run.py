"""coughrank benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload extract_wavs --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout: the program under test is the
`src/coughrank` found there. Each run generates its inputs from the seed
(`gen.py`), runs the workload in a fresh worker process (`worker.py`)
and, untraced, times the import of `coughrank.cli` in fresh processes.
The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`:
the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`. Scratch files live under `.perfbench_work/` in the checkout
and are removed at the end. Uses only the standard library.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("extract_wavs", "train_rank", "score_rank")
SETUP_SAMPLES = 5
GEN_TIMEOUT_S = 60
WORKER_SLACK_S = 90
IMPORT_TIMEOUT_S = 30
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import coughrank.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(src):
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call(argv, env, timeout, stdout=None):
    """Run a child to completion (killing it on timeout) and return it."""
    proc = subprocess.run(
        argv, env=env, timeout=timeout, stdout=stdout or sys.stderr, stderr=sys.stderr, text=True
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    return proc


def setup_seconds(env):
    """Median time to import coughrank.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = call([sys.executable, "-c", IMPORT_PROBE], env, IMPORT_TIMEOUT_S, stdout=subprocess.PIPE)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_workload(root, workload, seed, seconds, trace):
    src = root / "src"
    if not (src / "coughrank" / "cli.py").is_file():
        raise BenchError(f"no coughrank sources under {src}; run from the root of a checkout")
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    env = child_env(src)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, out, result_path = work / "inputs", work / "out", work / "result.json"
        call(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(inputs)],
            env,
            GEN_TIMEOUT_S,
        )
        out.mkdir()
        call(
            [
                sys.executable,
                str(HERE / "worker.py"),
                "--workload", workload,
                "--inputs", str(inputs),
                "--out", str(out),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--src", str(src),
                "--result", str(result_path),
            ],
            env,
            seconds + WORKER_SLACK_S,
        )
        result = json.loads(result_path.read_text())
        if not trace:
            result["metrics"]["setup_s"] = {"value": setup_seconds(env), "unit": "s"}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def report(workload, result):
    """Human-readable lines on stderr: problems, absent spans, environment."""
    for problem in result["problems"]:
        print(f"{workload}: CHECK FAILED: {problem}", file=sys.stderr)
    for name in result["absent"]:
        print(f"{workload}: {name} no longer exists; its metrics are absent", file=sys.stderr)
    print(f"{workload}: environment {json.dumps(result['environment'], sort_keys=True)}")
    walls = ", ".join(f"{w:.3f}" for w in result["walls"])
    print(f"{workload}: {result['rounds']} rounds ({walls} s timed), {result['attempted']} operations, {result['failed']} failed")
    if result["failed_examples"]:
        print(f"{workload}: failed operations include {', '.join(result['failed_examples'])}")
    for name, metric in result["metrics"].items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a SIGTERM unwinds like an exception, so children are killed and
    # reaped and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result = run_workload(root, workload, args.seed, args.seconds, args.trace)
            report(workload, result)
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{workload}."
            for name, metric in sorted(result["metrics"].items()):
                summary["metrics"][prefix + name] = metric
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
