#!/usr/bin/env python3
"""Builds and runs the constrained-lb benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `clb-perfbench` package in release mode (offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs one workload in its own
process and relays its output; the last line is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_log2", "huge_instance", "online_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def git_rev():
    """The checked-out commit, read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"the repository's crates are missing next to {HERE.name}/; run from a full checkout")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    # Shard workers write their manifests and reports to the temporary directory:
    # keep it inside the build directory.
    work_dir = target / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)
    env.update(TMPDIR=str(work_dir), PERFBENCH_GIT_REV=git_rev())
    command = [str(target / "release" / "clb-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-file", str(work_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")]
    # A process group of its own, so a timeout also stops the shard workers it spawned.
    try:
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
    except OSError as e:
        fail(f"cannot start the benchmark: {e}")
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the benchmark ran longer than {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"the benchmark exited with code {proc.returncode}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
