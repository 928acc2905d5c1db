#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload table1|campaign|fuzz|group \
        --seed N --seconds S --trace 0|1

Run from the repository root. The binary and the simulator libraries it
links are built from source into .bench_build/perfbench (Release). The
binary's stdout is passed through; its last line is the JSON result. With
--trace 1 the spans are written to .bench_build/perfbench/trace-*.json.
Exits non-zero, without a result, if the build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("table1", "campaign", "fuzz", "group")


def run(cmd, timeout, env, stderr):
    """Run `cmd` in its own process group; returns (exit code, stdout).

    On timeout the whole group (make and compiler children included) is
    killed and reaped before exiting 1.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: timed out: {' '.join(cmd)}")
    return proc.returncode, out


def build():
    tmp = os.path.join(BUILD, "tmp")  # keep compiler temporaries inside the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [(["cmake", "--build", BUILD, "--target", "perfbench", "-j4"], 720)]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 120))
    for cmd, timeout in steps:
        code, out = run(cmd, timeout, env, subprocess.STDOUT)
        if code != 0:
            sys.stderr.write(out[-4000:])
            sys.exit(f"perfbench: failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(BUILD, f"trace-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, SAFEDM_BENCH_THREADS="1")
    code, out = run(cmd, args.seconds + 150, env, None)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        sys.exit(f"perfbench: run failed (exit {code})")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
