#!/usr/bin/env python3
"""Build and run the rtped benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <drive-1080p|parked-1080p|serve-vga|all>
                             --seed N --seconds S --trace <0|1>

Builds the `rtped-serve` daemon (from the repository's workspace) and the
`perfbench` binary (its own workspace) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs one workload. The last line of stdout is the
run's JSON result. `--workload all` runs every workload in turn and ends
with a summary table instead.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["drive-1080p", "parked-1080p", "serve-vga"]
# A run measures for --seconds; set-up, output checks and the traced
# replay take at most about as long again, plus a fixed margin.
RUN_TIMEOUT_MARGIN_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        ("Cargo.toml", ["-p", "rtped-serve", "--bin", "rtped-serve"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            fail(f"{manifest} not found: run from the root of an rtped checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        # Cargo's output goes to stderr so stdout ends with the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_one(target_dir, workload, seed, seconds, trace):
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--serve-bin", os.path.join(release, "rtped-serve"),
        "--work-dir", os.path.join(target_dir, "perfbench-work"),
    ]
    # A session of its own, so a timeout takes the daemon down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = RUN_TIMEOUT_MARGIN_S + 2 * seconds
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {timeout:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target_dir)

    if args.workload != "all":
        code, out = run_one(target_dir, args.workload, args.seed, args.seconds,
                            args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    rows = []
    for workload in WORKLOADS:
        code, out = run_one(target_dir, workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        if code != 0:
            fail(f"{workload} exited with {code}")
        result = json.loads(out.strip().splitlines()[-1])
        samples = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 5 and parts[0] == "metric" and parts[4].startswith("n="):
                samples[parts[1]] = parts[4][2:]
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"],
                         samples.get(name, "?")))
        failed_frac = result["failed"] / result["attempted"]
        rows.append((workload, "failed_frac", failed_frac, "ratio", result["attempted"]))
        rows.append((workload, "correct", result["correct"], "", ""))
    print()
    print(f"{'workload':<14} {'metric':<34} {'value':>14} {'unit':<7} samples")
    for workload, name, value, unit, n in rows:
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{workload:<14} {name:<34} {shown:>14} {unit:<7} {n}")


if __name__ == "__main__":
    main()
