#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 36 --trace 0

Run from the repository root. Builds `ftrace` (the program under test) and
the `perfbench` binary with `cargo build --release` into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one measurement, writes the stamped detail
(host, toolchain, source revision, every metric's median, quartiles and
sample count) to `perfbench/out/`, and prints the result object as the last
line of standard output. Exits non-zero, printing no result, when the build
or the run fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# A measurement takes `--seconds` plus set-up and warm-up; the build before
# it is not counted here.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (("Cargo.toml", ["-p", "ft-cli"]), ("perfbench/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(ROOT, manifest)] + extra
        subprocess.run(cmd, env=env, check=True, stdout=sys.stderr, cwd=ROOT)


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources that build the program and the benchmark."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src", "perfbench/Cargo.toml"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(args):
    sha = command_output(["git", "rev-parse", "HEAD"]) \
        if os.path.isdir(os.path.join(ROOT, ".git")) else "none"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "-V"]),
        "git_sha": sha,
        "source_sha256": source_digest(),
        "seed": args.seed,
    }


def run(cmd):
    """Runs the benchmark binary in its own process group, so a timeout stops the
    daemon it started as well."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["paper-suite", "sync-dense"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test switches (perfbench/selftest.py).
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--inject-wrong-oracle", action="store_true")
    p.add_argument("--kill-daemon", action="store_true")
    args = p.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(BENCH, "out")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ftrace", os.path.join(target, "release", "ftrace"), "--out", out_dir]
    cmd += [f"--{flag}" for flag in ("tiny", "inject-wrong-oracle", "kill-daemon")
            if getattr(args, flag.replace("-", "_"))]
    try:
        code, out = run(cmd)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"benchmark run failed: {e}")
        return 1
    lines = out.strip().splitlines()
    detail = [json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: ")]
    if code != 0 or not lines or not detail:
        log(f"benchmark exited with {code} and no result")
        return 1
    result = json.loads(lines[-1])

    record = {"schema": "perfbench/1", "stamp": stamp(args), **detail[-1]}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        if not line.startswith("detail: "):
            print(line)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
