#!/usr/bin/env python3
"""Builds the erbench binary from source and runs one workload.

Usage (from the repository root):

    python3 erbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build). Before the
run, the band model checkpoint is checked against erbench/model.sha256.
Build output goes to stderr, so the last stdout line is the benchmark's
JSON result. The script then becomes the benchmark binary, so the exit
code is the binary's; it is non-zero without a result when the build or
the checksum fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def model_ok(model_dir):
    with open(os.path.join(HERE, "model.sha256")) as f:
        for line in f:
            want, name = line.split()
            with open(os.path.join(model_dir, name), "rb") as m:
                if hashlib.sha256(m.read()).hexdigest() != want:
                    print(f"error: {name} does not match model.sha256", file=sys.stderr)
                    return False
    return True


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    model_dir = os.path.join(HERE, "model")
    try:
        if not model_ok(model_dir):
            return 2
    except OSError as e:
        print(f"error: cannot read band model: {e}", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "erbench")
    # Replace this process, so the benchmark leaves no child behind.
    os.execve(binary, [binary, *sys.argv[1:], "--model", model_dir], env)


if __name__ == "__main__":
    sys.exit(main())
