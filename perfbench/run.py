#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The benchmark is compiled from source
with `cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`); the build output goes to standard error, and the last line
of standard output is the run's JSON result. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml")))
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("error: the repository's crates/ directory is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode
    try:
        env["PERFBENCH_RUSTC"] = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["PERFBENCH_RUSTC"] = "unknown"
    env["PERFBENCH_GIT_REV"] = source_revision()
    binary = os.path.join(target, "release", "sepra-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
