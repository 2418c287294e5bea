#!/usr/bin/env python3
"""Builds absolver and the perfbench benchmark from source, then runs perfbench.

Run from the root of an absolver checkout:

    python3 perfbench/run.py --workload steering|threshold|service \
        --seed N --seconds S --trace 0|1

The program is built with `cargo build --release` at the root, as the
repository's own build does; perfbench is the package in this directory.
Both go to $CARGO_TARGET_DIR (default: .bench_build). Build output goes to
stderr; the last line perfbench prints on stdout is the JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    if not (root / "Cargo.toml").is_file() or not (root / "src/bin/absolverd.rs").is_file():
        print("perfbench: run from the root of an absolver checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(bench / "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = target / "release"
    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    command = [str(release / "perfbench"), "--bin-dir", str(release), "--work-dir", str(work)]
    return subprocess.run(command + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
