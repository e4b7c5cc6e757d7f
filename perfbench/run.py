#!/usr/bin/env python3
"""Builds the refpga end-to-end benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload table2_flow --seed 1 --seconds 30 --trace 0

Build output goes to $CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root); compiler and benchmark temporary files stay inside it. Every
argument is passed on to the benchmark binary, whose last line of standard
output is the run's JSON result. Exits non-zero, without a result, when the
checkout holds no refpga sources or the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_fingerprint():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds, which identifies a plain checkout too."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:16])


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        print("perfbench: no refpga sources next to %s; nothing to build" % HERE,
              file=sys.stderr)
        return 2

    out = build_dir()
    binary_dir = os.path.join(out, "perfbench")
    run_dir = os.path.join(out, "perfbench-out")
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return 2

    command = [os.path.join(binary_dir, "perfbench"), *sys.argv[1:],
               "--out-dir", run_dir, "--commit", source_fingerprint()]
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
