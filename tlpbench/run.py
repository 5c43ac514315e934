#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 tlpbench/run.py --workload pretrain|search-tlp|fleet \
        --seed N --seconds S --trace 0|1 [--tiny] [--plant-mismatch]

The repository's own CMake project is configured in .bench_build/lib and
only its libraries are built; the benchmark binary (tlpbench/main.cc) is
then built in .bench_build/bench with that build's compile flags. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's (nonzero on a failed
check) or nonzero without a result when the build fails.
"""
import hashlib
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "lib")
BENCH_BUILD = os.path.join(BUILD, "bench")
JOBS = str(min(4, os.cpu_count() or 1))


def run(cmd):
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def generator():
    return ["-G", "Ninja"] if shutil.which("ninja") else []


def library_flags():
    """Compile flags the repository's build uses for its library code."""
    with open(os.path.join(LIB_BUILD, "compile_commands.json")) as f:
        commands = json.load(f)
    src = os.path.join(ROOT, "src") + os.sep
    for entry in commands:
        path = os.path.join(entry["directory"], entry["file"])
        if os.path.realpath(path).startswith(src):
            args = shlex.split(entry["command"])[1:]
            keep = [a for a in args
                    if a.startswith(("-O", "-m", "-f", "-g", "-D", "-W"))]
            return " ".join(keep)
    raise RuntimeError("no library source in compile_commands.json")


def build():
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", LIB_BUILD, *generator(),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"])
    # tlp_service depends on every other library the benchmark links.
    run(["cmake", "--build", LIB_BUILD, "--target", "tlp_service",
         "-j", JOBS])
    flags = library_flags()
    run(["cmake", "-S", HERE, "-B", BENCH_BUILD, *generator(),
         "-DTLP_SOURCE_DIR=" + ROOT,
         "-DTLP_LIB_DIR=" + os.path.join(LIB_BUILD, "src"),
         "-DTLP_CXX_FLAGS=" + flags])
    run(["cmake", "--build", BENCH_BUILD, "-j", JOBS])
    return flags


def revision():
    """The git revision, or a digest of the sources outside a git tree."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    # SIGTERM unwinds like an exception, so a running child is killed and
    # reaped below instead of being left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("tlpbench: no repository sources beside tlpbench/",
              file=sys.stderr)
        return 2
    try:
        flags = build()
    except (OSError, subprocess.CalledProcessError, RuntimeError) as err:
        print("tlpbench: build failed: %s" % err, file=sys.stderr)
        return 2
    cmd = [os.path.join(BENCH_BUILD, "tlpbench"), *sys.argv[1:],
           "--work-dir", os.path.join(BUILD, "runs"),
           "--trace-dir", os.path.join(BUILD, "traces"),
           "--revision", revision(), "--lib-flags", flags]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
