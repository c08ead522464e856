#!/usr/bin/env python3
"""Build and run the castream end-to-end benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The benchmark is compiled from source on first use (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build/ when that is unset; later calls only
rebuild what changed. Build output goes to stderr. A run prints the
program's one-line report and, as the last line of stdout, the result
object {"correct", "attempted", "failed", "metrics"}. BENCHMARK.json is the
one list of metrics: the program's metric names must be exactly its
end_to_end (--trace 0) or per_layer (--trace 1) names, and the units come
from it.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_BOUND = 0.25


def valid_name(s):
    return isinstance(s, str) and NAME_RE.fullmatch(s) is not None


def valid_unit(s):
    return isinstance(s, str) and UNIT_RE.fullmatch(s) is not None


def manifest_problem(manifest):
    """Checks the workload and metric lists of a BENCHMARK.json document:
    names and units well-formed and each name used once, end-to-end bounds
    in (0, 0.25], and setup_s present, in s, lower-better, with the largest
    bound. Returns a problem description, or None."""
    seen = set()
    for w in manifest.get("workloads", []):
        if not valid_name(w.get("name")):
            return f"bad workload name: {w.get('name')!r}"
        if w["name"] in seen:
            return f"duplicate name: {w['name']}"
        seen.add(w["name"])
    if not 2 <= len(seen) <= 8:
        return "2 to 8 workloads must be listed"
    end_to_end = manifest.get("end_to_end", [])
    for m in end_to_end + manifest.get("per_layer", []):
        if not valid_name(m.get("name")):
            return f"bad metric name: {m.get('name')!r}"
        if not valid_unit(m.get("unit")):
            return f"bad unit for {m['name']}"
        if m.get("better") not in ("higher", "lower"):
            return f"bad better-direction for {m['name']}"
        if m["name"] in seen:
            return f"duplicate name: {m['name']}"
        seen.add(m["name"])
    bounds = [m.get("bound") for m in end_to_end]
    if not all(isinstance(b, (int, float)) and 0 < b <= MAX_BOUND
               for b in bounds):
        return "every end_to_end bound must be in (0, 0.25]"
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if (len(setup) != 1 or setup[0]["unit"] != "s" or
            setup[0]["better"] != "lower" or setup[0]["bound"] < max(bounds)):
        return "setup_s must be present, in s, lower-better, with the " \
               "largest bound"
    return None


def result_with_units(line, manifest, trace):
    """Turns the program's last line into the result object: checks its
    keys and that its metric names are exactly the manifest's set for the
    mode, and gives each value its unit. Returns (result, None) or
    (None, problem)."""
    try:
        raw = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if not isinstance(raw, dict) or set(raw) != {
            "correct", "attempted", "failed", "metrics"}:
        return None, "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(raw["attempted"], int) or raw["attempted"] < 1:
        return None, "attempted must be a whole number >= 1"
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if trace else "end_to_end"]}
    got = raw["metrics"]
    if set(got) != set(units):
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        return None, (f"metric names differ: missing {missing}, "
                      f"unexpected {extra}")
    for name, value in got.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None, f"metric {name}: not a number"
    raw["metrics"] = {name: {"value": got[name], "unit": units[name]}
                      for name in units}
    return raw, None


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    out = build_dir()
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", out, "-j", "4", "--target"] + targets)
    for cmd in cmds:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def binary(name):
    return os.path.join(build_dir(), name)


def load_manifest():
    with open(MANIFEST, encoding="utf-8") as f:
        manifest = json.load(f)
    problem = manifest_problem(manifest)
    if problem:
        raise ValueError(f"BENCHMARK.json: {problem}")
    return manifest


def run(args):
    manifest = load_manifest()
    if not build(["castream_perfbench"]):
        return 1
    cmd = [binary("castream_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), f"trace-{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result, problem = result_with_units(lines[-1], manifest, args.trace)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    return 0


def self_test():
    """The program's self-tests, then this script's own checks."""
    if not build(["perfbench_selftest"]):
        return 1
    if subprocess.run([binary("perfbench_selftest")], timeout=60,
                      check=False).returncode != 0:
        return 1
    suite = subprocess.run(
        [sys.executable, "-m", "unittest", "-q", "test_run"],
        cwd=os.path.join(HERE, "tests"), timeout=60, check=False)
    return suite.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        return run(args)
    except (OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
