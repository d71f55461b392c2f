#!/usr/bin/env python3
"""Build and run certbench, the certify-and-serve pipeline benchmark.

Run from the root of the repository:

    python3 certbench/run.py --workload dense-certify --seed 1 --seconds 15 --trace 0
    python3 certbench/run.py --self-test
    python3 certbench/run.py --compare before.txt after.txt
    python3 certbench/run.py --record-fingerprints 0 99 > certbench/fingerprints.tsv

The benchmark program is built from source with dune (into _build/) and
prints its metrics; the last line of its output is the JSON result.  See
certbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", HERE, "certbench.exe")
FINGERPRINTS = os.path.join(HERE, "fingerprints.tsv")
OUT = os.path.join(HERE, "_out")


def build():
    """Build the benchmark; dune's own output goes to stderr."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./" + HERE + "/certbench.exe"]
    try:
        code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    except FileNotFoundError:
        code = 127
    if code != 0:
        sys.exit("certbench: build failed (%s exited %d)" % (" ".join(cmd), code))


def stamp_commit():
    """The git commit when run from a git checkout, plus a digest of the sources."""
    commit = "none"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("lib", HERE):
        for root, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "%s src:%s" % (commit, digest.hexdigest()[:12])


def run(args, capture=False):
    cmd = [EXE, "--fingerprints", FINGERPRINTS, "--out", OUT] + args
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def self_test():
    """Negative controls: clean runs must pass, corrupted ones must fail."""
    cases = [
        ("dense-certify", None, True),
        ("sparse-build", None, True),
        # on the dense graph every single kept edge has a short detour, so
        # dropping one breaks nothing; at degree 8 most edges have none
        ("sparse-build", "drop-edge", False),
        ("dense-certify", "perturb-answer", False),
    ]
    ok = True
    for workload, inject, should_pass in cases:
        args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                "--commit", "self-test"]
        if inject:
            args += ["--inject", inject]
        proc = run(args, capture=True)
        result = last_json(proc.stdout)
        if result is None:
            verdict = False
            detail = "no result (exit %d): %s" % (proc.returncode, proc.stderr.strip()[-200:])
        else:
            error_rate = result["failed"] / result["attempted"]
            if should_pass:
                verdict = proc.returncode == 0 and result["correct"] and error_rate == 0
            else:
                verdict = proc.returncode != 0 and not result["correct"] and error_rate > 0
            detail = "exit %d, error_rate %d/%d" % (proc.returncode, result["failed"],
                                                    result["attempted"])
        expect = "clean run passes" if should_pass else "--inject %s fails the run" % inject
        print("%s %-14s %-40s %s" % ("ok  " if verdict else "FAIL", workload, expect, detail))
        ok = ok and verdict
    print("self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def read_result(path):
    stamp = None
    with open(path) as f:
        text = f.read()
    for line in text.splitlines():
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    result = last_json(text)
    if stamp is None or result is None:
        sys.exit("certbench: %s holds no stamped certbench result" % path)
    return stamp, result


def compare(path_a, path_b):
    """Print B against A metric by metric; refuse results whose workload, mode, cores or jobs differ."""
    (sa, ra), (sb, rb) = read_result(path_a), read_result(path_b)
    for key in ("workload", "trace", "nproc", "jobs"):
        if sa[key] != sb[key]:
            print("certbench: refusing to compare: %s differs (%s vs %s)" % (key, sa[key], sb[key]),
                  file=sys.stderr)
            return 2
    print("%s seed %s (%s) -> seed %s (%s); nproc %s, jobs %s" % (
        sa["workload"], sa["seed"], sa["commit"], sb["seed"], sb["commit"], sa["nproc"], sa["jobs"]))
    for name, ma in ra["metrics"].items():
        mb = rb["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("  %-34s %14.6g %14.6g  x%.3f %s" % (name, ma["value"], mb["value"], ratio, ma["unit"]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--record-fingerprints", nargs=2, type=int, metavar=("FROM", "TO"))
    a = p.parse_args()
    if a.compare:
        return compare(*a.compare)
    build()
    if a.self_test:
        return self_test()
    if a.record_fingerprints:
        return run(["--record-fingerprints"] + [str(x) for x in a.record_fingerprints]).returncode
    if not a.workload:
        p.error("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--commit", stamp_commit()]
    return run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
