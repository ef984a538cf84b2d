#!/usr/bin/env python3
"""Build and run oldelephant's standing benchmark (the Go module beside this file).

One run:
    python3 perfbench/run.py --workload paper-row --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result. Everything the
build leaves behind goes under $CARGO_TARGET_DIR (default .bench_build) in the
repository root; the benchmark itself writes no files.

Repeat mode runs one workload N times with seeds seed, seed+1, ... and prints
each metric's median and quartiles; with --other it alternates every run with
the benchmark built from another checkout of the repository, so both sides
see the same machine conditions:
    python3 perfbench/run.py --workload serve-seek --repeat 10 --seconds 10
    python3 perfbench/run.py --workload serve-seek --repeat 10 --other ../parent
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(out):
    """Keep the Go toolchain's caches, settings and telemetry inside out."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOPATH": os.path.join(out, "go-path"),
        "GOMODCACHE": os.path.join(out, "go-path", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "HOME": os.path.join(out, "home"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def source_digest(repo_root, env):
    """Hash every Go source and module file of the checkout and the toolchain version."""
    h = hashlib.sha256()
    version = subprocess.run(["go", "env", "GOVERSION"], env=env, stdout=subprocess.PIPE, text=True)
    h.update(version.stdout.encode())
    for dirpath, dirnames, filenames in os.walk(repo_root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "_")))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, repo_root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(repo_root, binary):
    """Build repo_root/perfbench into binary unless its sources are unchanged; exit on failure."""
    env = go_env(build_dir())
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    src = os.path.join(repo_root, "perfbench")
    try:
        digest = source_digest(repo_root, env)
        stamp = binary + ".sources"
        if os.path.exists(binary) and os.path.exists(stamp):
            with open(stamp) as f:
                if f.read() == digest:
                    return
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        sys.exit(f"run.py: cannot run the Go toolchain: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: building {src} failed")
    with open(stamp, "w") as f:
        f.write(digest)


def run_once(binary, args, seed, echo):
    """Run the benchmark binary once; return (exit code, parsed last line)."""
    cmd = [binary, "-workload", args.workload, "-seed", str(seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def summarize(label, results):
    print(f"## {label}: {len(results)} runs")
    names = sorted(results[0]["metrics"])
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med * 100 if med else 0.0
        print(f"{name:44s} {unit:9s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:6.2f}%")
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print(f"correct in every run: {correct}; failed shares: {sorted(shares)}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--repeat", type=int, default=0, help="run N times and summarize")
    p.add_argument("--other", help="another checkout to alternate with in repeat mode")
    args = p.parse_args()

    binary = os.path.join(build_dir(), "perfbench")
    build(ROOT, binary)
    if args.repeat <= 0:
        code, _ = run_once(binary, args, args.seed, echo=True)
        sys.exit(code)

    sides = [("this", binary, [])]
    if args.other:
        other_bin = os.path.join(build_dir(), "perfbench-other")
        build(os.path.abspath(args.other), other_bin)
        sides.append(("other", other_bin, []))
    for i in range(args.repeat):
        order = sides if i % 2 == 0 else list(reversed(sides))
        for label, b, results in order:
            code, res = run_once(b, args, args.seed + i, echo=False)
            if res is None:
                sys.exit(f"run.py: {label} run {i} (seed {args.seed + i}) exited with {code}")
            results.append(res)
            print(f"# {label} seed {args.seed + i}: " + json.dumps(res["metrics"]), flush=True)
    for label, _, results in sides:
        summarize(label, results)


if __name__ == "__main__":
    main()
