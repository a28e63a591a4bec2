#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-halk --seed 1 --seconds 20 --trace 0

Builds the `halk` binary (the daemon under test) and the benchmark
package `perfbench/` in release mode, then runs one workload. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1). Exits nonzero on any failed check.

Other modes:

    python3 perfbench/run.py --smoke
        runs every workload end to end for a few seconds on small inputs,
        untraced and traced;
    python3 perfbench/run.py --spread WORKLOAD --seeds 10 [--seconds S]
        runs one workload on several seeds and prints each end-to-end
        metric's quartile spread as a share of its median;
    python3 perfbench/run.py --compare A.json B.json
        compares two result files from .bench_work/results/, refusing
        when their host or daemon settings differ (the git revision may).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")
CONFIG = os.path.join(HERE, "config.json")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the daemon and the benchmark; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "halk-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        if not os.path.exists(manifest):
            raise SystemExit(f"perfbench: missing {manifest}; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "halk"), os.path.join(rel, "halk-perfbench")


def expected_metrics(trace):
    with open(BENCH_JSON) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(bench, halk, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [
        bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--halk", halk, "--config", CONFIG,
        "--workdir", os.path.join(ROOT, ".bench_work"),
    ]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        return (r.returncode or 1), None
    try:
        return r.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return (r.returncode or 1), None


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    want = expected_metrics(trace)
    got = result.get("metrics", {})
    problems = []
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')} != {unit}")
        elif not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value {m.get('value')!r} is not a number")
    problems += [f"unexpected metric {n}" for n in got if n not in want]
    return problems


def main_run(args):
    halk, bench = build()
    code, result = run_once(bench, halk, args["--workload"], int(args["--seed"]),
                            args["--seconds"], args["--trace"] == "1")
    if result is None:
        log("no result")
        return code or 1
    if result.get("correct") and code == 0:
        for p in check_metrics(result, args["--trace"] == "1"):
            log(f"FAIL: {p}")
            result["correct"] = False
            code = 1
    print(json.dumps(result))
    return code


def main_smoke():
    halk, bench = build()
    failures = 0
    for workload in ("serve-halk", "serve-exact", "train"):
        for trace in (False, True):
            code, result = run_once(bench, halk, workload + ".smoke", 1, 3, trace)
            problems = [] if result else ["no result"]
            if result:
                problems += check_metrics(result, trace)
                if not result.get("correct"):
                    problems.append("incorrect")
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"smoke {workload} trace={int(trace)}: {status}")
            failures += bool(problems)
    print(json.dumps({"smoke_failures": failures}))
    return 1 if failures else 0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else float("inf")


def main_spread(args):
    halk, bench = build()
    workload = args["--spread"]
    seeds = int(args.get("--seeds", "5"))
    seconds = args.get("--seconds") or str(json.load(open(BENCH_JSON))["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in json.load(open(BENCH_JSON))["end_to_end"]}
    values = {}
    for s in range(1, seeds + 1):
        code, result = run_once(bench, halk, workload, 1000 + s, seconds, False)
        if code != 0 or not result or not result.get("correct"):
            log(f"seed {1000 + s}: run failed (exit {code})")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        sp = spread(vals)
        flag = "" if sp <= bounds[name] / 3 or name == "setup_s" else "  <-- above bound/3"
        print(f"{workload:12} {name:18} median {statistics.median(vals):14.4f} "
              f"spread {sp:7.4f} bound {bounds[name]}{flag}  {vals}")
    return 0


# Fingerprint fields that must match for two results to be comparable: the
# host and the daemon's effective settings. The git revision is stamped but
# may differ, since comparing two revisions is the point.
COMPARABLE = ("nproc", "cpu_model", "rustc", "daemon_workers", "daemon_shards",
              "daemon_precision", "daemon_batch_cap")


def main_compare(a, b):
    ra, rb = (json.load(open(p)) for p in (a, b))
    differ = [k for k in COMPARABLE if ra["fingerprint"].get(k) != rb["fingerprint"].get(k)]
    if differ:
        log(f"refusing to compare: fingerprints differ in {', '.join(differ)}")
        log(f"  {a}: {ra['fingerprint']}")
        log(f"  {b}: {rb['fingerprint']}")
        return 2
    for name in sorted(set(ra["metrics"]) & set(rb["metrics"])):
        va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        print(f"{name:28} {va:14.4f} {vb:14.4f}  x{ratio:.3f} {ra['metrics'][name]['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["--smoke"]:
        return main_smoke()
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return main_compare(argv[1], argv[2])
    if len(argv) % 2:
        log(__doc__)
        return 2
    args = dict(zip(argv[::2], argv[1::2]))
    if "--spread" in args:
        return main_spread(args)
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in args:
            log(f"missing {flag}")
            return 2
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
