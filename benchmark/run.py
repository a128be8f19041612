#!/usr/bin/env python3
"""vfbench: builds the benchmark from source and runs its workloads.

Every workload:
    python3 benchmark/run.py [--seed=42] [--traced] [--smoke] [--seconds=S]
Runs each workload in its own vfbench process, prints every metric by name
with its unit and clock, writes benchmark/results/<workload>.json (and, with
--traced, <workload>.traced.json plus the host-span file
<workload>.spans.json), and exits 1 if any correctness check failed.

One workload:
    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
Prints the same report, then as its last stdout line one JSON object with
the keys correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json (--trace 0) or every per_layer metric (--trace 1). Exits 1
when a correctness check failed.

The benchmark runs the program's defaults: it clears VF_KERNELS and
VF_WORKSPACE_REUSE from the child environment, so the default kernel tier
serves and workspaces are reused.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
RESULTS = os.path.join(HERE, "results")
EXE = os.path.join(BUILD, "vfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Per-layer metrics of a layer a workload never crosses read 0 when they are
# fractions or counts; a missing time or rate is an error, never a made-up 0.
ZERO_WHEN_ABSENT = ("fraction", "count")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def run_step(cmd, what, timeout):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s failed: %s" % (what, e))
    if r.returncode != 0:
        sys.stderr.write((r.stdout + r.stderr)[-4000:])
        fail("%s failed (exit %d)" % (what, r.returncode))


def build():
    """Configures build-bench/ once, then brings vfbench up to date."""
    # cmake_install.cmake is written last by a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "cmake_install.cmake")):
        run_step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 "configure", BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD, "--target", "vfbench", "-j", jobs],
             "build", BUILD_TIMEOUT_S)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(name, seed, seconds, traced, smoke, sha):
    """One vfbench process; returns its result record."""
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, name + (".traced.json" if traced else ".json"))
    cmd = [EXE, "--workload=" + name, "--seed=%d" % seed, "--seconds=%s" % seconds,
           "--traced=%d" % traced, "--smoke=%d" % smoke, "--out=" + out,
           "--git-sha=" + sha]
    if traced:
        cmd.append("--spans=" + os.path.join(RESULTS, name + ".spans.json"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("VF_KERNELS", "VF_WORKSPACE_REUSE")}
    if os.path.exists(out):
        os.remove(out)
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (name, e))
    sys.stderr.write(r.stderr)
    if not os.path.exists(out):
        fail("%s: vfbench wrote no result (exit %d)" % (name, r.returncode))
    with open(out) as f:
        return json.load(f)


def declared(spec, traced, rec):
    """The declared metric set of this run, with units checked."""
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    got = rec["layers"] if traced else rec["metrics"]
    names = {e["name"] for e in entries}
    extra = sorted(set(got) - names)
    if extra:
        fail("%s reports undeclared metrics: %s" % (rec["workload"], ", ".join(extra)))
    metrics = {}
    for e in entries:
        m = got.get(e["name"])
        if m is None:
            if not traced or e["unit"] not in ZERO_WHEN_ABSENT:
                fail("%s did not report %s" % (rec["workload"], e["name"]))
            m = {"value": 0.0, "unit": e["unit"]}
        if m["unit"] != e["unit"]:
            fail("%s: %s unit %s, declared %s" % (rec["workload"], e["name"], m["unit"],
                                                 e["unit"]))
        metrics[e["name"]] = {"value": m["value"], "unit": e["unit"]}
    return metrics


def fmt(v):
    return "%.6g" % v


def report(rec, metrics):
    traced = rec["traced"]
    fp = rec["fingerprint"]
    print("== %s  (%s, seed %d, %s s)  %s  tier=%s avx2=%s %s nproc=%d sha=%s" % (
        rec["workload"], "traced" if traced else "untraced", rec["seed"],
        fmt(rec["seconds"]), fp["cpu_model"], fp["kernel_tier"], fp["avx2"],
        fp["build_type"], fp["nproc"], fp["git_sha"][:12]))
    print("   host calibration %s us before, %s us after" % (
        fmt(fp["host_calib_us_before"]), fmt(fp["host_calib_us_after"])))
    src = rec["layers"] if traced else rec["metrics"]
    for name, m in metrics.items():
        full = src.get(name, {})
        extra = ""
        if "n" in full:
            extra = "  n=%d p10=%s p50=%s p75=%s" % (full["n"], fmt(full["p10"]),
                                                    fmt(full["p50"]), fmt(full["p75"]))
            if full["tail_p"] > 0.75:
                extra += " p%g=%s" % (full["tail_p"] * 100, fmt(full["tail"]))
        print("   %-32s %14s %-9s %-7s%s" % (name, fmt(m["value"]), m["unit"],
                                             full.get("clock", "-"), extra))
    for name, d in rec["details"].items():
        print("   . %-30s %14s %-9s %s" % (name, fmt(d["value"]), d["unit"], d["clock"]))
    for c in rec["checks"]:
        print("   check %-30s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["what"]))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="vfbench: build and run the benchmark")
    p.add_argument("--workload", choices=names,
                   help="run one workload and end with the one-line JSON result")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", "--traced", dest="trace", type=int, nargs="?", const=1,
                   default=0, choices=[0, 1], help="per-layer (traced) run")
    p.add_argument("--smoke", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                   help="shrink trial counts only")
    args = p.parse_args()

    build()
    sha = git_sha()
    if args.workload:
        rec = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke,
                           sha)
        metrics = declared(spec, args.trace, rec)
        report(rec, metrics)
        print(json.dumps({"correct": bool(rec["correct"]), "attempted": int(rec["attempted"]),
                          "failed": int(rec["failed"]), "metrics": metrics}))
        return 0 if rec["correct"] else 1

    ok = True
    for name in names:
        for traced in ([0, 1] if args.trace else [0]):
            rec = run_workload(name, args.seed, args.seconds, traced, args.smoke, sha)
            report(rec, declared(spec, traced, rec))
            ok &= bool(rec["correct"])
    print("vfbench: %s" % ("all checks passed" if ok else "CHECKS FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
