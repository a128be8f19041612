#!/usr/bin/env python3
"""Per-workload, per-metric verdicts between two sets of vfbench results.

    python3 benchmark/compare.py A B
    python3 benchmark/compare.py --pairs A B

A and B are result directories as run.py writes them (one <workload>.json
per workload), or directories holding several such run directories. Only
the end-to-end metrics of BENCHMARK.json are judged, each against its bound
(the share of A's value by which B may be worse):

  worse       B is worse than A by more than the bound
  better      B is better than A by more than the bound
  unchanged   the difference is inside the bound
  unresolved  A's own spread is wider than the bound, so a difference of
              that size cannot be told from noise — unless every run of B
              reads better than every run of A

A's spread is the distance between the quartiles of its values over its
runs, as a share of their median. A single run has no run-to-run spread;
its host metrics carry the same statistic over five time-ordered chunks of
the run, whose quartile distance stands in for it.

Virtual-clock metrics repeat bit for bit for a seed. When A and B hold runs
of the same seeds, such a metric is compared seed by seed and exactly: any
difference counts, whatever the bound. B is worse if it is worse on any
seed, better if it is better on some seed and worse on none.

--pairs judges a change by paired runs instead: A and B each hold at least
ten runs, paired in sorted directory order (alternate which side runs first
when producing them). B is better only if it wins at least nine tenths of
the pairs (ties count for neither) and the medians differ by more than A's
quartile distance; otherwise the bound rules above apply to the medians.

Exit status 1 when any metric is worse, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(path):
    """{workload: [record, ...]} from a result dir or a dir of result dirs."""
    def records_in(d):
        out = {}
        for f in sorted(os.listdir(d)):
            if f.endswith(".json") and not f.endswith((".traced.json", ".spans.json")):
                with open(os.path.join(d, f)) as fh:
                    rec = json.load(fh)
                if "workload" in rec and "metrics" in rec:
                    out[rec["workload"]] = rec
        return out

    runs = {}
    top = records_in(path)
    subdirs = sorted(os.path.join(path, e) for e in os.listdir(path)
                     if os.path.isdir(os.path.join(path, e)))
    for found in ([top] if top else [records_in(d) for d in subdirs]):
        for w, rec in found.items():
            runs.setdefault(w, []).append(rec)
    return runs


def quartile_spread(values):
    """Distance between the quartiles as a share of the median (0 if < 2 values)."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def side_spread(recs, name):
    values = [r["metrics"][name]["value"] for r in recs]
    if len(values) >= 2:
        return quartile_spread(values)
    return quartile_spread(recs[0]["metrics"][name].get("chunks", []))


def verdict(a_vals, b_vals, a_spread, bound, better):
    d = worse_by(statistics.median(a_vals), statistics.median(b_vals), better)
    every_b_better = all(worse_by(a, b, better) < 0 for a in a_vals for b in b_vals)
    if a_spread > bound and not every_b_better:
        return "unresolved", d
    if d > bound:
        return "worse", d
    if d < -bound:
        return "better", d
    return "unchanged", d


def same_seed_verdict(a_recs, b_recs, name, better):
    """Exact seed-by-seed verdict for a virtual-clock metric, or None when it
    does not apply (a host metric, or the sides hold different seeds)."""
    if any(r["metrics"][name].get("clock") != "virtual" for r in a_recs + b_recs):
        return None
    a = {r["seed"]: r["metrics"][name]["value"] for r in a_recs}
    b = {r["seed"]: r["metrics"][name]["value"] for r in b_recs}
    if set(a) != set(b):
        return None
    moves = [worse_by(a[s], b[s], better) for s in sorted(a)]
    if max(moves) > 0:
        return "worse", max(moves)
    if min(moves) < 0:
        return "better", min(moves)
    return "unchanged", 0.0


def pairs_verdict(a_vals, b_vals, bound, better):
    n = min(len(a_vals), len(b_vals))
    if n < 10:
        raise ValueError("--pairs needs at least 10 runs per side, got %d" % n)
    wins = sum(1 for a, b in zip(a_vals, b_vals) if worse_by(a, b, better) < 0)
    med_a, med_b = statistics.median(a_vals), statistics.median(b_vals)
    q = statistics.quantiles(a_vals, n=4)
    d = worse_by(med_a, med_b, better)
    if wins >= 0.9 * n and abs(med_b - med_a) > q[2] - q[0]:
        return "better", d, wins, n
    v, d = verdict(a_vals, b_vals, quartile_spread(a_vals), bound, better)
    return ("unchanged" if v == "better" else v), d, wins, n


def compare(spec, a_runs, b_runs, pairs=False):
    rows = []
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in a_runs or w not in b_runs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            a_recs, b_recs = a_runs[w], b_runs[w]
            a_vals = [r["metrics"][name]["value"] for r in a_recs]
            b_vals = [r["metrics"][name]["value"] for r in b_recs]
            row = {"workload": w, "metric": name, "unit": m["unit"], "bound": m["bound"],
                   "a": statistics.median(a_vals), "b": statistics.median(b_vals)}
            exact = same_seed_verdict(a_recs, b_recs, name, m["better"])
            if exact:
                v, d = exact
                row.update(verdict=v, worse_by=d, rule="exact, same seeds")
            elif pairs:
                v, d, wins, n = pairs_verdict(a_vals, b_vals, m["bound"], m["better"])
                row.update(verdict=v, worse_by=d, rule="wins %d/%d" % (wins, n))
            else:
                spread = side_spread(a_recs, name)
                v, d = verdict(a_vals, b_vals, spread, m["bound"], m["better"])
                row.update(verdict=v, worse_by=d, rule="A spread %.3f" % spread)
            rows.append(row)
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="baseline results (parent)")
    p.add_argument("b", help="results to judge (change)")
    p.add_argument("--pairs", action="store_true", help="paired-runs rule (>= 10 pairs)")
    p.add_argument("--spec", default=SPEC, help="BENCHMARK.json with the bounds")
    args = p.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    rows = compare(spec, load_runs(args.a), load_runs(args.b), args.pairs)
    if not rows:
        print("compare.py: no workload present on both sides", file=sys.stderr)
        return 1
    last = None
    for r in rows:
        if r["workload"] != last:
            print("== %s" % r["workload"])
            last = r["workload"]
        print("   %-20s %14.6g -> %14.6g %-9s %+7.2f%% worse (bound %g%%)  %-10s %s" % (
            r["metric"], r["a"], r["b"], r["unit"], 100 * r["worse_by"], 100 * r["bound"],
            r["verdict"], r["rule"]))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
