#!/usr/bin/env bash
# Coverage census: which library functions does no program reach?
#
# A path that only tests call is a path no user of the repo runs. This
# script builds the library with gcc's --coverage at -O0 -DNDEBUG twice —
# the top-level project with tests off (build-census/: every bench and
# example) and the benchmark project (build-census-bench/: vfbench) — and
# runs every program:
#   * every bench with --smoke=1 (bench_microbench with
#     --benchmark_min_time=0.01, its own flag grammar), and bench_faults
#     once more at its default size: only there does a kill evict a
#     prefill, which runs the fault handler's requeue branch
#     (RequestQueue::push_front, TokenStreamer::cancel). Running every
#     bench at default size reaches nothing else;
#   * bench_serving once more with --json, --trace and --metrics, so the
#     export paths users run (JsonReport, TraceRecorder and
#     MetricsRegistry saves) count as reached;
#   * every example;
#   * vfbench on all four workloads with --smoke=1, plain and --traced=1.
# It then merges `gcov -j` output from both trees (python3) and prints
# every src/ function that ran zero times (`file:line name`), followed by
# each src/ file's count of never-run lines and a `total:` line with both
# counts.
#
# The ratchet: tools/census_functions.txt holds the committed list
# (`file name`, no line numbers). --check fails when a function joins it,
# so new surface that only tests reach needs an explicit edit of that
# file, as a golden pin does.
#
# Usage: tools/coverage_census.sh [--check | --update]
#   --check   compare with tools/census_functions.txt: name each function
#             missing from it (exit 1) and each listed one that left it
#             (now run by a program, or deleted; informational).
#   --update  rewrite tools/census_functions.txt from this run.
#   JOBS=<n> sets the build parallelism (default: nproc).
#   CXX=<g++> picks the compiler (default: c++); gcov must match it.
# Exit: 0 when every program exits 0 (and, with --check, no function
# joined the list), 1 when any program fails or a function joined (the
# census is still printed), 2 when the toolchain is not gcc/gcov or the
# arguments are wrong.
# vfbench's traced runs gate on host-time shares (|unattributed| <= 5%),
# so run the census on a quiet host: a concurrent build can fail them.
set -euo pipefail

mode=
case ${1-} in
  '') ;;
  --check | --update) mode=${1#--} ;;
  *)
    echo "usage: tools/coverage_census.sh [--check | --update]" >&2
    exit 2
    ;;
esac

die_toolchain() {
  echo "coverage_census: $1 (the census needs gcc and its gcov with -j)" >&2
  exit 2
}

cxx=${CXX:-c++}
command -v "$cxx" > /dev/null || die_toolchain "no compiler '$cxx'"
macros=$("$cxx" -dM -E -x c++ /dev/null 2> /dev/null) ||
  die_toolchain "'$cxx' cannot preprocess"
grep -q '__GNUC__' <<< "$macros" || die_toolchain "'$cxx' is not gcc"
if grep -q '__clang__' <<< "$macros"; then die_toolchain "'$cxx' is clang, not gcc"; fi
command -v gcov > /dev/null || die_toolchain "no gcov on PATH"
gcov --help 2> /dev/null | grep -q -- '--json-format' ||
  die_toolchain "gcov lacks --json-format"
command -v python3 > /dev/null || die_toolchain "no python3 to merge gcov output"

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-$(nproc)}
top="$repo/build-census"
bench="$repo/build-census-bench"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

configure_and_build() {  # <source dir> <build dir> <log> [cmake args...]
  local src=$1 dir=$2 log=$3
  shift 3
  if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Census \
           -DCMAKE_CXX_COMPILER="$cxx" \
           -DCMAKE_CXX_FLAGS="-O0 --coverage -DNDEBUG" \
           -DCMAKE_EXE_LINKER_FLAGS=--coverage "$@" &&
         cmake --build "$dir" -j "$jobs"; } > "$log" 2>&1; then
    echo "build failed in $dir; last lines of $log:" >&2
    tail -n 20 "$log" >&2
    exit 1
  fi
}
echo "building $top ..."
configure_and_build "$repo" "$top" "$work/build-top.log" -DVF_BUILD_TESTS=OFF
echo "building $bench ..."
configure_and_build "$repo/benchmark" "$bench" "$work/build-bench.log"

# Counters accumulate across runs; start from zero so the census covers
# exactly this script's programs.
find "$top" "$bench" -name '*.gcda' -delete

failed=()
# run <label> <argv...>: runs in a scratch directory so no output file
# lands in the tree; records a failure instead of stopping.
run() {
  local label=$1
  shift
  echo "  run $label"
  if ! (cd "$work/run" && "$@") > "$work/last.out" 2>&1; then
    failed+=("$label")
    { grep -B1 -E '"ok": false|NO — BUG' "$work/last.out" || tail -n 5 "$work/last.out"; } |
      head -n 10 | sed 's/^/    | /' >&2
  fi
}
mkdir "$work/run"
echo "running benches, examples and vfbench ..."
for bin in "$top"/bench/bench_*; do
  [[ -x $bin && -f $bin ]] || continue
  name=$(basename "$bin")
  if [[ $name == bench_microbench ]]; then
    run "$name" "$bin" --benchmark_min_time=0.01
  else
    run "$name" "$bin" --smoke=1
  fi
done
run "bench_faults (default size)" "$top/bench/bench_faults"
run "bench_serving (exports)" "$top/bench/bench_serving" --smoke=1 \
  --json="$work/run/serving.json" --trace="$work/run/serving.trace.json" \
  --metrics="$work/run/serving.metrics.json"
for bin in "$top"/examples/example_*; do
  [[ -x $bin && -f $bin ]] || continue
  run "$(basename "$bin")" "$bin"
done
for workload in train-large-batch train-many-vn serve-stream cluster-960; do
  for traced in 0 1; do
    run "vfbench $workload traced=$traced" "$bench/vfbench" --workload="$workload" \
      --smoke=1 --traced="$traced"
  done
done

echo "collecting gcov output ..."
mkdir "$work/gcov"
find "$top" "$bench" -name '*.gcno' -print0 |
  (cd "$work/gcov" && xargs -0 -n 16 gcov -j -m -p > /dev/null 2>&1 || true)

joined=0
python3 - "$repo/src" "$work/gcov" "$mode" "$repo/tools/census_functions.txt" << 'EOF' ||
import collections, glob, gzip, json, os, sys

src = os.path.realpath(sys.argv[1]) + os.sep
root = os.path.dirname(os.path.dirname(src))
funcs = collections.defaultdict(int)  # (file, line, name) -> calls
lines = collections.defaultdict(lambda: collections.defaultdict(int))
for path in glob.glob(os.path.join(sys.argv[2], "*.gcov.json.gz")):
    with gzip.open(path, "rt") as f:
        doc = json.load(f)
    cwd = doc.get("current_working_directory", "")
    for rec in doc["files"]:
        name = os.path.realpath(os.path.join(cwd, rec["file"]))
        # A source deleted since the census trees were last built leaves
        # its .gcno behind; it is not part of the library any more.
        if not name.startswith(src) or not os.path.exists(name):
            continue
        rel = os.path.relpath(name, root)
        for fn in rec["functions"]:
            key = (rel, fn["start_line"], fn.get("demangled_name", fn["name"]))
            funcs[key] += fn["execution_count"]
        for ln in rec["lines"]:
            lines[rel][ln["line_number"]] += ln["count"]

unrun = sorted(key for key, count in funcs.items() if count == 0)
print("functions no program ran (file:line name):")
for rel, line, name in unrun:
    print(f"  {rel}:{line} {name}")
print("never-run lines per file:")
total = 0
for rel in sorted(lines):
    never = sum(1 for c in lines[rel].values() if c == 0)
    total += never
    if never:
        print(f"  {rel}: {never} of {len(lines[rel])}")
print(f"total: {len(unrun)} functions, {total} never-run lines")

mode, list_path = sys.argv[3], sys.argv[4]
names = sorted({f"{rel} {name}" for rel, _, name in unrun})
if mode == "update":
    with open(list_path, "w") as f:
        f.write("# src/ functions no bench, example or vfbench workload runs, as\n"
                "# `file name`. tools/coverage_census.sh --check fails when one\n"
                "# joins; --update rewrites this file.\n")
        f.writelines(n + "\n" for n in names)
    print(f"wrote {len(names)} functions to {os.path.relpath(list_path, root)}")
elif mode == "check":
    with open(list_path) as f:
        listed = {ln.rstrip("\n") for ln in f if ln.strip() and not ln.startswith("#")}
    left = sorted(listed.difference(names))
    new = sorted(set(names).difference(listed))
    for n in left:
        print(f"left the list (now run, or deleted): {n}")
    for n in new:
        print(f"JOINED the list (no program runs it): {n}")
    print(f"check: {len(new)} joined, {len(left)} left")
    sys.exit(1 if new else 0)
EOF
  joined=1

if ((${#failed[@]})); then
  echo "FAILED programs (${#failed[@]}): ${failed[*]}" >&2
  exit 1
fi
echo "every program exited 0"
if ((joined)); then
  echo "census check failed: functions joined tools/census_functions.txt" >&2
  exit 1
fi
