#!/usr/bin/env bash
# Bench-equivalence check: a change that claims to keep behaviour must
# print the same bench stdout as the commit it started from.
#
# Builds every bench whose stdout is deterministic twice — at <ref>
# (exported with `git archive`) and in the working tree's build/ — runs
# the 23 invocations (the six serving ones, the 14 figure benches,
# bench_ablation_reduction, bench_table1_fig8_repro and
# bench_table2_glue) in both, and diffs their stdout. Only
# bench_serving's "replay wall" line (host time) is dropped before the
# diff. bench_hotpath, bench_pool_speedup and bench_microbench print host
# timings and are not run. Prints one verdict line per invocation.
#
# The export of <ref> and its build are kept in build-equiv/<commit sha>/
# (gitignored, like every build-*/ tree) and reused by later calls for
# the same commit, so the usual pair — a smoke run, then --full — builds
# the ref once. A build that did not finish is redone from scratch;
# delete the directory to force a fresh one.
#
# Usage: tools/bench_equivalence.sh <ref> [--full]
#   default: every bench runs with --smoke=1; --full runs default sizes.
#   JOBS=<n> sets the build parallelism (default: nproc).
# Exit: 0 when every run exits 0 and every stdout matches, 1 otherwise,
# 2 on a usage error.
set -euo pipefail

usage() {
  echo "usage: $0 <ref> [--full]" >&2
  exit 2
}
[[ $# -ge 1 && $# -le 2 ]] || usage
ref=$1
size=(--smoke=1)
if [[ $# -eq 2 ]]; then
  [[ $2 == --full ]] || usage
  size=()
fi

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$repo" rev-parse --verify --quiet "$ref^{commit}") || {
  echo "unknown ref: $ref" >&2
  exit 2
}
serving=(bench_serving bench_colocation bench_streaming bench_faults bench_cosched)
others=(bench_ablation_reduction bench_fig2_rte bench_fig4_tradeoff bench_fig6_memory
        bench_fig7_uneven bench_fig9_exploration bench_fig10_elastic3
        bench_fig11_12_elastic20 bench_fig13_table4_hetero bench_fig14_solver_acc
        bench_fig15_gavel bench_fig16_gavel_trace bench_fig17_micro bench_fig18_overhead
        bench_fig19_pipeline bench_table1_fig8_repro bench_table2_glue)
benches=("${serving[@]}" "${others[@]}")
invocations=("bench_serving --continuous=0" "bench_serving --continuous=1"
             "${serving[@]:1}" "${others[@]}")
jobs=${JOBS:-$(nproc)}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/run"
cache=$repo/build-equiv/$sha

build() {  # <source dir> <build dir> <log>
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$2" -j "$jobs" --target "${benches[@]}"; } > "$3" 2>&1; then
    echo "build failed in $2; last lines of $3:" >&2
    tail -n 20 "$3" >&2
    exit 1
  fi
}
# The stamp is written only after the ref's build succeeded.
if [[ -f $cache/built ]]; then
  echo "reusing the build of $ref ($sha) in $cache"
else
  echo "building $ref ($sha) in $cache ..."
  rm -rf "$cache"
  mkdir -p "$cache/src"
  git -C "$repo" archive "$sha" | tar x -C "$cache/src"
  build "$cache/src" "$cache/build" "$cache/build.log"
  touch "$cache/built"
fi
echo "building the working tree in build/ ..."
build "$repo" "$repo/build" "$work/build-new.log"

# run <bin dir> <out file> <argv...>: stdout minus host-time lines; the
# exit code is returned. Runs in a temporary directory so no output file can
# land in either tree.
run() {
  local bin=$1 out=$2
  shift 2
  local rc=0
  (cd "$work/run" && "$bin/$1" "${@:2}" "${size[@]}") > "$out.raw" 2> "$out.err" || rc=$?
  grep -v "replay wall" "$out.raw" > "$out" || true
  return "$rc"
}

status=0
for i in "${!invocations[@]}"; do
  read -r -a argv <<< "${invocations[$i]}"
  label="${invocations[$i]} ${size[*]}"
  ref_rc=0
  new_rc=0
  run "$cache/build/bench" "$work/ref.$i" "${argv[@]}" || ref_rc=$?
  run "$repo/build/bench" "$work/new.$i" "${argv[@]}" || new_rc=$?
  if [[ $ref_rc -ne 0 || $new_rc -ne 0 ]]; then
    echo "FAIL       $label (exit: ref $ref_rc, working tree $new_rc)"
    status=1
  elif cmp -s "$work/ref.$i" "$work/new.$i"; then
    echo "identical  $label"
  else
    echo "DIFFERS    $label"
    diff "$work/ref.$i" "$work/new.$i" | head -n 20 || true
    status=1
  fi
done
exit "$status"
