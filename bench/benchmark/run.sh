#!/usr/bin/env bash
# End-to-end benchmark of the MHA request path (see README.md).
#
#   bench/benchmark/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#       Builds (Release, into build-benchmark/ at the repository root) and
#       runs one workload in its own single-threaded process.  The last line
#       of stdout is the result object; the full result and, with --trace 1,
#       the span file land in build-benchmark/results/.
#
#   bench/benchmark/run.sh --set OUT.json [--seed N] [--repeat K] [--seconds S] [--trace 0|1]
#       Runs every workload K times (seeds N .. N+K-1), each run in its own
#       process, and collects the per-run results into OUT.json for agree.sh.
#
# Exits non-zero when the build fails, an argument is wrong, or a run's
# correctness checks fail.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-benchmark"
workloads=(ckpt_lanl_mha dl_shuffle_mha btio_cached_def chaos_qos_mha)

die() {
  echo "run.sh: $*" >&2
  exit 2
}

workload="" seed=1 seconds=8 trace=0 set_out="" repeat=1
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || die "missing value for $1"
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --set) set_out="$2" ;;
    --repeat) repeat="$2" ;;
    *) die "unknown argument $1" ;;
  esac
  shift 2
done
[[ "$seed" =~ ^[0-9]+$ ]] || die "--seed must be a whole number"
[[ "$repeat" =~ ^[1-9][0-9]*$ ]] || die "--repeat must be a positive whole number"
[[ "$trace" == 0 || "$trace" == 1 ]] || die "--trace must be 0 or 1"
[[ -n "$workload" || -n "$set_out" ]] || die "give --workload NAME or --set OUT.json"
[[ -f "$root/src/CMakeLists.txt" ]] || die "library sources not found at $root/src"

mkdir -p "$build/results"
jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4
generator=()
command -v ninja >/dev/null 2>&1 && [[ ! -f "$build/Makefile" ]] && generator=(-G Ninja)
if ! { cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target mha_benchmark -j "$jobs"; } >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  die "build failed"
fi

traced=()
[[ "$trace" == 1 ]] && traced=(--traced)

if [[ -n "$workload" ]]; then
  json="$build/results/$workload-seed$seed-trace$trace.json"
  exec "$build/mha_benchmark" --workload="$workload" --seed="$seed" --seconds="$seconds" \
    "${traced[@]}" --json="$json"
fi

files=()
status=0
for ((r = 0; r < repeat; r++)); do
  s=$((seed + r))
  for w in "${workloads[@]}"; do
    json="$build/results/$w-seed$s-trace$trace.json"
    echo "== $w seed=$s"
    rm -f "$json"
    "$build/mha_benchmark" --workload="$w" --seed="$s" --seconds="$seconds" \
      "${traced[@]}" --json="$json" || status=1
    [[ -f "$json" ]] && files+=("$json")
  done
done
{
  printf '{"runs": [\n'
  sep=""
  for f in "${files[@]}"; do
    printf '%s' "$sep"
    cat "$f"
    sep=","
  done
  printf ']}\n'
} >"$set_out"
echo "wrote $set_out"
exit "$status"
