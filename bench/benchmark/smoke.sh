#!/usr/bin/env bash
# ctest benchmark_smoke: runs every workload at --smoke size twice, once
# plain and once --traced, and fails unless
#   - every run passes its checks,
#   - the two invocations report bit-identical simulated metrics (printed
#     with 17 significant digits), and
#   - the last stdout line of each carries exactly the metrics BENCHMARK.json
#     lists (end_to_end plain, per_layer traced).
#
#   smoke.sh path/to/mha_benchmark OUT_DIR
set -euo pipefail
bin="$1"
out="$2"
manifest="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)/BENCHMARK.json"
mkdir -p "$out"
for w in ckpt_lanl_mha dl_shuffle_mha btio_cached_def chaos_qos_mha; do
  for run in plain traced; do
    flags=()
    [[ "$run" == traced ]] && flags=(--traced)
    if ! "$bin" --workload="$w" --seed=5 --smoke "${flags[@]}" --json="$out/$w.$run.json" \
        >"$out/$w.$run.log"; then
      cat "$out/$w.$run.log"
      echo "smoke: $w $run run failed" >&2
      exit 1
    fi
    python3 - "$manifest" "$out/$w.$run.log" "$run" <<'PY'
import json, sys
manifest, log, run = sys.argv[1:4]
listed = {m["name"] for m in json.load(open(manifest))["end_to_end" if run == "plain" else "per_layer"]}
line = json.loads(open(log).read().strip().splitlines()[-1])
got = set(line["metrics"])
if got != listed or not line["correct"]:
    sys.exit(f"smoke: {log}: result line metrics differ from BENCHMARK.json: {sorted(got ^ listed)}")
PY
  done
  # Simulated metrics and the virtual-time layer metrics.
  pattern='"group": "sim"|-virtual"'
  if ! diff <(grep -E "$pattern" "$out/$w.plain.json") <(grep -E "$pattern" "$out/$w.traced.json"); then
    echo "smoke: $w simulated metrics differ between two invocations" >&2
    exit 1
  fi
  echo "smoke: $w ok"
done
