#!/usr/bin/env bash
# Compares two result sets written by `run.sh --set` (A = parent, B = change)
# under the bounds in BENCHMARK.json, one row per metric and workload:
#
#   agree       B's median is within the metric's bound of A's
#   worse       B's median is worse than A's by more than the bound
#   better      B's median is better than A's by more than the bound
#   unresolved  the run-to-run spread (quartile distance of either side, as
#               a share of A's median) is wider than the bound, and not every
#               run of B beats every run of A
#
# Simulated metrics are also compared exactly, seed by seed: they are
# deterministic, so any difference on a shared seed is reported (as worse or
# better, by the metric's direction).
#
#   bench/benchmark/agree.sh A.json B.json
#
# Needs bash and python3 (standard library only).  Exits 1 when any row is
# worse, 2 on bad input.
set -euo pipefail
[[ $# -eq 2 ]] || { echo "usage: agree.sh A.json B.json" >&2; exit 2; }
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here/../../BENCHMARK.json" "$1" "$2" <<'PY'
import json
import statistics
import sys

manifest_path, a_path, b_path = sys.argv[1:4]
try:
    manifest = json.load(open(manifest_path))
    sets = [json.load(open(p))["runs"] for p in (a_path, b_path)]
except (OSError, ValueError, KeyError) as e:
    print(f"agree.sh: {e}", file=sys.stderr)
    sys.exit(2)

# Direction of the simulated metrics (they are not all in BENCHMARK.json).
SIM_BETTER = {"sim_MiB_per_s": "higher", "sim_lat_p50_ms": "lower",
              "sim_lat_p99_ms": "lower", "failed_frac": "lower"}


def values(runs, workload, metric):
    out = []
    for r in runs:
        if r["workload"] == workload:
            v = r["metrics"].get(metric, {}).get("value")
            if v is not None:
                out.append((r["seed"], v))
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def worse_by(a, b, better):
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0 if a == b else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def beats(x, y, better):
    return x < y if better == "lower" else x > y


workloads = []
for r in sets[0] + sets[1]:
    if r["workload"] not in workloads:
        workloads.append(r["workload"])

rows = []
for w in workloads:
    for m in manifest["end_to_end"]:
        a = [v for _, v in values(sets[0], w, m["name"])]
        b = [v for _, v in values(sets[1], w, m["name"])]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        bound = m["bound"]
        change = worse_by(ma, mb, m["better"])
        spread = 0.0
        if ma != 0:
            spread = max(hi - lo for lo, hi in (quartiles(a), quartiles(b))) / abs(ma)
        if spread > bound:
            all_better = all(beats(y, x, m["better"]) for x in a for y in b)
            verdict = "better" if all_better else "unresolved"
        elif change > bound:
            verdict = "worse"
        elif -change > bound:
            verdict = "better"
        else:
            verdict = "agree"
        rows.append((w, m["name"], m["unit"], ma, quartiles(a), mb, quartiles(b), change,
                     f"{bound:.0%}", verdict))
    for name, better in SIM_BETTER.items():
        a = dict(values(sets[0], w, name))
        b = dict(values(sets[1], w, name))
        shared = sorted(set(a) & set(b))
        if not shared:
            continue
        diff = [s for s in shared if a[s] != b[s]]
        ma = statistics.median(a[s] for s in shared)
        mb = statistics.median(b[s] for s in shared)
        verdict = "agree"
        if diff:
            verdict = "worse" if worse_by(ma, mb, better) >= 0 else "better"
        rows.append((w, name, "virtual", ma, quartiles([a[s] for s in shared]), mb,
                     quartiles([b[s] for s in shared]), worse_by(ma, mb, better), "exact",
                     verdict))

print(f"{'workload':<16} {'metric':<16} {'unit':<8} {'A median [q1, q3]':>32} "
      f"{'B median [q1, q3]':>32} {'worse by':>9} {'bound':>6}  verdict")
for w, name, unit, ma, qa, mb, qb, change, bound, verdict in rows:
    fa = f"{ma:.6g} [{qa[0]:.4g}, {qa[1]:.4g}]"
    fb = f"{mb:.6g} [{qb[0]:.4g}, {qb[1]:.4g}]"
    print(f"{w:<16} {name:<16} {unit:<8} {fa:>32} {fb:>32} {change:>8.2%} {bound:>6}  {verdict}")
sys.exit(1 if any(r[-1] == "worse" for r in rows) else 0)
PY
