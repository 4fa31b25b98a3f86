#!/usr/bin/env bash
# Regenerates the golden stdout files in bench/golden/ from the current
# build.  Run this after an *intentional* change of a bench outcome (a new
# microbench section, a changed coalescing shape, a moved figure cell),
# review the diff, and commit the goldens together with the change that
# caused them and the reason.  Tier-1 (one BenchGolden.<bench> ctest per
# bench) and CI diff bench stdout byte-for-byte against these files, so an
# unreviewed regen would launder a real regression.
#
#   BUILD_DIR - where the bench binaries live (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
golden_dir="${repo_root}/bench/golden"
mkdir -p "${golden_dir}"

# Same list as MHA_GOLDEN_BENCHES in bench/CMakeLists.txt.
benches=(
  fig07_ior_mixed_sizes
  fig08_server_load
  fig09_ior_mixed_procs
  fig10_server_ratios
  fig11_hpio
  fig12_btio_lanl
  fig13_lu_cholesky
  fig14_overhead
  ext_online_adaptation
  ext_scalability
  ext_carl
  ext_collective_io
  ext_scheduler
  ext_fault
  ext_multitenant
  ext_overload
  ext_cache
  ext_repair
)

cmake --build "${build_dir}" -j --target microbench "${benches[@]}"

# Structural stdout only: timed kernels print to stderr and are never
# golden-diffed.  --threads=1 matches CI; stdout must not depend on it.
"${build_dir}/bench/microbench" --threads=1 \
  > "${golden_dir}/microbench.stdout" 2> /dev/null

# Figure and extension benches at the golden scale (scripts/golden_diff.sh
# replays them the same way).  Stdout is independent of --threads.
for bench in "${benches[@]}"; do
  "${build_dir}/bench/${bench}" --scale=0.05 \
    > "${golden_dir}/${bench}.stdout" 2> /dev/null
done

echo "regenerated goldens in ${golden_dir}:"
git -C "${repo_root}" diff --stat -- bench/golden || true
