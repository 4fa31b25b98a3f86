#!/usr/bin/env bash
# Runs one bench or example and diffs its stdout byte-for-byte against the
# committed golden (bench/golden/<bench>.stdout, examples/golden/<name>.stdout).
# Exits non-zero on any diff, and also when the binary itself fails (several
# benches gate their acceptance criteria through the exit code).
#
#   golden_diff.sh <binary> <golden-file>             # bench: --scale=0.05 --threads=2
#   golden_diff.sh <binary> <golden-file> -- [args]   # run with exactly [args]
#
# Bench stdout does not depend on --threads, so --threads=2 also exercises
# the parallel grid path.  Examples take their own arguments (or none), so
# they pass them after `--`.  The goldens themselves are written by
# scripts/regen_goldens.sh.
set -euo pipefail

binary="$1"
golden="$2"
shift 2
args=(--scale=0.05 --threads=2)
if [[ "${1:-}" == "--" ]]; then
  shift
  args=("$@")
fi
actual="$(mktemp)"
trap 'rm -f "${actual}"' EXIT

"${binary}" ${args[@]+"${args[@]}"} > "${actual}"
diff -u "${golden}" "${actual}"
