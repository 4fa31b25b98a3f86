#!/usr/bin/env bash
# Runs one bench at the golden scale and diffs its stdout byte-for-byte
# against the committed golden (bench/golden/<bench>.stdout).  Exits non-zero
# on any diff, and also when the bench itself fails (several benches gate
# their acceptance criteria through the exit code).
#
#   golden_diff.sh <bench-binary> <golden-file>
#
# Stdout does not depend on --threads, so --threads=2 also exercises the
# parallel grid path; the goldens themselves are written by
# scripts/regen_goldens.sh.
set -euo pipefail

bench="$1"
golden="$2"
actual="$(mktemp)"
trap 'rm -f "${actual}"' EXIT

"${bench}" --scale=0.05 --threads=2 > "${actual}"
diff -u "${golden}" "${actual}"
