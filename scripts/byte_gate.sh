#!/usr/bin/env bash
# Fails when the benchmark's plane_bytes_per_item (propagate-saturate)
# exceeds the ceiling committed in scripts/plane_bytes_ceiling. The
# figure is a count of settled heap bytes, not a timing: it repeats to
# the byte across runs and seeds, so it can gate where timings cannot.
# Lower the ceiling when a change lands a smaller plane; never raise it
# to admit a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

ceiling="$(cat scripts/plane_bytes_ceiling)"
last="$(go run ./benchmark --workload propagate-saturate --seconds 5 --trace 0 | tail -n 1)"
bytes="$(printf '%s' "${last}" | sed -n 's/.*"plane_bytes_per_item":{"value":\([0-9.]*\).*/\1/p')"
if [ -z "${bytes}" ]; then
  echo "byte gate: no plane_bytes_per_item in the benchmark's last line:" >&2
  echo "${last}" >&2
  exit 1
fi
echo "plane_bytes_per_item: ${bytes} B (ceiling ${ceiling} B)"
awk -v b="${bytes}" -v c="${ceiling}" 'BEGIN { if (b + 0 > c + 0) { print "plane_bytes_per_item " b " B exceeds the " c " B ceiling"; exit 1 } }'
