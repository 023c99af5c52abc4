#!/usr/bin/env bash
# Print every metric of every workload, end-to-end (--trace 0) then per-layer
# (--trace 1), with the row checks. Run from anywhere:
#   bash bench/all.sh [seed] [seconds]
cd "$(dirname "$0")/.." || exit 2
seed="${1:-7}"
seconds="${2:-55}"
status=0
for workload in fig2 fig3-threads2; do
  for trace in 0 1; do
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" || status=1
  done
done
exit "$status"
