#!/usr/bin/env bash
# Runs every workload of the benchmark, end to end and then traced, for one
# seed, printing each run's report and result line. Run it from the
# repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Each run's full record lands in .bench_build/results/.
set -euo pipefail

seed=${1:-1}
seconds=${2:-10}
status=0
for w in gpu-supermer cpu-kmer-outofcore serve-zipf; do
	for trace in 0 1; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
	done
done
exit $status
