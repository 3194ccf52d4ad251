#!/usr/bin/env bash
# Builds the benchmark and its calibration kernel from source, then runs
# one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory. Outside a full checkout the build fails and it exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" . && go build -buildvcs=false -o "$out/bin/kernel" ./kernel)
exec "$out/bin/perfbench" -kernel "$out/bin/kernel" -root "$root" -workdir "$out/run" "$@"
