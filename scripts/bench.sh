#!/bin/sh
# Run the driver-fixpoint and server benchmarks with benchstat-comparable
# output.
#
# Usage:
#   scripts/bench.sh                 # print results, save to bench-new.txt
#   scripts/bench.sh -c old.txt      # additionally diff against a baseline
#                                    # (uses benchstat when installed)
#   scripts/bench.sh -overhead       # run BenchmarkDriverFixpointObs and fail
#                                    # if the disabled tracer costs >5% over
#                                    # no tracer at all
#   scripts/bench.sh -advisor        # run BenchmarkAdvisorOrder and fail if
#                                    # order=auto costs >5% over order=default
#                                    # on an identical pipeline
#
# Environment:
#   BENCH    regexp of benchmarks to run  (default: DriverFixpoint|ServerOptimize|JobsThroughput|ClusterForward|FarmThroughput)
#   COUNT    -count for statistical runs; the -overhead/-advisor gates
#            run twice as many rounds (at least 12)  (default: 6)
#   OUT      output file                  (default: bench-new.txt)
set -eu

cd "$(dirname "$0")/.."

BENCH=${BENCH:-'DriverFixpoint|ServerOptimize|JobsThroughput|ClusterForward|FarmThroughput'}
COUNT=${COUNT:-6}
OUT=${OUT:-bench-new.txt}
BASELINE=
OVERHEAD=
ADVISOR=

while [ $# -gt 0 ]; do
  case "$1" in
    -c) BASELINE=$2; shift 2 ;;
    -overhead) OVERHEAD=1; shift ;;
    -advisor) ADVISOR=1; shift ;;
    *) echo "usage: scripts/bench.sh [-c baseline.txt] [-overhead] [-advisor]" >&2; exit 2 ;;
  esac
done

# run_ratio NAME WHAT BENCH BASE SIDE: gate the ns/op ratio of BENCH/SIDE
# over BENCH/BASE, the overhead of WHAT, at 1.05. The root package's test
# binary is built once; after a discarded warmup of both sides it runs
# ROUNDS rounds (twice COUNT, at least 12). A round runs the two sides
# strictly interleaved, PAIRS times each (B S B S B S, or S B S B S B in
# every other round), each run a quarter second (-benchtime 250ms), and
# its ratio is the mean of the SIDE runs over the mean of the BASE runs.
# Adjacent short runs see the same host speed, so a drift over seconds
# moves both sides of a round alike; one-second runs of each side in turn
# let it move one side. The gate is the median of the per-round ratios, so
# one noisy-neighbor episode moves a round or two, not the verdict; the
# ratio of the two sides' best runs is printed alongside.
run_ratio() {
  name=$1 what=$2 bench=$3 base=$4 side=$5
  rounds=$((2 * ${COUNT:-6}))
  [ "$rounds" -ge 12 ] || rounds=12
  pairs=3
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  go test -c -o "$tmp/bench.test" .
  one() { "$tmp/bench.test" -test.run '^$' -test.bench "$bench/$1\$" -test.benchtime "$2"; }
  one "($base|$side)" 1x >/dev/null
  : >"$OUT"
  i=1
  while [ "$i" -le "$rounds" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="$base $side"; else order="$side $base"; fi
    j=1
    while [ "$j" -le "$pairs" ]; do
      for v in $order; do
        one "$v" 250ms | awk -v r="$i" -v v="$v" '/^Benchmark/ { print "round", r, v, $3 }' | tee -a "$OUT"
      done
      j=$((j + 1))
    done
    i=$((i + 1))
  done
  awk -v name="$name" -v what="$what" -v base="$base" -v side="$side" '
    $3 == base { b[$2] += $4; nb[$2]++; if (!bb || $4 < bb) bb = $4 }
    $3 == side { s[$2] += $4; ns[$2]++; if (!sb || $4 < sb) sb = $4 }
    END {
      n = 0
      for (r in b) if (r in s) r_[++n] = (s[r] / ns[r]) / (b[r] / nb[r])
      if (n < 12) { printf "%s: missing benchmark output (%d complete rounds)\n", name, n; exit 1 }
      for (i = 2; i <= n; i++) for (j = i; j > 1 && r_[j-1] > r_[j]; j--) { t = r_[j]; r_[j] = r_[j-1]; r_[j-1] = t }
      med = (n % 2) ? r_[(n+1)/2] : (r_[n/2] + r_[n/2+1]) / 2
      printf "%s: %s/%s median of %d per-round ratios=%.3f (range %.3f-%.3f); best-of ratio=%.3f (%s=%.0f %s=%.0f ns/op)\n",
        name, side, base, n, med, r_[1], r_[n], sb / bb, base, bb, side, sb
      if (med > 1.05) { printf "FAIL: %s overhead exceeds 5%%\n", what; exit 1 }
      printf "OK: %s overhead within 5%%\n", what
    }' "$OUT"
}

if [ -n "$OVERHEAD" ]; then
  # Compare the no-tracer and disabled-tracer variants of the driver
  # fixpoint: the nil-safe span API must stay within 5% when tracing is off.
  run_ratio overhead disabled-tracer BenchmarkDriverFixpointObs none disabled
  exit
fi

if [ -n "$ADVISOR" ]; then
  # Compare order=default and order=auto on an identical pipeline (the
  # benchmark seeds the outcome store so auto retrieves the default order):
  # the advisor's featurize + k-NN retrieval must stay within 5% of p50
  # request latency.
  run_ratio advisor order=auto BenchmarkAdvisorOrder default auto
  exit
fi

go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . | tee "$OUT"

if [ -n "$BASELINE" ]; then
  if command -v benchstat >/dev/null 2>&1; then
    benchstat "$BASELINE" "$OUT"
  else
    echo "benchstat not installed; compare $BASELINE vs $OUT manually" >&2
  fi
fi
