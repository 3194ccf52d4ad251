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
#   scripts/bench.sh -native         # run BenchmarkCompiledFixpoint and fail
#                                    # unless the compiled fast path is at
#                                    # least 1.5x the interpreted engine
#   scripts/bench.sh -advisor        # run BenchmarkAdvisorOrder and fail if
#                                    # order=auto costs >5% over order=default
#                                    # on an identical pipeline
#
# Environment:
#   BENCH    regexp of benchmarks to run  (default: DriverFixpoint|ServerOptimize|JobsThroughput|ClusterForward|FarmThroughput)
#   COUNT    -count for statistical runs  (default: 6)
#   OUT      output file                  (default: bench-new.txt)
set -eu

cd "$(dirname "$0")/.."

BENCH=${BENCH:-'DriverFixpoint|ServerOptimize|JobsThroughput|ClusterForward|FarmThroughput'}
COUNT=${COUNT:-6}
OUT=${OUT:-bench-new.txt}
BASELINE=
OVERHEAD=
NATIVE=
ADVISOR=

while [ $# -gt 0 ]; do
  case "$1" in
    -c) BASELINE=$2; shift 2 ;;
    -overhead) OVERHEAD=1; shift ;;
    -native) NATIVE=1; shift ;;
    -advisor) ADVISOR=1; shift ;;
    *) echo "usage: scripts/bench.sh [-c baseline.txt] [-overhead] [-native] [-advisor]" >&2; exit 2 ;;
  esac
done

# run_gated BENCHREGEX: one discarded warmup iteration (fills toolchain,
# page and artifact caches), then COUNT measured series at -benchtime 3x.
# Gate math downstream takes the best (minimum) of each series, so a single
# noisy-neighbor episode on a shared runner cannot flip a ratio gate.
run_gated() {
  go test -run '^$' -bench "$1" -benchtime 1x . >/dev/null
  go test -run '^$' -bench "$1" -benchtime 3x -count "$COUNT" . | tee "$OUT"
}

if [ -n "$OVERHEAD" ]; then
  # Compare the no-tracer and disabled-tracer variants of the driver
  # fixpoint: the nil-safe span API must stay within 5% when tracing is off.
  run_gated 'BenchmarkDriverFixpointObs/(none|disabled)$'
  awk '
    /DriverFixpointObs\/none/     { if (!nc || $3 < none) none = $3; nc++ }
    /DriverFixpointObs\/disabled/ { if (!dc || $3 < dis)  dis  = $3; dc++ }
    END {
      if (nc == 0 || dc == 0) { print "overhead: missing benchmark output"; exit 1 }
      ratio = dis / none
      printf "overhead: none=%.0f ns/op disabled=%.0f ns/op ratio=%.3f (best of %d)\n", none, dis, ratio, nc
      if (ratio > 1.05) { print "FAIL: disabled-tracer overhead exceeds 5%"; exit 1 }
      print "OK: disabled-tracer overhead within 5%"
    }' "$OUT"
  exit 0
fi

if [ -n "$NATIVE" ]; then
  # Compare the compiled (plugin artifact + shared-graph pipeline) and
  # interpreted engines on the paper-scale corpus: the compiled serving
  # fast path must hold a >=1.5x steady-state speedup. The benchmark's own
  # setup already proves the outputs byte-identical.
  run_gated 'BenchmarkCompiledFixpoint/(interpreted|compiled)$'
  awk '
    /CompiledFixpoint\/interpreted/ { if (!ic || $3 < interp) interp = $3; ic++ }
    /CompiledFixpoint\/compiled/    { if (!cc || $3 < comp)   comp   = $3; cc++ }
    END {
      if (ic == 0 || cc == 0) { print "native: missing benchmark output (plugin artifact unavailable?)"; exit 1 }
      ratio = interp / comp
      printf "native: interpreted=%.0f ns/op compiled=%.0f ns/op speedup=%.2fx (best of %d)\n", interp, comp, ratio, ic
      if (ratio < 1.5) { print "FAIL: compiled speedup below 1.5x"; exit 1 }
      print "OK: compiled fast path is >=1.5x over the interpreted engine"
    }' "$OUT"
  exit 0
fi

if [ -n "$ADVISOR" ]; then
  # Compare order=default and order=auto on an identical pipeline (the
  # benchmark seeds the outcome store so auto retrieves the default order):
  # the advisor's featurize + k-NN retrieval must stay within 5% of p50
  # request latency.
  run_gated 'BenchmarkAdvisorOrder/(default|auto)$'
  awk '
    /AdvisorOrder\/default/ { if (!dc || $3 < def)  def  = $3; dc++ }
    /AdvisorOrder\/auto/    { if (!ac || $3 < auto) auto = $3; ac++ }
    END {
      if (dc == 0 || ac == 0) { print "advisor: missing benchmark output"; exit 1 }
      ratio = auto / def
      printf "advisor: default=%.0f ns/op auto=%.0f ns/op ratio=%.3f (best of %d)\n", def, auto, ratio, dc
      if (ratio > 1.05) { print "FAIL: order=auto overhead exceeds 5%"; exit 1 }
      print "OK: order=auto overhead within 5%"
    }' "$OUT"
  exit 0
fi

go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . | tee "$OUT"

if [ -n "$BASELINE" ]; then
  if command -v benchstat >/dev/null 2>&1; then
    benchstat "$BASELINE" "$OUT"
  else
    echo "benchstat not installed; compare $BASELINE vs $OUT manually" >&2
  fi
fi
