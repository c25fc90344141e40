#!/usr/bin/env bash
# Run every bench binary and emit a consolidated BENCH_results.json
# with wall-clock seconds per bench, so successive PRs have a perf
# trajectory to compare against.
#
# Usage:
#   bench/run_all.sh [--quick] [BUILD_DIR] [OUT_JSON]
#
#   --quick    smoke mode: force TPL_BENCH_ELEMENTS=512 so every bench
#              runs in seconds (trajectory points are NOT comparable
#              with full runs; the header records the element count).
#   BUILD_DIR  cmake build tree (default: build). Bench binaries are
#              expected under BUILD_DIR/bench/ (that is where the bench
#              CMakeLists points RUNTIME_OUTPUT_DIRECTORY).
#   OUT_JSON   output path (default: BENCH_results.json in the cwd).
#
# Environment:
#   TPL_BENCH_ELEMENTS  forwarded to the benches (smaller = faster).
#   TPL_SIM_THREADS     simulation parallelism (1 = serial reference).
#   TPL_BENCH_FILTER    only run binaries whose name matches this
#                       (grep -E) pattern.
#   TPL_BENCH_METRICS=1 arm the obs metrics registry per bench
#                       (TPL_OBS_METRICS) and embed each bench's
#                       registry dump as its "metrics" object.
#
# Each result entry records the bench name, wall seconds and exit
# status; failed benches additionally carry the tail of their stderr
# so a red trajectory point is diagnosable from the JSON alone. The
# header records the git SHA and simulation thread count the numbers
# were taken at.
#
# Schema 2 additionally embeds a "serve_sweep" object: the pimserve
# L-LUT sin sweep replayed through both the double-buffered and the
# synchronous schedule, with modeled seconds, speedup and overlap.
#
# Schema 3 adds host-throughput accounting: every result entry carries
# "elements_per_sec" (per-configuration-point elements divided by wall
# seconds — a trajectory metric, comparable only between runs with the
# same settings), and a "sim_throughput" object replays the Figure-5
# sweep with the batch execution path on and off and records both
# rates plus the batch-over-scalar speedup (see schema 9).
#
# Schema 4: the embedded "serve_sweep" object (pimserve --json,
# embedded verbatim) now carries per-request modeled latency — a
# "latency" object with exact nearest-rank p50/p90/p99/p999, mean and
# max seconds plus an "incomplete" count — "requests_per_second", and
# "anomalous_waves" (straggler-flagged waves). The full output schema
# is documented in docs/bench.md.
#
# Schema 5 adds a "fleet_sweep" object: the pimserve synthetic demo
# trace replayed over a 20x2x64 fleet topology (40 ranks, 2560 DPUs)
# and over a single 1x1x64 rank, each embedded verbatim (pimserve
# --json with topology + rank_stats), plus the fleet-over-single-rank
# "requests_per_second_ratio". In --quick mode the request count
# shrinks with TPL_BENCH_ELEMENTS; the full run replays 1M requests.
# The run FAILS when the ratio is below 4 (full) or at most 1
# (--quick).
#
# Schema 6 adds a "tuner_sweep" object: the pimtune mixed-tenant demo
# trace replayed three ways (as requested / best static config /
# online per-tenant auto-tuner; pimtune --json embedded verbatim as
# "replay") next to the offline tuner's recommendation table
# (ablation_tuner --json, embedded as "ablation") so CI can diff
# online picks against static ones. The run FAILS unless the online
# replay beats the best static configuration
# (cycles_ratio_vs_static < 1) while meeting every tenant SLA
# (sla_met) — the headline claim of the online tuner.
#
# Schema 7: pimserve replays a trace once, so "serve_sweep" no longer
# carries "sync_run_modeled_seconds" (the makespan of a second,
# synchronous replay). Its "speedup" is now sync_seconds /
# modeled_seconds of the one run, and it appears on every pimserve
# JSON, fleet_sweep's included.
#
# Schema 8: "fleet_sweep" records host memory — "peak_rss_mb", the
# 20x2x64 replay's peak resident set, and "bytes_per_request", the
# peak-RSS slope from a replay of one fifth of the requests to the
# full one (scripts/request_memory.py).
#
# Schema 9: the streaming kernels always take the batch path, so
# "sim_throughput" replays the Figure-5 sweep once and records its
# rate as "seconds" and "elements_per_sec"; the scalar replay and the
# batch-over-scalar speedup are gone.
set -u

quick=0
if [ "${1:-}" = "--quick" ]; then
    shift
    quick=1
    export TPL_BENCH_ELEMENTS=512
fi

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_results.json}"
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
    echo "error: $BENCH_DIR not found (build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
    exit 1
fi

now_ns() {
    # date +%s%N is GNU; fall back to second resolution elsewhere.
    local n
    n=$(date +%s%N)
    case "$n" in
        *N) echo "$(date +%s)000000000" ;;
        *) echo "$n" ;;
    esac
}

# JSON-escape stdin into one string body: backslashes, quotes, tabs,
# newlines; other control characters are dropped.
json_escape() {
    sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' |
        tr -d '\000-\010\013-\037' | awk 'NR > 1 { printf "\\n" } { printf "%s", $0 }'
}

GIT_SHA=$(git -C "$(dirname "$0")/.." rev-parse HEAD 2>/dev/null || echo unknown)
ERR_TMP=$(mktemp)
METRICS_TMP=$(mktemp)
SERVE_TMP=$(mktemp)
TRACE_TMP=$(mktemp)
CSV_TMP=$(mktemp)
trap 'rm -f "$ERR_TMP" "$METRICS_TMP" "$SERVE_TMP" "$TRACE_TMP" "$CSV_TMP"' EXIT

entries=""
failures=0
for bin in "$BENCH_DIR"/*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name=$(basename "$bin")
    if [ -n "${TPL_BENCH_FILTER:-}" ] &&
        ! echo "$name" | grep -Eq "${TPL_BENCH_FILTER}"; then
        continue
    fi
    echo "== $name" >&2
    : > "$ERR_TMP"
    : > "$METRICS_TMP"
    start=$(now_ns)
    if [ "${TPL_BENCH_METRICS:-0}" = "1" ]; then
        TPL_OBS_METRICS="$METRICS_TMP" "$bin" > /dev/null 2> "$ERR_TMP"
        status=$?
    else
        "$bin" > /dev/null 2> "$ERR_TMP"
        status=$?
    fi
    end=$(now_ns)
    if [ "$status" -ne 0 ]; then
        failures=$((failures + 1))
        echo "   FAILED (exit $status)" >&2
        tail -5 "$ERR_TMP" >&2
    fi
    secs=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", (b - a) / 1e9 }')
    echo "   ${secs}s" >&2

    # Per-point elements over wall seconds (0 when the bench failed or
    # finished under clock resolution).
    eps=$(awk -v e="${TPL_BENCH_ELEMENTS:-4096}" -v s="$secs" -v x="$status" \
        'BEGIN { printf "%.1f", (s > 0 && x == 0) ? e / s : 0 }')

    entry="{\"bench\": \"$name\", \"seconds\": $secs, \"exit\": $status"
    entry="$entry, \"elements_per_sec\": $eps"
    if [ "$status" -ne 0 ]; then
        stderr_tail=$(tail -5 "$ERR_TMP" | json_escape)
        entry="$entry, \"stderr_tail\": \"$stderr_tail\""
    fi
    # Embed the bench's own metrics dump (valid JSON by construction).
    if [ -s "$METRICS_TMP" ]; then
        entry="$entry, \"metrics\": $(cat "$METRICS_TMP")"
    fi
    entry="$entry}"
    [ -n "$entries" ] && entries="$entries,"
    entries="$entries
    $entry"
done

# Serve sweep: replay an L-LUT sin request burst (>= 4 waves over 64
# DPUs) through pimserve once; its --json output carries the
# no-overlap baseline (sync_seconds) and the pipelined speedup over
# it. In --quick mode the burst shrinks with TPL_BENCH_ELEMENTS.
serve_sweep=""
PIMSERVE="$BUILD_DIR/tools/pimserve"
if [ -x "$PIMSERVE" ]; then
    req_elems=${TPL_BENCH_ELEMENTS:-32768}
    {
        for _ in 1 2 3 4 5; do
            echo "request function=sin method=llut elements=$req_elems"
        done
    } > "$TRACE_TMP"
    echo "== pimserve serve sweep (5 x $req_elems)" >&2
    if "$PIMSERVE" --trace "$TRACE_TMP" --dpus 64 \
        --json "$SERVE_TMP" > /dev/null 2> "$ERR_TMP"; then
        serve_sweep=$(cat "$SERVE_TMP")
        awk -F'"' '/"speedup"/ { printf "   speedup %s\n", $0 }' \
            "$SERVE_TMP" >&2 || true
    else
        failures=$((failures + 1))
        echo "   FAILED" >&2
        tail -5 "$ERR_TMP" >&2
    fi
else
    echo "== pimserve not built; serve_sweep omitted" >&2
fi

# Schema-5 fleet sweep: the synthetic demo trace replayed over the
# full 20x2x64 fleet and over a single 1x1x64 rank. Both runs use the
# same in-memory trace (same seed, same request mix), so the
# requests/s ratio is the modeled scale-out of the cluster scheduler.
# The full run replays 1M requests; --quick scales the count down
# with TPL_BENCH_ELEMENTS (512 -> 16k requests).
fleet_sweep=""
if [ -x "$PIMSERVE" ]; then
    fleet_reqs=$(( ${TPL_BENCH_ELEMENTS:-32768} * 32 ))
    [ "$fleet_reqs" -gt 1000000 ] && fleet_reqs=1000000
    echo "== pimserve fleet sweep (20x2x64 vs 1x1x64, $fleet_reqs requests)" >&2
    FLEET_JSON_TMP=$(mktemp)
    RANK_JSON_TMP=$(mktemp)
    fleet_ok=1
    # The fleet replay runs under the memory probe, which replays a
    # fifth of the trace first and reports the peak-RSS slope.
    fleet_mem=$(python3 "$(dirname "$0")/../scripts/request_memory.py" \
        "$PIMSERVE" 20x2x64 $((fleet_reqs / 5)) "$fleet_reqs" \
        --json "$FLEET_JSON_TMP" 2> "$ERR_TMP")
    if [ $? -ne 0 ]; then
        fleet_ok=0
        failures=$((failures + 1))
        echo "   20x2x64 FAILED" >&2
        tail -5 "$ERR_TMP" >&2
    fi
    if ! "$PIMSERVE" --demo-trace --topology 1x1x64 \
        --demo-requests "$fleet_reqs" \
        --json "$RANK_JSON_TMP" > /dev/null 2> "$ERR_TMP"; then
        fleet_ok=0
        failures=$((failures + 1))
        echo "   1x1x64 FAILED" >&2
        tail -5 "$ERR_TMP" >&2
    fi
    if [ "$fleet_ok" = 1 ]; then
        ratio=$(awk 'function rps(f) {
            while ((getline line < f) > 0)
                if (line ~ /"requests_per_second"/) {
                    sub(/.*:/, "", line)
                    gsub(/[^0-9.eE+-]/, "", line)
                    close(f); return line + 0
                }
            close(f); return 0
        }
        BEGIN {
            a = rps(ARGV[1]); b = rps(ARGV[2])
            printf "%.4f", (b > 0) ? a / b : 0
        }' "$FLEET_JSON_TMP" "$RANK_JSON_TMP")
        mem_fields=$(echo "$fleet_mem" | python3 -c 'import json, sys
m = json.load(sys.stdin)
print("\"peak_rss_mb\": %s, \"bytes_per_request\": %s"
      % (m["peak_rss_mb"][1], m["bytes_per_request"]))')
        fleet_sweep="{\"requests\": $fleet_reqs, \"fleet\": $(cat "$FLEET_JSON_TMP"), \"single_rank\": $(cat "$RANK_JSON_TMP"), \"requests_per_second_ratio\": $ratio, $mem_fields}"
        echo "   fleet over single rank: ${ratio}x requests/s" >&2
        echo "   fleet memory: $mem_fields" >&2
        # The scale-out is asserted, not just recorded: the full 1M
        # replay must reach >= 4x; the --quick trace (16k requests)
        # is too short to fill the fleet, so it only has to beat one
        # rank.
        if ! awk -v r="$ratio" -v q="$quick" \
            'BEGIN { exit !(q ? r > 1 : r >= 4) }'; then
            failures=$((failures + 1))
            echo "   FAILED: fleet over single rank must be >= 4x (> 1x with --quick)" >&2
        fi
    fi
    rm -f "$FLEET_JSON_TMP" "$RANK_JSON_TMP"
else
    echo "== pimserve not built; fleet_sweep omitted" >&2
fi

# Schema-6 tuner sweep: the pimtune mixed-tenant demo trace, three
# replays in one invocation (as-requested / static-best / online),
# with small waves (--per-dpu-elements 8) so the tuner sees enough
# waves to explore and commit. The ablation_tuner recommendation
# table rides along so online and static picks can be diffed. The
# win is asserted, not just recorded: ratio >= 1 or a missed tenant
# SLA counts as a bench failure.
tuner_sweep=""
PIMTUNE="$BUILD_DIR/tools/pimtune"
ABLATION="$BENCH_DIR/ablation_tuner"
if [ -x "$PIMTUNE" ]; then
    tuner_reqs=$(( ${TPL_BENCH_ELEMENTS:-32768} * 4 ))
    [ "$tuner_reqs" -gt 6000 ] && tuner_reqs=6000
    [ "$tuner_reqs" -lt 2000 ] && tuner_reqs=2000
    echo "== pimtune online-vs-static tuner sweep ($tuner_reqs requests)" >&2
    TUNE_JSON_TMP=$(mktemp)
    ABL_JSON_TMP=$(mktemp)
    tuner_ok=1
    if ! "$PIMTUNE" --demo "$tuner_reqs" --per-dpu-elements 8 \
        --explore 512 --json "$TUNE_JSON_TMP" \
        > /dev/null 2> "$ERR_TMP"; then
        tuner_ok=0
        failures=$((failures + 1))
        echo "   pimtune FAILED" >&2
        tail -5 "$ERR_TMP" >&2
    fi
    ablation_json=""
    if [ -x "$ABLATION" ] &&
        "$ABLATION" --json "$ABL_JSON_TMP" > /dev/null 2> "$ERR_TMP"; then
        ablation_json=$(cat "$ABL_JSON_TMP")
    fi
    if [ "$tuner_ok" = 1 ]; then
        ratio=$(awk -F': ' '/"cycles_ratio_vs_static"/ {
            gsub(/[^0-9.eE+-]/, "", $2); print $2 + 0; exit
        }' "$TUNE_JSON_TMP")
        sla_met=$(awk -F': ' '/"sla_met"/ {
            gsub(/[^a-z]/, "", $2); print $2; exit
        }' "$TUNE_JSON_TMP")
        echo "   online over static-best: ${ratio}x cycles, SLAs met: $sla_met" >&2
        if ! awk -v r="$ratio" 'BEGIN { exit !(r > 0 && r < 1) }' ||
            [ "$sla_met" != "true" ]; then
            failures=$((failures + 1))
            echo "   FAILED: online must beat static-best with SLAs met" >&2
        fi
        tuner_sweep="{\"requests\": $tuner_reqs, \"replay\": $(cat "$TUNE_JSON_TMP")"
        if [ -n "$ablation_json" ]; then
            tuner_sweep="$tuner_sweep, \"ablation\": $ablation_json"
        fi
        tuner_sweep="$tuner_sweep}"
    fi
    rm -f "$TUNE_JSON_TMP" "$ABL_JSON_TMP"
else
    echo "== pimtune not built; tuner_sweep omitted" >&2
fi

# Simulator-throughput probe: the Figure-5 sweep replayed once through
# the batch execution path. CSV mode is used so the row count gives the
# number of feasible sweep points, which with the per-point element
# count yields a true simulated-elements-per-second rate.
sim_throughput=""
FIG5="$BENCH_DIR/fig5_cycles"
if [ -x "$FIG5" ]; then
    # Default to a larger per-point element count than the trajectory
    # benches: the probe isolates *simulation* throughput, and at small
    # sizes per-point fixed costs (table generation, setup) dominate
    # the wall clock instead. An explicit TPL_BENCH_ELEMENTS (including
    # --quick's 512) still wins.
    st_elems=${TPL_BENCH_ELEMENTS:-65536}
    echo "== fig5_cycles simulator throughput" >&2
    : > "$CSV_TMP"
    start=$(now_ns)
    TPL_BENCH_ELEMENTS=$st_elems TPL_BENCH_CSV=1 \
        "$FIG5" > "$CSV_TMP" 2> "$ERR_TMP"
    status=$?
    end=$(now_ns)
    if [ "$status" -ne 0 ]; then
        failures=$((failures + 1))
        echo "   run FAILED (exit $status)" >&2
        tail -5 "$ERR_TMP" >&2
    else
        secs=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", (b - a) / 1e9 }')
        points=$(($(wc -l < "$CSV_TMP") - 1))
        [ "$points" -ge 0 ] || points=0
        echo "   ${secs}s ($points points x $st_elems elements)" >&2
        sim_throughput=$(awk -v p="$points" -v e="$st_elems" \
            -v s="$secs" 'BEGIN {
            eps = (s > 0) ? p * e / s : 0
            printf "{\"bench\": \"fig5_cycles\", \"sweep_points\": %d, ", p
            printf "\"elements_per_point\": %d, ", e
            printf "\"seconds\": %.3f, \"elements_per_sec\": %.1f}", s, eps
        }')
    fi
else
    echo "== fig5_cycles not built; sim_throughput omitted" >&2
fi

{
    echo "{"
    echo "  \"schema\": 9,"
    echo "  \"git_sha\": \"$GIT_SHA\","
    echo "  \"sim_threads\": \"${TPL_SIM_THREADS:-default}\","
    echo "  \"bench_elements\": \"${TPL_BENCH_ELEMENTS:-default}\","
    if [ -n "$serve_sweep" ]; then
        echo "  \"serve_sweep\": $serve_sweep,"
    fi
    if [ -n "$fleet_sweep" ]; then
        echo "  \"fleet_sweep\": $fleet_sweep,"
    fi
    if [ -n "$tuner_sweep" ]; then
        echo "  \"tuner_sweep\": $tuner_sweep,"
    fi
    if [ -n "$sim_throughput" ]; then
        echo "  \"sim_throughput\": $sim_throughput,"
    fi
    echo "  \"results\": [$entries"
    echo "  ]"
    echo "}"
} > "$OUT_JSON"

echo "wrote $OUT_JSON" >&2
# Exit 1 on any failure rather than the raw count: exit codes wrap
# mod 256, so e.g. 256 failing benches would read as success.
[ "$failures" -eq 0 ] || exit 1
exit 0
