#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
# With TPL_TIER1_TSAN=1, additionally build a ThreadSanitizer tree and
# run the parallel-engine tests (thread pool + launchAll determinism,
# the serve path's one shared evaluator and the one host copy of each
# table that every sim thread reads through its core's mapping, and
# the serve/fleet suites, whose drive loop overlaps host work with
# kernels the pool builds and runs, the submit contract, the label
# pool every thread may intern into, and the tuner's candidate search
# on the pool) under TSan — the cheap way to catch data races the
# determinism test alone cannot see.
#
# Usage: scripts/tier1.sh [BUILD_DIR]
set -eu

BUILD_DIR="${1:-build}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

# Shared cleanup for every leg's temp dir: legs must NOT install their
# own `trap ... EXIT` (a second trap would silently replace the first).
TRACE_TMP=""
FAULT_TMP=""
DOCS_TMP=""
CHECK_TMP=""
OBS_TMP=""
FLEET_TMP=""
cleanup() {
    [ -n "$TRACE_TMP" ] && rm -rf "$TRACE_TMP"
    [ -n "$FAULT_TMP" ] && rm -rf "$FAULT_TMP"
    [ -n "$DOCS_TMP" ] && rm -rf "$DOCS_TMP"
    [ -n "$CHECK_TMP" ] && rm -rf "$CHECK_TMP"
    [ -n "$OBS_TMP" ] && rm -rf "$OBS_TMP"
    [ -n "$FLEET_TMP" ] && rm -rf "$FLEET_TMP"
    return 0
}
trap cleanup EXIT

cmake -B "$BUILD_DIR" -S "$SRC_DIR"
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

if [ "${TPL_TIER1_TSAN:-0}" = "1" ]; then
    TSAN_DIR="${BUILD_DIR}-tsan"
    cmake -B "$TSAN_DIR" -S "$SRC_DIR" -DTPL_SANITIZE=thread
    cmake --build "$TSAN_DIR" -j --target concurrency_test \
        shared_table_test serve_test fleet_test common_test tuner_test
    TSAN_TESTS='ThreadPool|Determinism|Concurrency|SharedTable'
    TSAN_TESTS="$TSAN_TESTS|BatchQueue|Serve|Topology|RankTransfer|Fleet"
    TSAN_TESTS="$TSAN_TESTS|LabelPool|SharedRegion|LaunchContract|Tuner"
    ctest --test-dir "$TSAN_DIR" --output-on-failure -R "$TSAN_TESTS"
fi

# With TPL_TIER1_SIMD=1, build the softfloat tier with the SIMD lane
# path disabled (TPL_SOFTFLOAT_SIMD=0, the scalar fallback) and enabled
# (=1, the vectorized hot paths) and run the softfloat, batch-identity
# and determinism suites under both trees: locks the two lane
# implementations to the same bits and the same charges.
if [ "${TPL_TIER1_SIMD:-0}" = "1" ]; then
    for simd in 0 1; do
        SIMD_DIR="${BUILD_DIR}-simd$simd"
        cmake -B "$SIMD_DIR" -S "$SRC_DIR" -DTPL_SOFTFLOAT_SIMD=$simd
        cmake --build "$SIMD_DIR" -j --target \
            softfloat_test softfloat16_test softfloat64_test \
            softfloat_hardening_test batch_test concurrency_test
        # NB: -R must not follow a bare -j (ctest would parse -R as
        # the optional job-count argument and run the whole suite).
        ctest --test-dir "$SIMD_DIR" --output-on-failure \
            -R 'Softfloat|Batch|Determinism' -j
    done
fi

# With TPL_TIER1_ASAN=1, build the whole tree under AddressSanitizer +
# UndefinedBehaviorSanitizer and run the complete suite. Catches heap
# misuse and UB (shifts, overflow, misaligned access) that the plain
# build silently tolerates — among them a shared table read after its
# catalog and pipeline are gone (SharedTable.TablesOutlive*), the
# engine fast-value lanes (BatchFastLane.*) and the hostile table specs
# that once overflowed a table image, aborted pimserve or shifted an
# int32 by 32 (BatchHostileSpec.*), each slice named again below so the
# leg fails loudly if it ever goes missing.
if [ "${TPL_TIER1_ASAN:-0}" = "1" ]; then
    ASAN_DIR="${BUILD_DIR}-asan"
    cmake -B "$ASAN_DIR" -S "$SRC_DIR" \
        -DTPL_SANITIZE=address,undefined
    cmake --build "$ASAN_DIR" -j
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j
    for tests in 'SharedTable.TablesOutliveCatalogCacheAndPipeline' \
        'BatchFastLane\.' \
        'BatchHostileSpec.TableBeyondAddressSpaceDrops' \
        'BatchHostileSpec.EmptyTableSpecDrops' \
        'BatchHostileSpec.WideFixedCordicScheduleServes'; do
        ctest --test-dir "$ASAN_DIR" --output-on-failure \
            --no-tests=error -R "$tests"
    done
fi

# With TPL_TIER1_TRACE=1, exercise the observability layer end to end:
# pimtrace on one LUT-based and one CORDIC-based kernel, JSON round-
# trip validation of the exported trace + metrics, and the determinism
# test re-run with the obs layer armed process-wide (TPL_OBS_METRICS /
# TPL_OBS_TRACE) to prove instrumentation never perturbs modeled stats.
if [ "${TPL_TIER1_TRACE:-0}" = "1" ]; then
    TRACE_TMP=$(mktemp -d)
    for method in llut cordic; do
        "$BUILD_DIR/tools/pimtrace" --function sin --method "$method" \
            --elements 8192 \
            --trace "$TRACE_TMP/$method.trace.json" \
            --metrics "$TRACE_TMP/$method.metrics.json" > /dev/null
        python3 -m json.tool "$TRACE_TMP/$method.trace.json" > /dev/null
        python3 -m json.tool "$TRACE_TMP/$method.metrics.json" > /dev/null
        echo "pimtrace sin/$method: trace + metrics JSON round-trip OK"
    done
    ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'Determinism'
    TPL_OBS_METRICS="$TRACE_TMP/determinism.metrics.json" \
    TPL_OBS_TRACE="$TRACE_TMP/determinism.trace.json" \
        ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R 'Determinism'
    python3 -m json.tool "$TRACE_TMP/determinism.metrics.json" > /dev/null
    python3 -m json.tool "$TRACE_TMP/determinism.trace.json" > /dev/null
    echo "obs-enabled determinism re-run + env-bootstrap dumps OK"
    # Hostile table specs: a table beyond the 32-bit address space and
    # an L-LUT of zero entries cannot bind, so pimserve reports the
    # request infeasible and exits 1 (not an abort); a 40-iteration
    # fixed CORDIC is valid and serves completely (exit 0).
    for spec in 'method=llut log2-entries=31:1' \
        'method=llut log2-entries=0:1' \
        'method=cordic-fixed iterations=40:0'; do
        want=${spec##*:}
        printf 'request function=sin elements=64 %s\n' "${spec%:*}" \
            > "$TRACE_TMP/hostile.trace"
        status=0
        "$BUILD_DIR/tools/pimserve" --trace "$TRACE_TMP/hostile.trace" \
            --dpus 4 --json "$TRACE_TMP/hostile.json" > /dev/null \
            || status=$?
        if [ "$status" -ne "$want" ]; then
            echo "pimserve '${spec%:*}': exit $status, want $want" >&2
            exit 1
        fi
        python3 - "$TRACE_TMP/hostile.json" "$want" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
dropped = sys.argv[2] == "1"
assert doc["infeasible_elements"] == (64 if dropped else 0), doc
assert doc["complete"] is not dropped, doc
PYEOF
    done
    echo "pimserve drops unbindable table specs and serves the rest OK"
fi

# With TPL_TIER1_FAULT=1, exercise the fault-injection tier end to
# end: the fault + conformance ctest slices, a pimfault --demo plan
# replayed through parse → canonical echo → degraded pipeline run, a
# JSON round-trip of its metrics dump, a degraded-launch trace
# captured via the TPL_OBS_TRACE env bootstrap, the replay's stdout
# byte-identical at TPL_SIM_THREADS=1/4/16, and pimfault's exit
# statuses: 2 for out-of-range --tasklets / --dpus 0, 1 (infeasible,
# not an abort) for a per-DPU slice too large for MRAM.
if [ "${TPL_TIER1_FAULT:-0}" = "1" ]; then
    FAULT_TMP=$(mktemp -d)
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R 'Fault|Fig5Conformance|SoftfloatDifferential'
    "$BUILD_DIR/tools/pimfault" --help > /dev/null
    "$BUILD_DIR/tools/pimfault" --demo > "$FAULT_TMP/demo.plan"
    "$BUILD_DIR/tools/pimfault" --plan "$FAULT_TMP/demo.plan" \
        --print > "$FAULT_TMP/demo.canonical"
    grep -q '^seed 7$' "$FAULT_TMP/demo.canonical"
    TPL_OBS_TRACE="$FAULT_TMP/fault.trace.json" \
        "$BUILD_DIR/tools/pimfault" --plan "$FAULT_TMP/demo.plan" \
        --dpus 16 --metrics "$FAULT_TMP/fault.metrics.json"
    python3 -m json.tool "$FAULT_TMP/fault.metrics.json" > /dev/null
    python3 -m json.tool "$FAULT_TMP/fault.trace.json" > /dev/null
    grep -q 'fault/' "$FAULT_TMP/fault.metrics.json"
    echo "pimfault demo replay + degraded-launch trace round-trip OK"
    for threads in 1 4 16; do
        TPL_SIM_THREADS=$threads "$BUILD_DIR/tools/pimfault" \
            --plan "$FAULT_TMP/demo.plan" > "$FAULT_TMP/replay.t$threads"
    done
    cmp "$FAULT_TMP/replay.t1" "$FAULT_TMP/replay.t4"
    cmp "$FAULT_TMP/replay.t1" "$FAULT_TMP/replay.t16"
    grep -q 'complete  *yes$' "$FAULT_TMP/replay.t1"
    echo "pimfault demo replay byte-identical at 1/4/16 sim threads"
    expect_exit() { # WANT ARGS...: run pimfault, require exit WANT
        want=$1
        shift
        status=0
        "$BUILD_DIR/tools/pimfault" "$@" > /dev/null 2>&1 || status=$?
        if [ "$status" -ne "$want" ]; then
            echo "pimfault $*: exit $status, want $want" >&2
            exit 1
        fi
    }
    expect_exit 2 --plan "$FAULT_TMP/demo.plan" --tasklets 0
    expect_exit 2 --plan "$FAULT_TMP/demo.plan" --tasklets 25
    expect_exit 2 --plan "$FAULT_TMP/demo.plan" --dpus 0
    expect_exit 1 --plan "$FAULT_TMP/demo.plan" --dpus 1 \
        --elements 20000000
    echo "pimfault exit statuses (usage 2, oversized slice 1) OK"
fi

# With TPL_TIER1_DOCS=1, run the documentation checks: every
# intra-repo markdown link (and anchor) resolves, every public symbol
# in src/pimsim/serve/ and src/transpim/ headers is covered by
# docs/API.md, and every tool is listed in README.md. Additionally
# smoke the pimserve CLI (demo trace → replay → JSON round-trip) and
# the tuner CLIs (pimtune's three-way replay must show the online
# tuner beating the best static configuration with every SLA met;
# pimserve --auto-tune must emit its tuner section) so the documented
# examples keep working, and check that both replay tools reject a
# malformed trace and a malformed --tenant-sla with one message.
if [ "${TPL_TIER1_DOCS:-0}" = "1" ]; then
    bash "$SRC_DIR/scripts/check_docs.sh"
    DOCS_TMP=$(mktemp -d)
    "$BUILD_DIR/tools/pimserve" --demo-trace > "$DOCS_TMP/demo.trace"
    "$BUILD_DIR/tools/pimserve" --trace "$DOCS_TMP/demo.trace" \
        --dpus 16 --json "$DOCS_TMP/serve.json" \
        --metrics "$DOCS_TMP/serve.metrics.json" > /dev/null
    python3 -m json.tool "$DOCS_TMP/serve.json" > /dev/null
    python3 -m json.tool "$DOCS_TMP/serve.metrics.json" > /dev/null
    grep -q 'serve/' "$DOCS_TMP/serve.metrics.json"
    "$BUILD_DIR/tools/pimtune" --demo 2000 --per-dpu-elements 8 \
        --explore 512 --json "$DOCS_TMP/tune.json" > /dev/null
    python3 - "$DOCS_TMP/tune.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["sla_met"] is True, doc
assert 0 < doc["cycles_ratio_vs_static"] < 1, \
    doc["cycles_ratio_vs_static"]
for replay in ("as_requested", "static_best", "online"):
    assert doc[replay]["complete"], (replay, doc[replay])
print("pimtune: online beats static-best with SLAs met OK")
PYEOF
    "$BUILD_DIR/tools/pimserve" --demo-trace --demo-requests 2000 \
        --per-dpu-elements 8 --explore 512 \
        --tenant-sla '*:rmse<1e-3' \
        --json "$DOCS_TMP/serve.tune.json" > /dev/null
    python3 -m json.tool "$DOCS_TMP/serve.tune.json" > /dev/null
    grep -q '"tuner"' "$DOCS_TMP/serve.tune.json"
    # One trace grammar (transpim/trace.h): a malformed trace fails
    # both replay tools with exit 2 and the same error text after
    # the tool-name prefix.
    printf 'request function=sin elements=8 tenant=-1\n' \
        > "$DOCS_TMP/bad.trace"
    for tool in pimserve pimtune; do
        status=0
        "$BUILD_DIR/tools/$tool" --trace "$DOCS_TMP/bad.trace" \
            > /dev/null 2> "$DOCS_TMP/$tool.err" || status=$?
        if [ "$status" -ne 2 ]; then
            echo "$tool: exit $status on a malformed trace, want 2" >&2
            exit 1
        fi
        sed "s/^$tool: //" "$DOCS_TMP/$tool.err" > "$DOCS_TMP/$tool.msg"
    done
    cmp "$DOCS_TMP/pimserve.msg" "$DOCS_TMP/pimtune.msg"
    grep -qxF "$DOCS_TMP/bad.trace:1: bad tenant '-1'" \
        "$DOCS_TMP/pimserve.msg"
    # One --tenant-sla grammar (parseTenantSlaArg): a malformed value
    # fails both tools with exit 2 and the same message.
    for tool in pimserve pimtune; do
        status=0
        "$BUILD_DIR/tools/$tool" --tenant-sla '-1:rmse<1' \
            > /dev/null 2> "$DOCS_TMP/$tool.sla.err" || status=$?
        if [ "$status" -ne 2 ]; then
            echo "$tool: exit $status on a malformed --tenant-sla," \
                "want 2" >&2
            exit 1
        fi
        sed "s/^$tool: //" "$DOCS_TMP/$tool.sla.err" \
            > "$DOCS_TMP/$tool.sla.msg"
    done
    cmp "$DOCS_TMP/pimserve.sla.msg" "$DOCS_TMP/pimtune.sla.msg"
    grep -qxF "bad tenant id '-1'" "$DOCS_TMP/pimserve.sla.msg"
    echo "check_docs + pimserve/pimtune demo replay JSON round-trip OK"
    echo "pimserve/pimtune reject a malformed trace with one message"
    echo "pimserve/pimtune reject a malformed --tenant-sla with one message"
fi

# With TPL_TIER1_OBS=1, exercise the serve observability tier end to
# end: the demo trace replayed with a journal + SLO + metrics + trace
# attached, Python validation of all three artifacts (journal JSONL
# line-by-line, latency percentiles + requests/s in the JSON summary,
# metrics/trace well-formed, registry serve/waves and serve/requests
# equal to the summary's), and journal byte-identity across
# TPL_SIM_THREADS=1/4/16 — the bit-replayability contract of
# docs/observability.md checked on the real CLI, not just in-process.
if [ "${TPL_TIER1_OBS:-0}" = "1" ]; then
    OBS_TMP=$(mktemp -d)
    "$BUILD_DIR/tools/pimserve" --demo-trace > "$OBS_TMP/demo.trace"
    TPL_OBS_TRACE="$OBS_TMP/serve.trace.json" \
        "$BUILD_DIR/tools/pimserve" --trace "$OBS_TMP/demo.trace" \
        --dpus 16 --slo p99:50ms \
        --journal "$OBS_TMP/serve.journal.jsonl" \
        --json "$OBS_TMP/serve.json" \
        --metrics "$OBS_TMP/serve.metrics.json" > /dev/null
    python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
# Journal: every line is one JSON object with the documented keys.
kinds = set()
with open(tmp + "/serve.journal.jsonl") as f:
    for line in f:
        ev = json.loads(line)
        kinds.add(ev["kind"])
        if ev["kind"] == "latency":
            assert ev["complete"], ev
            parts = (ev["queue_wait_s"] + ev["transfer_s"] +
                     ev["compute_s"] + ev["stall_s"])
            assert abs(parts - ev["latency_s"]) <= 1e-9, ev
for k in ("enqueue", "coalesce", "scatter", "compute", "gather",
          "done", "latency"):
    assert k in kinds, (k, kinds)
# Summary JSON: percentiles + sustained request rate + SLO verdict.
doc = json.load(open(tmp + "/serve.json"))
lat = doc["latency"]
assert lat["requests"] > 0 and lat["incomplete"] == 0, lat
assert 0 < lat["p50"] <= lat["p99"] <= lat["max"], lat
assert doc["requests_per_second"] > 0, doc
assert doc["slo"]["met"] is True, doc["slo"]
# Metrics + trace artifacts parse and carry serve content.
metrics = json.load(open(tmp + "/serve.metrics.json"))
assert any(n.startswith("serve/") for n in metrics["counters"]), \
    sorted(metrics["counters"])
# The registry describes exactly the run the summary reports.
for key in ("waves", "requests"):
    assert metrics["counters"]["serve/" + key] == doc[key], \
        (key, metrics["counters"]["serve/" + key], doc[key])
json.load(open(tmp + "/serve.trace.json"))
print("journal + summary + metrics + trace artifacts OK")
PYEOF
    for threads in 1 4 16; do
        TPL_SIM_THREADS=$threads \
            "$BUILD_DIR/tools/pimserve" \
            --trace "$OBS_TMP/demo.trace" --dpus 16 \
            --journal "$OBS_TMP/journal.t$threads.jsonl" > /dev/null
    done
    cmp "$OBS_TMP/journal.t1.jsonl" "$OBS_TMP/journal.t4.jsonl"
    cmp "$OBS_TMP/journal.t1.jsonl" "$OBS_TMP/journal.t16.jsonl"
    echo "pimserve journal byte-identical at 1/4/16 sim threads"
fi

# With TPL_TIER1_CHECK=1, gate the shipped mini-ISA kernels on the
# static analyses: pimkernels instantiates them, every kernel must
# lint clean with a finite cycle bound (--werror --cost), the
# multi-tasklet kernels must come back race-free from the exhaustive
# interleaving explorer, and the emitted certificate JSON must
# round-trip through a JSON parser. The plain llut kernel is
# single-owner by design — it is cost-checked but NOT in the
# multi-tasklet set (the explorer would rightly flag it).
if [ "${TPL_TIER1_CHECK:-0}" = "1" ]; then
    CHECK_TMP=$(mktemp -d)
    "$BUILD_DIR/tools/pimkernels" --dir "$CHECK_TMP"
    for kernel in $("$BUILD_DIR/tools/pimkernels" --list); do
        "$BUILD_DIR/tools/pimlint" --werror --cost --tasklets 4 \
            "$CHECK_TMP/$kernel.s"
    done
    for kernel in llut_par cordic; do
        "$BUILD_DIR/tools/pimlint" --werror --cost --tasklets 4 \
            --interleave 3 --json "$CHECK_TMP/$kernel.s" \
            > "$CHECK_TMP/$kernel.cert.json"
        python3 - "$CHECK_TMP/$kernel.cert.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["errors"] == 0, doc
cert = doc["files"][0]["certificate"]
assert cert["bound"]["bounded"], cert
assert cert["interleave"]["verdict"] == "race-free", cert
PYEOF
    done
    echo "pimkernels + pimlint cost/interleave certificates OK"
fi

# With TPL_TIER1_FLEET=1, exercise the fleet topology tier on the real
# CLI: the synthetic demo trace replayed over a 20x2x64 fleet (40
# ranks, 2560 DPUs), journal byte-identity across TPL_SIM_THREADS=
# 1/4/16, a Python check that the per-rank journal spans and
# rank_stats rows partition the fleet totals (makespan = max over
# ranks, waves/elements sum exactly), and a per-request memory gate:
# the peak-RSS slope from a 50k- to a 250k-request replay must stay
# at or under 450 bytes per request.
if [ "${TPL_TIER1_FLEET:-0}" = "1" ]; then
    FLEET_TMP=$(mktemp -d)
    for threads in 1 4 16; do
        TPL_SIM_THREADS=$threads \
            "$BUILD_DIR/tools/pimserve" --demo-trace \
            --topology 20x2x64 --demo-requests 20000 \
            --journal "$FLEET_TMP/fleet.t$threads.jsonl" \
            --json "$FLEET_TMP/fleet.t$threads.json" > /dev/null
    done
    cmp "$FLEET_TMP/fleet.t1.jsonl" "$FLEET_TMP/fleet.t4.jsonl"
    cmp "$FLEET_TMP/fleet.t1.jsonl" "$FLEET_TMP/fleet.t16.jsonl"
    python3 - "$FLEET_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
doc = json.load(open(tmp + "/fleet.t1.json"))
assert doc["topology"] == "20x2x64", doc.get("topology")
ranks = doc["rank_stats"]
assert len(ranks) == 40, len(ranks)
# The fleet clock is the slowest rank's clock; waves and elements
# partition exactly across the rank rows.
spans = [r["makespan_seconds"] for r in ranks]
assert abs(max(spans) - doc["modeled_seconds"]) <= \
    1e-12 * doc["modeled_seconds"], (max(spans), doc["modeled_seconds"])
assert sum(r["waves"] for r in ranks) == doc["waves"]
assert sum(r["elements"] for r in ranks) == doc["elements"]
assert doc["latency"]["p50"] > 0 and doc["requests_per_second"] > 0
# Journal: every transfer/compute event carries its executing rank,
# and no rank's events outrun that rank's reported span.
span_by_rank = {}
with open(tmp + "/fleet.t1.jsonl") as f:
    for line in f:
        ev = json.loads(line)
        if ev["kind"] in ("scatter", "compute", "gather",
                          "broadcast"):
            assert 0 <= ev["rank"] < 40, ev
            end = ev["t"] + ev["dur"]
            r = ev["rank"]
            span_by_rank[r] = max(span_by_rank.get(r, 0.0), end)
for r, end in span_by_rank.items():
    assert end <= ranks[r]["makespan_seconds"] + 1e-12, (r, end)
assert abs(max(span_by_rank.values()) - doc["modeled_seconds"]) <= \
    1e-9 * doc["modeled_seconds"]
print("fleet journal spans partition the fleet total OK")
PYEOF
    echo "pimserve fleet replay byte-identical at 1/4/16 sim threads"
    python3 "$SRC_DIR/scripts/request_memory.py" \
        "$BUILD_DIR/tools/pimserve" 20x2x64 50000 250000 \
        --max-bytes-per-request 450
    echo "pimserve fleet replay memory per request within 450 B"
fi
