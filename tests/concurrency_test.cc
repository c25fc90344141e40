/**
 * @file
 * Concurrency properties: FunctionEvaluator::eval is const and
 * stateless after construction, so independent host threads may share
 * one evaluator; separate DpuCore instances are fully independent.
 * (TaskletContext itself is single-threaded by design - the simulator
 * serializes tasklets and reconstructs their interleaving analytically.)
 *
 * Also the home of the parallel-engine guarantees: ThreadPool
 * correctness (full coverage, exception propagation, reentrancy,
 * non-blocking start/wait) and the determinism contract of
 * PimSystem::launchAll — a multi-DPU workload run with 1 simulation
 * thread and with N threads must produce bit-identical LaunchStats
 * per DPU — and the launch contract: submitLaunch's factory runs
 * once per unmasked slice, and each launch leaves fresh statistics.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lane_transfers.h"
#include "pimsim/fault/fault.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"
#include "pimsim/system.h"
#include "pimsim/thread_pool.h"
#include "transpim/evaluator.h"

namespace tpl {
namespace transpim {
namespace {

TEST(Concurrency, SharedEvaluatorAcrossHostThreads)
{
    MethodSpec spec;
    spec.method = Method::LLut;
    spec.placement = Placement::Host;
    spec.log2Entries = 12;
    auto eval = FunctionEvaluator::create(Function::Sin, spec);

    std::atomic<int> mismatches{0};
    auto worker = [&](uint32_t seed) {
        for (int i = 0; i < 5000; ++i) {
            float x = 6.28f * ((seed * 2654435761u + i * 40503u) %
                               10000u) /
                      10000.0f;
            float y = eval.eval(x, nullptr);
            if (std::abs(y - std::sin((double)x)) > 1e-5)
                ++mismatches;
        }
    };
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < 4; ++t)
        pool.emplace_back(worker, t + 1);
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(0, mismatches.load());
}

TEST(Concurrency, IndependentDpusOnSeparateThreads)
{
    MethodSpec spec;
    spec.method = Method::LLut;
    spec.placement = Placement::Wram;
    spec.log2Entries = 10;

    std::atomic<int> failures{0};
    auto worker = [&]() {
        // Each thread owns its evaluator + core end to end.
        auto eval = FunctionEvaluator::create(Function::Tanh, spec);
        sim::DpuCore dpu;
        eval.attach(dpu);
        dpu.launch(4, [&](sim::TaskletContext& ctx) {
            for (int i = 0; i < 200; ++i) {
                float x = -4.0f + 8.0f * i / 200.0f;
                float y = eval.eval(x, &ctx);
                if (std::abs(y - std::tanh((double)x)) > 1e-3)
                    ++failures;
            }
        });
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back(worker);
    for (auto& th : pool)
        th.join();
    EXPECT_EQ(0, failures.load());
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    sim::ThreadPool pool(4);
    constexpr uint64_t n = 10007;
    std::vector<std::atomic<uint32_t>> hits(n);
    pool.parallelFor(n, [&](uint64_t i) { ++hits[i]; });
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(1u, hits[i].load()) << "index " << i;
}

TEST(ThreadPool, PropagatesFirstException)
{
    sim::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(
                     100,
                     [&](uint64_t i) {
                         if (i == 42)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The pool survives a failed job and runs the next one.
    std::atomic<uint64_t> sum{0};
    pool.parallelFor(100, [&](uint64_t i) { sum += i; });
    EXPECT_EQ(4950u, sum.load());
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    sim::ThreadPool pool(4);
    std::atomic<uint64_t> total{0};
    pool.parallelFor(8, [&](uint64_t) {
        // Reentrant call from a participant must not deadlock.
        pool.parallelFor(16, [&](uint64_t) { ++total; });
    });
    EXPECT_EQ(8u * 16u, total.load());
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    sim::ThreadPool pool(1);
    uint64_t sum = 0; // no atomics needed: single-threaded by contract
    pool.parallelFor(1000, [&](uint64_t i) { sum += i; });
    EXPECT_EQ(499500u, sum);
}

TEST(ThreadPool, StartWaitCoversEveryIndexExactlyOnce)
{
    sim::ThreadPool pool(4);
    constexpr uint64_t n = 10007;
    std::vector<std::atomic<uint32_t>> hits(n);
    auto job = pool.start(n, [&](uint64_t i) { ++hits[i]; });
    pool.wait(job);
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(1u, hits[i].load()) << "index " << i;
}

TEST(ThreadPool, StartRethrowsAtWait)
{
    sim::ThreadPool pool(4);
    auto job = pool.start(100, [&](uint64_t i) {
        if (i == 42)
            throw std::runtime_error("boom");
    });
    EXPECT_THROW(pool.wait(job), std::runtime_error);
    std::atomic<uint64_t> sum{0};
    pool.wait(pool.start(100, [&](uint64_t i) { sum += i; }));
    EXPECT_EQ(4950u, sum.load());
}

TEST(ThreadPool, SerialPoolStartRunsInsideWait)
{
    sim::ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    uint64_t sum = 0;
    bool onCaller = true;
    auto job = pool.start(1000, [&](uint64_t i) {
        sum += i;
        onCaller = onCaller && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(0u, sum); // nothing runs before wait: the serial reference
    pool.wait(job);
    EXPECT_EQ(499500u, sum);
    EXPECT_TRUE(onCaller);
}

TEST(ThreadPool, ParallelForWhileJobOutstanding)
{
    sim::ThreadPool pool(4);
    std::vector<std::atomic<uint32_t>> started(64);
    auto job = pool.start(started.size(), [&](uint64_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++started[i];
    });
    std::atomic<uint64_t> sum{0};
    pool.parallelFor(1000, [&](uint64_t i) { sum += i; });
    EXPECT_EQ(499500u, sum.load());
    pool.wait(job);
    for (auto& s : started)
        EXPECT_EQ(1u, s.load());
}

namespace {

/** Spin until @p ready() or a generous deadline; @return ready(). A
 * pool that loses an index fails the test instead of hanging it. */
template <typename Ready>
bool
spinUntil(Ready ready)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!ready()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

} // namespace

TEST(ThreadPool, BlockedHomeIndexIsStolenAround)
{
    // Index 0 opens worker 0's home block and holds its participant
    // until every other index ran: the rest of that block can only
    // run if the other participants steal it.
    sim::ThreadPool pool(4);
    constexpr uint64_t n = 64;
    std::atomic<uint64_t> others{0};
    bool sawAll = false;
    pool.wait(pool.start(n, [&](uint64_t i) {
        if (i == 0)
            sawAll = spinUntil([&] { return others.load() == n - 1; });
        else
            ++others;
    }));
    EXPECT_TRUE(sawAll);
    EXPECT_EQ(n - 1, others.load());
}

TEST(ThreadPool, EveryIndexOnceAroundTheWorkerCountWithTwoJobs)
{
    sim::ThreadPool pool(5); // four workers, four home blocks
    for (uint64_t n : {uint64_t{3}, uint64_t{4}, uint64_t{10007}}) {
        std::vector<std::atomic<uint32_t>> a(n), b(n);
        auto first = pool.start(n, [&](uint64_t i) { ++a[i]; });
        auto second = pool.start(n, [&](uint64_t i) { ++b[i]; });
        pool.wait(second);
        pool.wait(first);
        for (uint64_t i = 0; i < n; ++i) {
            ASSERT_EQ(1u, a[i].load()) << "n " << n << " index " << i;
            ASSERT_EQ(1u, b[i].load()) << "n " << n << " index " << i;
        }
    }
}

TEST(ThreadPool, ThrowCancelsEveryBlock)
{
    // Index 0 throws once two other participants hold an index each;
    // every index but 0 waits for the throw and then takes 10 ms, so
    // until the job is cancelled each participant runs an index or
    // two. If the throw cancelled only its own home block, the other
    // blocks (two thirds of the range) would still run to the end.
    sim::ThreadPool pool(4);
    constexpr uint64_t n = 3000;
    std::atomic<uint64_t> started{0}, ran{0};
    std::atomic<bool> thrown{false};
    auto job = pool.start(n, [&](uint64_t i) {
        if (i == 0) {
            spinUntil([&] { return started.load() >= 2; });
            thrown = true;
            throw std::runtime_error("boom");
        }
        ++started;
        spinUntil([&] { return thrown.load(); });
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ++ran;
    });
    EXPECT_THROW(pool.wait(job), std::runtime_error);
    EXPECT_GE(ran.load(), 2u);
    EXPECT_LT(ran.load(), n / 3);
    std::atomic<uint64_t> sum{0};
    pool.parallelFor(100, [&](uint64_t i) { sum += i; });
    EXPECT_EQ(4950u, sum.load());
}

// ----------------------------------------------- launchAll determinism

namespace {

/**
 * Run the same multi-DPU streaming workload (scattered per-DPU inputs,
 * evaluator-driven kernel, gathered outputs) on @p sys and return the
 * gathered bytes, with the launch's report in @p launch. Per-DPU stats
 * are left in each core's lastLaunch().
 */
std::vector<float>
runDeterminismWorkload(sim::PimSystem& sys, uint32_t perDpu,
                       sim::LaunchReport& launch)
{
    MethodSpec spec;
    spec.method = Method::LLut;
    spec.placement = Placement::Wram;
    spec.log2Entries = 10;
    auto eval = FunctionEvaluator::create(Function::Sin, spec);

    uint32_t inAddr = 0, outAddr = 0;
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        eval.attach(sys.dpu(d));
        inAddr = sys.dpu(d).mramAlloc(perDpu * sizeof(float));
        outAddr = sys.dpu(d).mramAlloc(perDpu * sizeof(float));
    }

    // Distinct data per DPU: softfloat instruction counts are
    // data-dependent, so any cross-core state mixup shows up in the
    // per-DPU stats, not just in the bytes.
    auto inputs = uniformFloats(
        static_cast<uint64_t>(perDpu) * sys.numDpus(), 0.0f, 6.28f,
        0xdecaf);
    sim::PipelineTimeline tl(sys.numDpus(), sys.model());
    sys.scatterAsync(tl, 0, 0.0,
                     sim::testxfer::equalScatter(
                         sys, inAddr, inputs.data(),
                         perDpu * sizeof(float)));

    launch = sys.launchAll(8, [&](sim::TaskletContext& ctx) {
        constexpr uint32_t chunk = 64;
        float buf[chunk];
        uint32_t chunks = (perDpu + chunk - 1) / chunk;
        for (uint32_t c = ctx.taskletId(); c < chunks;
             c += ctx.numTasklets()) {
            uint32_t beg = c * chunk;
            uint32_t cnt = std::min(chunk, perDpu - beg);
            ctx.mramRead(inAddr + beg * sizeof(float), buf,
                         cnt * sizeof(float));
            for (uint32_t i = 0; i < cnt; ++i) {
                ctx.charge(4);
                buf[i] = eval.eval(buf[i], &ctx);
            }
            ctx.mramWrite(outAddr + beg * sizeof(float), buf,
                          cnt * sizeof(float));
        }
    });

    std::vector<float> out(static_cast<uint64_t>(perDpu) *
                           sys.numDpus());
    sys.gatherAsync(tl, 0, 0.0,
                    sim::testxfer::equalGather(sys, outAddr, out.data(),
                                               perDpu * sizeof(float)));
    return out;
}

} // namespace

TEST(Determinism, ParallelLaunchMatchesSerialBitForBit)
{
    constexpr uint32_t numDpus = 6;
    constexpr uint32_t perDpu = 2048;

    sim::PimSystem serial(numDpus);
    serial.setSimThreads(1); // the serial reference path
    sim::LaunchReport serialLaunch;
    std::vector<float> serialOut =
        runDeterminismWorkload(serial, perDpu, serialLaunch);

    // A dedicated 4-lane pool guarantees genuinely threaded execution
    // even on single-core hosts / under TPL_SIM_THREADS=1.
    sim::ThreadPool fourLanes(4);
    sim::PimSystem parallel(numDpus);
    parallel.setSimThreads(4);
    parallel.setThreadPool(&fourLanes);
    sim::LaunchReport parallelLaunch;
    std::vector<float> parallelOut =
        runDeterminismWorkload(parallel, perDpu, parallelLaunch);

    ASSERT_EQ(serialOut.size(), parallelOut.size());
    EXPECT_EQ(0, std::memcmp(serialOut.data(), parallelOut.data(),
                             serialOut.size() * sizeof(float)));

    EXPECT_EQ(serialLaunch.maxCycles, parallelLaunch.maxCycles);
    for (uint32_t d = 0; d < numDpus; ++d) {
        const sim::LaunchStats& a = serial.dpu(d).lastLaunch();
        const sim::LaunchStats& b = parallel.dpu(d).lastLaunch();
        EXPECT_EQ(a.cycles, b.cycles) << "dpu " << d;
        EXPECT_EQ(a.totalInstructions, b.totalInstructions)
            << "dpu " << d;
        EXPECT_EQ(a.maxTaskletWork, b.maxTaskletWork) << "dpu " << d;
        EXPECT_EQ(a.dmaEngineCycles, b.dmaEngineCycles) << "dpu " << d;
        EXPECT_EQ(a.dmaBytes, b.dmaBytes) << "dpu " << d;
        EXPECT_EQ(a.tasklets, b.tasklets) << "dpu " << d;
        // Bit-identical energy, not approximately-equal: the energy is
        // a pure per-core function, so parallelism must not change it.
        EXPECT_EQ(0, std::memcmp(&a.energyJoules, &b.energyJoules,
                                 sizeof(double)))
            << "dpu " << d;
    }

    // DPUs received distinct data, so the strongest form of the check
    // is available: at least two DPUs must differ from each other.
    bool anyDiffer = false;
    for (uint32_t d = 1; d < numDpus; ++d)
        anyDiffer |= serial.dpu(d).lastLaunch().totalInstructions !=
                     serial.dpu(0).lastLaunch().totalInstructions;
    EXPECT_TRUE(anyDiffer);
}

TEST(Determinism, ObservabilityDoesNotPerturbModeledStats)
{
    constexpr uint32_t numDpus = 6;
    constexpr uint32_t perDpu = 2048;

    // Reference run with the obs layer off. Force it off rather than
    // assume it (TPL_OBS_METRICS / TPL_OBS_TRACE may have armed the
    // globals at process start), and restore the prior state after.
    const bool regWasEnabled = obs::Registry::global().enabled();
    const bool trcWasEnabled = obs::Tracer::global().enabled();
    obs::Registry::global().setEnabled(false);
    obs::Tracer::global().setEnabled(false);
    sim::ThreadPool fourLanes(4);
    sim::PimSystem plain(numDpus);
    plain.setSimThreads(4);
    plain.setThreadPool(&fourLanes);
    sim::LaunchReport plainLaunch;
    std::vector<float> plainOut =
        runDeterminismWorkload(plain, perDpu, plainLaunch);

    // Same workload with metrics AND tracing armed: instrumentation
    // is purely observational, so every modeled statistic — including
    // the per-class attribution — must stay bit-identical.
    obs::Registry::global().setEnabled(true);
    obs::Tracer::global().setEnabled(true);
    sim::PimSystem observed(numDpus);
    observed.setSimThreads(4);
    observed.setThreadPool(&fourLanes);
    sim::LaunchReport observedLaunch;
    std::vector<float> observedOut =
        runDeterminismWorkload(observed, perDpu, observedLaunch);
    EXPECT_GT(obs::Tracer::global().eventCount(), 0u);
    if (!trcWasEnabled)
        obs::Tracer::global().clear();
    if (!regWasEnabled)
        obs::Registry::global().reset();
    obs::Tracer::global().setEnabled(trcWasEnabled);
    obs::Registry::global().setEnabled(regWasEnabled);

    ASSERT_EQ(plainOut.size(), observedOut.size());
    EXPECT_EQ(0, std::memcmp(plainOut.data(), observedOut.data(),
                             plainOut.size() * sizeof(float)));
    EXPECT_EQ(plainLaunch.maxCycles, observedLaunch.maxCycles);
    for (uint32_t d = 0; d < numDpus; ++d) {
        const sim::LaunchStats& a = plain.dpu(d).lastLaunch();
        const sim::LaunchStats& b = observed.dpu(d).lastLaunch();
        EXPECT_EQ(a.cycles, b.cycles) << "dpu " << d;
        EXPECT_EQ(a.totalInstructions, b.totalInstructions)
            << "dpu " << d;
        EXPECT_EQ(a.maxTaskletWork, b.maxTaskletWork) << "dpu " << d;
        EXPECT_EQ(a.dmaEngineCycles, b.dmaEngineCycles) << "dpu " << d;
        EXPECT_EQ(a.dmaBytes, b.dmaBytes) << "dpu " << d;
        EXPECT_EQ(a.stallCycles, b.stallCycles) << "dpu " << d;
        EXPECT_EQ(a.classInstructions, b.classInstructions)
            << "dpu " << d;
        EXPECT_EQ(a.opCounts, b.opCounts) << "dpu " << d;
        ASSERT_EQ(a.perTasklet.size(), b.perTasklet.size())
            << "dpu " << d;
        for (size_t t = 0; t < a.perTasklet.size(); ++t) {
            EXPECT_EQ(a.perTasklet[t].instructions,
                      b.perTasklet[t].instructions)
                << "dpu " << d << " tasklet " << t;
            EXPECT_EQ(a.perTasklet[t].classInstructions,
                      b.perTasklet[t].classInstructions)
                << "dpu " << d << " tasklet " << t;
        }
        EXPECT_EQ(0, std::memcmp(&a.energyJoules, &b.energyJoules,
                                 sizeof(double)))
            << "dpu " << d;
    }
}

// ------------------------------------------------ fault determinism

namespace {

/**
 * Every integer fault counter the injection layer maintains. The
 * backoff RealAccum is deliberately absent: double accumulation order
 * is thread-dependent, which is exactly why the determinism contract
 * is stated over event counts and modeled stats, not wall-side sums.
 */
const char* const kFaultCounters[] = {
    "fault/mem/stuck_asserts",    "fault/mem/bit_flips",
    "fault/dpu/hard_fail",        "fault/dpu/straggler",
    "fault/dma/corrupt",          "fault/dma/timeout",
    "fault/dma/timeout_stall_cycles", "fault/transfer/timeout",
    "fault/transfer/corrupt",     "fault/transfer/retries",
    "fault/transfer/failures",    "fault/launch/failed",
    "fault/launch/timeout",       "fault/launch/masked_skips",
};

std::vector<uint64_t>
snapshotFaultCounters()
{
    std::vector<uint64_t> values;
    for (const char* name : kFaultCounters)
        values.push_back(
            obs::Registry::global().counter(name).value());
    return values;
}

/** A plan touching every probabilistic hook: launch, DMA, memory and
 * host-transfer faults all drawing from the same seeded streams. */
sim::fault::FaultPlan
mixedFaultPlan()
{
    sim::fault::FaultPlan plan;
    plan.seed = 0xfab;
    sim::fault::FaultSpec straggler;
    straggler.kind = sim::fault::FaultKind::DpuStraggler;
    straggler.probability = 0.5;
    straggler.slowdown = 2.0;
    plan.faults.push_back(straggler);
    sim::fault::FaultSpec hardFail;
    hardFail.kind = sim::fault::FaultKind::DpuHardFail;
    hardFail.probability = 0.2;
    plan.faults.push_back(hardFail);
    sim::fault::FaultSpec dmaTimeout;
    dmaTimeout.kind = sim::fault::FaultKind::DmaTimeout;
    dmaTimeout.probability = 0.01;
    dmaTimeout.extraStallCycles = 700;
    plan.faults.push_back(dmaTimeout);
    sim::fault::FaultSpec xferTimeout;
    xferTimeout.kind = sim::fault::FaultKind::TransferTimeout;
    xferTimeout.probability = 0.1;
    plan.faults.push_back(xferTimeout);
    sim::fault::FaultSpec stuck;
    stuck.kind = sim::fault::FaultKind::MramStuckBit;
    stuck.dpu = 1;
    stuck.addr = 64;
    stuck.bit = 3;
    plan.faults.push_back(stuck);
    return plan;
}

} // namespace

TEST(Determinism, FaultPlanIsThreadCountIndependent)
{
    constexpr uint32_t numDpus = 8;
    constexpr uint32_t perDpu = 1024;
    const sim::fault::FaultPlan plan = mixedFaultPlan();

    const bool regWasEnabled = obs::Registry::global().enabled();
    obs::Registry::global().setEnabled(true);

    // Serial reference: the fault draws are pure hashes of
    // (seed, spec, dpu, event counter), so the thread schedule must
    // not be able to change which faults fire.
    obs::Registry::global().reset();
    sim::PimSystem serial(numDpus);
    serial.setSimThreads(1);
    serial.armFaults(plan);
    sim::LaunchReport serialLaunch;
    std::vector<float> serialOut =
        runDeterminismWorkload(serial, perDpu, serialLaunch);
    std::vector<uint64_t> serialCounters = snapshotFaultCounters();

    obs::Registry::global().reset();
    sim::ThreadPool fourLanes(4);
    sim::PimSystem parallel(numDpus);
    parallel.setSimThreads(4);
    parallel.setThreadPool(&fourLanes);
    parallel.armFaults(plan);
    sim::LaunchReport parallelLaunch;
    std::vector<float> parallelOut =
        runDeterminismWorkload(parallel, perDpu, parallelLaunch);
    std::vector<uint64_t> parallelCounters = snapshotFaultCounters();

    if (!regWasEnabled)
        obs::Registry::global().reset();
    obs::Registry::global().setEnabled(regWasEnabled);

    // The plan must actually have fired, or the test is vacuous.
    uint64_t fired = 0;
    for (uint64_t v : serialCounters)
        fired += v;
    ASSERT_GT(fired, 0u);

    // Identical fault/* counters, event for event.
    for (size_t i = 0; i < std::size(kFaultCounters); ++i)
        EXPECT_EQ(serialCounters[i], parallelCounters[i])
            << kFaultCounters[i];

    // Bit-identical gathered bytes (including zeros from masked
    // cores) and per-DPU modeled stats.
    ASSERT_EQ(serialOut.size(), parallelOut.size());
    EXPECT_EQ(0, std::memcmp(serialOut.data(), parallelOut.data(),
                             serialOut.size() * sizeof(float)));
    EXPECT_EQ(serialLaunch.maxCycles, parallelLaunch.maxCycles);
    for (uint32_t d = 0; d < numDpus; ++d) {
        const sim::LaunchStats& a = serial.dpu(d).lastLaunch();
        const sim::LaunchStats& b = parallel.dpu(d).lastLaunch();
        EXPECT_EQ(a.cycles, b.cycles) << "dpu " << d;
        EXPECT_EQ(a.totalInstructions, b.totalInstructions)
            << "dpu " << d;
        EXPECT_EQ(a.stallCycles, b.stallCycles) << "dpu " << d;
        EXPECT_EQ(a.dmaEngineCycles, b.dmaEngineCycles) << "dpu " << d;
        EXPECT_EQ(a.failed, b.failed) << "dpu " << d;
        EXPECT_EQ(a.faultEvents, b.faultEvents) << "dpu " << d;
        EXPECT_EQ(a.classInstructions, b.classInstructions)
            << "dpu " << d;
        EXPECT_EQ(0, std::memcmp(&a.energyJoules, &b.energyJoules,
                                 sizeof(double)))
            << "dpu " << d;
        EXPECT_EQ(serial.isMasked(d), parallel.isMasked(d))
            << "dpu " << d;
    }

    // The launch report — degraded-mode bookkeeping — matches too.
    const sim::LaunchReport& ra = serialLaunch;
    const sim::LaunchReport& rb = parallelLaunch;
    EXPECT_EQ(ra.attempted, rb.attempted);
    EXPECT_EQ(ra.masked, rb.masked);
    EXPECT_EQ(ra.failedDpus, rb.failedDpus);
    EXPECT_EQ(ra.maxCycles, rb.maxCycles);
    EXPECT_EQ(ra.faultEvents, rb.faultEvents);
}

// ------------------------------------------------ the launch contract

TEST(LaunchContract, FactoryCalledOncePerUnmaskedSlice)
{
    // DPU 2 hard-fails on its first launch, which masks it.
    auto plan = sim::fault::FaultPlan::parse(
        "seed 1\nfault kind=dpu-hard-fail dpu=2 prob=1\n");
    ASSERT_TRUE(plan.has_value());
    sim::ThreadPool pool(4);
    sim::PimSystem sys(8);
    sys.setThreadPool(&pool);
    sys.armFaults(*plan);
    sys.launchAll(1, [](sim::TaskletContext& ctx) { ctx.charge(1); });
    ASSERT_TRUE(sys.isMasked(2));

    // Slices over every DPU but 5, out of DPU order.
    std::vector<sim::ShardTask> slices;
    for (uint32_t d : {7u, 0u, 2u, 3u, 1u, 6u, 4u}) {
        sim::ShardTask t;
        t.dpu = d;
        t.elements = d + 1;
        slices.push_back(t);
    }
    std::vector<std::atomic<uint32_t>> calls(sys.numDpus());
    const sim::ShardKernelFactory factory =
        [&calls](const sim::ShardTask& t) -> sim::Kernel {
        ++calls[t.dpu];
        const uint32_t work = 10 * t.elements;
        return [work](sim::TaskletContext& ctx) { ctx.charge(work); };
    };
    sim::PipelineTimeline timeline(sys.numDpus(), sys.model());
    for (int round = 0; round < 3; ++round) {
        for (std::atomic<uint32_t>& c : calls)
            c = 0;
        sim::LaunchHandle launch = sys.submitLaunch(slices, 4, factory);
        sys.commitLaunch(launch, timeline, 0.0);
        for (uint32_t d = 0; d < sys.numDpus(); ++d)
            EXPECT_EQ(calls[d].load(), d == 2 || d == 5 ? 0u : 1u)
                << "round " << round << " dpu " << d;
        EXPECT_EQ(launch.report().attempted, 6u);
        EXPECT_EQ(launch.report().masked, 1u);
        // Cycles come back aligned with the slices, 0 where masked.
        ASSERT_EQ(launch.cycles().size(), slices.size());
        for (size_t i = 0; i < slices.size(); ++i) {
            const uint32_t d = slices[i].dpu;
            EXPECT_EQ(launch.cycles()[i],
                      d == 2 ? 0 : sys.dpu(d).lastLaunch().cycles)
                << "slice " << i;
        }
    }
}

TEST(LaunchContract, FactoryErrorsSurfaceAtCommit)
{
    sim::ThreadPool pool(4);
    sim::PimSystem sys(8);
    sys.setThreadPool(&pool);
    std::vector<sim::ShardTask> slices(sys.numDpus());
    for (uint32_t d = 0; d < sys.numDpus(); ++d)
        slices[d].dpu = d;
    std::atomic<int> running{0};
    const sim::Kernel slow = [&running](sim::TaskletContext& ctx) {
        if (ctx.taskletId() != 0)
            return;
        ++running;
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        --running;
    };
    sim::PipelineTimeline timeline(sys.numDpus(), sys.model());
    // A factory that throws, and one that returns no kernel, for DPU 5.
    const sim::ShardKernelFactory throwing =
        [&slow](const sim::ShardTask& t) -> sim::Kernel {
        if (t.dpu == 5)
            throw std::runtime_error("factory fault");
        return slow;
    };
    const sim::ShardKernelFactory empty =
        [&slow](const sim::ShardTask& t) -> sim::Kernel {
        return t.dpu == 5 ? sim::Kernel{} : slow;
    };
    {
        sim::LaunchHandle launch;
        ASSERT_NO_THROW(launch = sys.submitLaunch(slices, 2, throwing));
        EXPECT_THROW(sys.commitLaunch(launch, timeline, 0.0),
                     std::runtime_error);
        EXPECT_EQ(running.load(), 0);
    }
    {
        sim::LaunchHandle launch;
        ASSERT_NO_THROW(launch = sys.submitLaunch(slices, 2, empty));
        EXPECT_THROW(sys.commitLaunch(launch, timeline, 0.0),
                     std::invalid_argument);
        EXPECT_EQ(running.load(), 0);
    }
}

TEST(LaunchContract, FreshStatsAcrossTaskletCounts)
{
    // Per-tasklet work, DMA and op tallies all differ by tasklet, so
    // any field a launch failed to reset shows up against a fresh
    // core's launch of the same shape.
    const sim::Kernel kernel = [](sim::TaskletContext& ctx) {
        float buf[8];
        ctx.mramRead(0, buf, 8 * (1 + ctx.taskletId() % 4));
        ctx.charge(100 + 10 * ctx.taskletId());
        ctx.chargeClass(InstrClass::WramAccess, ctx.taskletId());
        ctx.noteN(OpClass::TableRead, ctx.taskletId());
    };
    sim::DpuCore core;
    core.mramAlloc(64);
    for (uint32_t n : {16u, 4u, 24u}) {
        SCOPED_TRACE("tasklets=" + std::to_string(n));
        sim::DpuCore fresh;
        fresh.mramAlloc(64);
        const sim::LaunchStats ref = fresh.launch(n, kernel);
        const sim::LaunchStats& got = core.launch(n, kernel);
        EXPECT_EQ(&got, &core.lastLaunch());
        EXPECT_EQ(got.tasklets, n);
        EXPECT_EQ(got.cycles, ref.cycles);
        EXPECT_EQ(got.totalInstructions, ref.totalInstructions);
        EXPECT_EQ(got.maxTaskletWork, ref.maxTaskletWork);
        EXPECT_EQ(got.dmaEngineCycles, ref.dmaEngineCycles);
        EXPECT_EQ(got.dmaBytes, ref.dmaBytes);
        EXPECT_EQ(got.stallCycles, ref.stallCycles);
        EXPECT_EQ(got.classInstructions, ref.classInstructions);
        EXPECT_EQ(got.opCounts, ref.opCounts);
        EXPECT_EQ(0, std::memcmp(&got.energyJoules, &ref.energyJoules,
                                 sizeof(double)));
        ASSERT_EQ(got.perTasklet.size(), n);
        for (uint32_t t = 0; t < n; ++t) {
            EXPECT_EQ(got.perTasklet[t].instructions,
                      ref.perTasklet[t].instructions);
            if (t > 0) {
                EXPECT_GT(got.perTasklet[t].instructions,
                          got.perTasklet[t - 1].instructions);
            }
            EXPECT_EQ(got.perTasklet[t].dmaStallCycles,
                      ref.perTasklet[t].dmaStallCycles);
            EXPECT_EQ(got.perTasklet[t].classInstructions,
                      ref.perTasklet[t].classInstructions);
        }
    }
}

TEST(LaunchContract, IdleTaskletsMatchAFoldOverEveryTasklet)
{
    // A launch skips the instruction and class folds of a tasklet that
    // retired nothing and stalled on no DMA. Its LaunchStats must still
    // be what folding every tasklet gives, field by field: with 1 to 15
    // of 16 tasklets idle, at the end (a short slice's spare tasklets)
    // or scattered, and with one idle tasklet that notes an op without
    // charging for it.
    struct Record
    {
        uint64_t instructions = 0;
        uint64_t dmaStallCycles = 0;
        std::array<uint64_t, numInstrClasses> classes{};
        std::array<uint64_t, numOpClasses> ops{};
    };
    const uint32_t n = 16;
    for (uint32_t idle = 1; idle < n; ++idle) {
        for (bool scattered : {false, true}) {
            SCOPED_TRACE("idle=" + std::to_string(idle) +
                         (scattered ? " scattered" : " at the end"));
            // Multiplying by 7 permutes 0..15, so the busy tasklets of
            // the scattered layout are spread over the launch.
            auto busy = [&](uint32_t t) {
                return (scattered ? t * 7 % n : t) < n - idle;
            };
            std::vector<Record> records(n);
            bool noted = false;
            sim::DpuCore core;
            core.mramAlloc(64);
            const sim::LaunchStats& got =
                core.launch(n, [&](sim::TaskletContext& ctx) {
                    const uint32_t t = ctx.taskletId();
                    if (busy(t)) {
                        float buf[8];
                        ctx.mramRead(0, buf, 8 * (1 + t % 4));
                        ctx.charge(100 + 10 * t);
                        ctx.chargeClass(InstrClass::WramAccess, t);
                        ctx.noteN(OpClass::TableRead, t + 1);
                    } else if (!noted) {
                        ctx.noteN(OpClass::FloatCmp, 3);
                        noted = true;
                    }
                    records[t] = {ctx.instructions(), ctx.dmaStallCycles(),
                                  ctx.classInstructions(), ctx.opCounts()};
                });

            sim::LaunchStats want;
            want.tasklets = n;
            for (const Record& r : records) {
                want.totalInstructions += r.instructions;
                want.maxTaskletWork = std::max(
                    want.maxTaskletWork,
                    r.instructions * core.model().pipelineInterval +
                        r.dmaStallCycles);
                for (int c = 0; c < numInstrClasses; ++c)
                    want.classInstructions[c] += r.classes[c];
                for (int o = 0; o < numOpClasses; ++o)
                    want.opCounts[o] += r.ops[o];
            }
            want.cycles = std::max({want.totalInstructions,
                                    want.maxTaskletWork,
                                    got.dmaEngineCycles});
            want.stallCycles = want.cycles - want.totalInstructions;
            want.energyJoules =
                (static_cast<double>(want.totalInstructions) *
                     core.model().instrEnergyPj +
                 static_cast<double>(got.dmaBytes) *
                     core.model().dmaEnergyPerBytePj) *
                1e-12;

            EXPECT_EQ(got.tasklets, want.tasklets);
            EXPECT_EQ(got.cycles, want.cycles);
            EXPECT_EQ(got.totalInstructions, want.totalInstructions);
            EXPECT_EQ(got.maxTaskletWork, want.maxTaskletWork);
            EXPECT_EQ(got.stallCycles, want.stallCycles);
            EXPECT_EQ(got.classInstructions, want.classInstructions);
            EXPECT_EQ(got.opCounts, want.opCounts);
            EXPECT_EQ(got.opCounts[static_cast<int>(OpClass::FloatCmp)],
                      3u);
            EXPECT_EQ(0, std::memcmp(&got.energyJoules, &want.energyJoules,
                                     sizeof(double)));
            EXPECT_FALSE(got.failed);
            ASSERT_EQ(got.perTasklet.size(), n);
            for (uint32_t t = 0; t < n; ++t) {
                EXPECT_EQ(got.perTasklet[t].instructions,
                          records[t].instructions);
                EXPECT_EQ(got.perTasklet[t].dmaStallCycles,
                          records[t].dmaStallCycles);
                EXPECT_EQ(got.perTasklet[t].classInstructions,
                          records[t].classes);
                EXPECT_EQ(records[t].instructions == 0, !busy(t)) << t;
            }
        }
    }
}

} // namespace
} // namespace transpim
} // namespace tpl
