/**
 * @file
 * Multi-DPU system implementation.
 *
 * Kernel launches run on the process-wide ThreadPool. Each DpuCore
 * owns its entire state, so the launches are embarrassingly parallel
 * and the modeled numbers they produce are independent of the thread
 * count (see the determinism test in tests/concurrency_test.cc).
 * Transfer legs run on the calling thread, one slice after another.
 */

#include "pimsim/system.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"
#include "pimsim/thread_pool.h"

namespace tpl {
namespace sim {

namespace fault {

/**
 * The armed plan plus every per-DPU fault state and the health mask.
 * Created by PimSystem::armFaults; the DpuFaultState pointers handed
 * to the cores point into this object. Mask slots are written only by
 * the thread simulating that DPU (or sequentially by the host side),
 * and reads happen after the pool joins, so plain bytes suffice.
 */
class SystemFaultState
{
  public:
    SystemFaultState(const FaultPlan& plan,
                     std::vector<std::unique_ptr<DpuCore>>& dpus)
        : plan_(plan), masked_(dpus.size(), 0)
    {
        states_.reserve(dpus.size());
        for (uint32_t i = 0; i < dpus.size(); ++i)
            states_.push_back(std::make_unique<DpuFaultState>(
                plan_, i, dpus[i].get()));
    }

    const FaultPlan& plan() const { return plan_; }
    DpuFaultState& dpu(uint32_t i) { return *states_[i]; }
    bool masked(uint32_t i) const { return masked_[i] != 0; }
    void mask(uint32_t i) { masked_[i] = 1; }

  private:
    FaultPlan plan_;
    std::vector<std::unique_ptr<DpuFaultState>> states_;
    std::vector<uint8_t> masked_;
};

} // namespace fault

namespace {

/** Total bytes of a scatter's or gather's slices (trace args). */
template <typename Slice>
uint64_t
sliceBytes(std::span<const Slice> slices)
{
    uint64_t total = 0;
    for (const Slice& s : slices)
        total += s.bytes;
    return total;
}

} // namespace

PimSystem::PimSystem(uint32_t numDpus, const CostModel& model)
    : model_(model)
{
    dpus_.reserve(numDpus);
    for (uint32_t i = 0; i < numDpus; ++i)
        dpus_.push_back(std::make_unique<DpuCore>(model));
}

PimSystem::~PimSystem() = default;

void
PimSystem::armFaults(const fault::FaultPlan& plan)
{
    faults_ = std::make_unique<fault::SystemFaultState>(plan, dpus_);
    for (uint32_t i = 0; i < numDpus(); ++i)
        dpus_[i]->setFaultState(&faults_->dpu(i));
    ++maskEpoch_;
}

const fault::FaultPlan*
PimSystem::faultPlan() const
{
    return faults_ ? &faults_->plan() : nullptr;
}

bool
PimSystem::isMasked(uint32_t dpu) const
{
    return faults_ && faults_->masked(dpu);
}

uint32_t
PimSystem::healthyDpus() const
{
    uint32_t n = 0;
    for (uint32_t i = 0; i < numDpus(); ++i)
        n += isMasked(i) ? 0 : 1;
    return n;
}

void
PimSystem::maskDpu(uint32_t dpu)
{
    if (!faults_)
        return;
    faults_->mask(dpu);
    ++maskEpoch_;
}

PipelineEvent
PimSystem::reserveTransfer(PipelineTimeline& timeline, uint32_t lane,
                           double readyAt, TransferStats::Cell& cell,
                           const char* cellName, uint64_t streamBytes,
                           double seconds)
{
    ++cell.transfers;
    cell.bytes += streamBytes;
    cell.seconds += seconds;

    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled()) {
        std::string base = std::string("pimsim/host/") + cellName;
        reg.counter(base + "/transfers").add(1);
        reg.counter(base + "/bytes").add(streamBytes);
        reg.real(base + "/modeled_seconds").add(seconds);
    }
    return timeline.reserveLane(lane, readyAt, seconds);
}

template <typename Copy>
double
PimSystem::transferLeg(uint32_t dpu, uint64_t bytes, const Copy& copy,
                       uint8_t* corruptTarget, uint64_t corruptSize)
{
    if (!faults_) {
        copy();
        return 0.0;
    }
    if (faults_->masked(dpu))
        return 0.0; // skipped: the core is already dead

    fault::DpuFaultState& state = faults_->dpu(dpu);
    obs::Registry& reg = obs::Registry::global();
    double extra = 0.0;
    uint32_t attempts = policy_.maxTransferRetries + 1;
    for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            // Capped exponential backoff before each retry.
            double backoff =
                std::min(policy_.backoffBaseSeconds *
                             static_cast<double>(1ull << (attempt - 1)),
                         policy_.backoffCapSeconds);
            extra += backoff;
            if (reg.enabled()) {
                reg.counter("fault/transfer/retries").add(1);
                reg.real("fault/transfer/backoff_seconds").add(backoff);
            }
        }
        fault::TransferOutcome outcome = state.onTransferAttempt();
        if (outcome == fault::TransferOutcome::Ok) {
            copy();
            return extra;
        }
        if (outcome == fault::TransferOutcome::Corrupt) {
            // The bytes made it across the link, but damaged.
            copy();
            if (!policy_.detectTransferCorruption) {
                // No CRC on this runtime: the flip lands silently.
                if (corruptTarget && corruptSize)
                    state.corruptRegion(corruptTarget, corruptSize);
                return extra;
            }
            // Detected: the streamed bytes were wasted; retry.
            extra += model_.serialTransferSeconds(bytes);
        }
        // Timeout: nothing arrived; the attempt cost the leg's stream
        // time before the host gave up.
        if (outcome == fault::TransferOutcome::Timeout)
            extra += model_.serialTransferSeconds(bytes);
    }
    // Out of retries: this core's link is considered dead.
    maskDpu(dpu);
    if (reg.enabled())
        reg.counter("fault/transfer/failures").add(1);
    return extra;
}

/** What a submitted wave carries from submitLaunch to its commit. */
struct LaunchHandle::State
{
    std::span<const ShardTask> slices;
    const ShardKernelFactory* makeKernel = nullptr;
    uint32_t numTasklets = 0;
    std::vector<uint32_t> runs;   ///< indices of the slices that run
    uint32_t masked = 0;          ///< slices whose core was masked
    std::vector<uint64_t> cycles; ///< aligned with slices
    ThreadPool* pool = nullptr;
    /** The kernels on the pool; null when they run at the commit. */
    std::shared_ptr<ThreadPool::Job> job;
    LaunchReport report;
};

LaunchHandle::LaunchHandle() = default;

LaunchHandle::LaunchHandle(LaunchHandle&& other) noexcept = default;

LaunchHandle&
LaunchHandle::operator=(LaunchHandle&& other) noexcept
{
    if (this != &other) {
        reset();
        state_ = std::move(other.state_);
    }
    return *this;
}

LaunchHandle::~LaunchHandle() { reset(); }

void
LaunchHandle::reset() noexcept
{
    if (state_ && state_->job) {
        // Abandoned before its commit: the kernels still reference
        // this state, so let them finish before it goes away.
        try {
            state_->pool->wait(state_->job);
        } catch (...) {
        }
    }
    state_.reset();
}

const std::vector<uint64_t>&
LaunchHandle::cycles() const
{
    static const std::vector<uint64_t> none;
    return state_ ? state_->cycles : none;
}

const LaunchReport&
LaunchHandle::report() const
{
    static const LaunchReport none;
    return state_ ? state_->report : none;
}

LaunchHandle
PimSystem::submitLaunch(std::span<const ShardTask> slices,
                        uint32_t numTasklets,
                        const ShardKernelFactory& makeKernel)
{
    std::optional<obs::TraceSpan> span;
    if (obs::Tracer::global().enabled())
        span.emplace(
            "launchSubmit", "sim",
            obs::argsObject(
                {obs::argKv("dpus",
                            static_cast<uint64_t>(slices.size())),
                 obs::argKv("tasklets",
                            static_cast<uint64_t>(numTasklets))}));
    LaunchHandle handle;
    handle.state_ = std::make_unique<LaunchHandle::State>();
    LaunchHandle::State& st = *handle.state_;
    st.slices = slices;
    st.makeKernel = &makeKernel;
    st.numTasklets = numTasklets;
    st.cycles.assign(slices.size(), 0);
    // Masks are read here, on the submitting thread: a slice is
    // skipped only if an earlier failure masked its core.
    st.runs.reserve(slices.size());
    for (uint32_t i = 0; i < slices.size(); ++i) {
        if (faults_ && faults_->masked(slices[i].dpu))
            ++st.masked;
        else
            st.runs.push_back(i);
    }

    if (simThreads_ != 1) {
        // Per-slice cycles land in pre-sized slots: no cross-thread
        // accumulation, so the result is identical to the serial
        // loop bit for bit.
        st.pool = pool_ ? pool_ : &ThreadPool::global();
        LaunchHandle::State* wave = &st;
        st.job = st.pool->start(
            st.runs.size(),
            [this, wave](uint64_t i) { runLaunchIndex(*wave, i); });
    }
    return handle;
}

void
PimSystem::runLaunchIndex(LaunchHandle::State& wave, size_t i)
{
    const uint32_t s = wave.runs[i];
    const uint32_t d = wave.slices[s].dpu;
    // The kernel lives for this task only: built, launched and
    // destroyed on the thread that runs it.
    const Kernel kernel = (*wave.makeKernel)(wave.slices[s]);
    if (!kernel)
        throw std::invalid_argument(
            "submitLaunch: the kernel factory returned an empty "
            "kernel for DPU " +
            std::to_string(d));
    obs::Tracer& tracer = obs::Tracer::global();
    if (!tracer.enabled()) {
        wave.cycles[s] =
            dpus_[d]->launch(wave.numTasklets, kernel).cycles;
        return;
    }
    // The per-DPU slice lands on whichever pool thread ran it,
    // exercising the tracer's per-thread buffers.
    double t0 = tracer.nowUs();
    wave.cycles[s] = dpus_[d]->launch(wave.numTasklets, kernel).cycles;
    tracer.complete("dpu " + std::to_string(d), "dpu", t0,
                    tracer.nowUs() - t0,
                    obs::argKv("cycles", wave.cycles[s]));
}

void
PimSystem::joinLaunch(LaunchHandle::State& wave)
{
    if (wave.job) {
        std::shared_ptr<ThreadPool::Job> job = std::move(wave.job);
        wave.pool->wait(job);
    } else {
        for (size_t i = 0; i < wave.runs.size(); ++i)
            runLaunchIndex(wave, i);
    }

    // Sequential failure sweep: apply the launch timeout, mask newly
    // failed cores, and cap their cycle contribution (the host fences
    // a straggler at the timeout; a hard-failed core contributed 0).
    obs::Registry& reg = obs::Registry::global();
    LaunchReport& report = wave.report;
    report.attempted = static_cast<uint32_t>(wave.runs.size());
    report.masked = wave.masked;
    if (faults_) {
        for (uint32_t s : wave.runs) {
            const uint32_t d = wave.slices[s].dpu;
            const LaunchStats& st = dpus_[d]->lastLaunch();
            report.faultEvents += st.faultEvents;
            bool failed = st.failed;
            if (!failed && policy_.launchTimeoutCycles > 0 &&
                st.cycles > policy_.launchTimeoutCycles) {
                failed = true;
                wave.cycles[s] = policy_.launchTimeoutCycles;
                if (reg.enabled())
                    reg.counter("fault/launch/timeout").add(1);
            }
            if (failed) {
                report.failedDpus.push_back(d);
                maskDpu(d);
            }
        }
        if (reg.enabled() && report.masked)
            reg.counter("fault/launch/masked_skips").add(report.masked);
    }
    for (uint64_t c : wave.cycles)
        report.maxCycles = std::max(report.maxCycles, c);
}

LaunchReport
PimSystem::launchAll(uint32_t numTasklets, const Kernel& kernel)
{
    uint32_t n = numDpus();
    std::optional<obs::TraceSpan> span;
    if (obs::Tracer::global().enabled())
        span.emplace(
            "launchAll", "sim",
            obs::argsObject(
                {obs::argKv("dpus", static_cast<uint64_t>(n)),
                 obs::argKv("tasklets",
                            static_cast<uint64_t>(numTasklets))}));
    std::vector<ShardTask> all(n);
    for (uint32_t d = 0; d < n; ++d)
        all[d].dpu = d;
    // Every slice runs the caller's one kernel by reference: a
    // reference_wrapper fits std::function's inline buffer, so no
    // slice copies the kernel or allocates.
    const ShardKernelFactory shared =
        [&kernel](const ShardTask&) -> Kernel { return std::ref(kernel); };
    LaunchHandle wave = submitLaunch(all, numTasklets, shared);
    joinLaunch(*wave.state_);
    LaunchReport report = std::move(wave.state_->report);
    const uint64_t maxCycles = report.maxCycles;

    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled()) {
        reg.counter("pimsim/system/launches").add(1);
        reg.counter("pimsim/system/max_cycles").add(maxCycles);
        reg.histogram("pimsim/system/max_cycles_per_launch")
            .observe(maxCycles);
    }

    if (reg.enabled() && model_.frequencyHz > 0.0)
        reg.real("pimsim/system/modeled_seconds")
            .add(static_cast<double>(maxCycles) / model_.frequencyHz);
    return report;
}

PipelineEvent
PimSystem::broadcastAsync(PipelineTimeline& timeline, uint32_t lane,
                          double readyAt, uint64_t tableBytes)
{
    std::optional<obs::TraceSpan> span;
    if (obs::Tracer::global().enabled())
        span.emplace("broadcastAsync", "xfer",
                     obs::argKv("bytes", tableBytes));
    return reserveTransfer(
        timeline, lane, readyAt, transferStats_.broadcast,
        "broadcast/parallel", tableBytes,
        model_.parallelTransferSeconds(tableBytes, timeline.laneRanks()));
}

PipelineEvent
PimSystem::scatterAsync(PipelineTimeline& timeline, uint32_t lane,
                        double readyAt,
                        std::span<const ScatterSlice> slices)
{
    std::optional<obs::TraceSpan> span;
    if (obs::Tracer::global().enabled())
        span.emplace("scatterAsync", "xfer",
                     obs::argKv("bytes", sliceBytes(slices)));
    // One retryable leg per slice, sequentially: the slices have
    // distinct sizes, so the host interface serializes them anyway,
    // and sequential legs keep the per-DPU fault-event order (and
    // thus the modeled numbers) independent of the thread count.
    uint64_t streamBytes = 0;
    double extra = 0.0;
    for (const ScatterSlice& s : slices) {
        DpuCore& d = *dpus_[s.dpu];
        // Only an armed plan corrupts the target, and arming already
        // privatized every shared region, so the raw pointer costs no
        // copy; unarmed, the target is never touched.
        extra += transferLeg(
            s.dpu, s.bytes,
            [&] { d.hostWriteMram(s.mramAddr, s.src, s.bytes); },
            faults_ ? d.mramData() + s.mramAddr : nullptr, s.bytes);
        if (!isMasked(s.dpu))
            streamBytes += s.bytes;
    }
    return reserveTransfer(
        timeline, lane, readyAt, transferStats_.scatter,
        "scatter/serial", streamBytes,
        model_.serialTransferSeconds(streamBytes) + extra);
}

PipelineEvent
PimSystem::gatherAsync(PipelineTimeline& timeline, uint32_t lane,
                       double readyAt,
                       std::span<const GatherSlice> slices)
{
    std::optional<obs::TraceSpan> span;
    if (obs::Tracer::global().enabled())
        span.emplace("gatherAsync", "xfer",
                     obs::argKv("bytes", sliceBytes(slices)));
    uint64_t streamBytes = 0;
    double extra = 0.0;
    for (const GatherSlice& s : slices) {
        uint8_t* dst = static_cast<uint8_t*>(s.dst);
        extra += transferLeg(
            s.dpu, s.bytes,
            [&] {
                dpus_[s.dpu]->hostReadMram(s.mramAddr, dst, s.bytes);
            },
            dst, s.bytes);
        if (!isMasked(s.dpu))
            streamBytes += s.bytes;
    }
    return reserveTransfer(
        timeline, lane, readyAt, transferStats_.gather,
        "gather/serial", streamBytes,
        model_.serialTransferSeconds(streamBytes) + extra);
}

PipelineEvent
PimSystem::commitLaunch(LaunchHandle& launch, PipelineTimeline& timeline,
                        double readyAt)
{
    obs::TraceSpan span("launchCommit", "sim");
    LaunchHandle::State& wave = *launch.state_;
    joinLaunch(wave);

    // Merge each participating core's modeled cycles onto its own
    // timeline lane; the wave's event spans the earliest lane start
    // to the latest lane end.
    PipelineEvent ev{readyAt, readyAt};
    bool first = true;
    for (uint32_t s : wave.runs) {
        const uint32_t d = wave.slices[s].dpu;
        double secs = model_.frequencyHz > 0.0
                          ? static_cast<double>(wave.cycles[s]) /
                                model_.frequencyHz
                          : 0.0;
        double start = std::max(readyAt, timeline.dpuFree(d));
        double end = timeline.reserveDpu(d, readyAt, secs);
        ev.start = first ? start : std::min(ev.start, start);
        ev.end = std::max(ev.end, end);
        first = false;
    }

    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled()) {
        const uint64_t maxCycles = wave.report.maxCycles;
        reg.counter("pimsim/system/async_launches").add(1);
        reg.counter("pimsim/system/max_cycles").add(maxCycles);
        reg.histogram("pimsim/system/max_cycles_per_launch")
            .observe(maxCycles);
        reg.real("pimsim/system/modeled_seconds")
            .add(ev.end - ev.start);
    }
    return ev;
}

} // namespace sim
} // namespace tpl
