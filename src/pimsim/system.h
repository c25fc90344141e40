/**
 * @file
 * Multi-DPU PIM system with a host-transfer timing model.
 *
 * Mirrors the structure in Figure 2 of the paper: a host CPU that can
 * copy buffers to/from the MRAM bank of every PIM core, launch the same
 * SPMD kernel on all cores, and gather results. There is no direct
 * PIM-to-PIM channel — inter-core communication happens through the
 * host, as on all five real PIM systems the paper surveys.
 *
 * Transfer timing follows the UPMEM characterization: transfers execute
 * in parallel across DPUs when every DPU sends/receives a buffer of the
 * same size, and serialize otherwise. The model exposes both so the
 * workload harness can account setup and result movement the way the
 * paper does.
 */

#ifndef TPL_PIMSIM_SYSTEM_H
#define TPL_PIMSIM_SYSTEM_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pimsim/dpu.h"
#include "pimsim/fault/fault.h"

namespace tpl {
namespace sim {

class ThreadPool;

namespace fault {
class SystemFaultState; // system.cc (plan copy + per-DPU states)
} // namespace fault

/**
 * How a host<->PIM transfer streams on the modeled machine: rank-
 * parallel (same-size buffer per DPU, the fast path the UPMEM runtime
 * reaches with aligned same-size transfers) or serialized on the host
 * interface (distinct sizes / unaligned).
 */
enum class TransferMode
{
    Parallel,
    Serial,
};

/** "parallel" or "serial". */
inline const char*
toString(TransferMode mode)
{
    return mode == TransferMode::Parallel ? "parallel" : "serial";
}

/**
 * Per-direction x per-mode transfer accounting. Earlier revisions
 * folded rank-parallel and serial timing into one returned number;
 * this split keeps a distinct counter per (broadcast/scatter/gather,
 * parallel/serial) cell so the tracer and metrics registry can label
 * them — the cells sum exactly to the old combined totals (locked by
 * a unit test).
 */
struct TransferStats
{
    struct Cell
    {
        uint64_t transfers = 0; ///< calls accounted in this cell
        uint64_t bytes = 0;     ///< modeled stream bytes
        double seconds = 0.0;   ///< modeled transfer seconds
    };

    /** Indexed by static_cast<int>(TransferMode). */
    Cell broadcast[2];
    Cell scatter[2];
    Cell gather[2];

    /** Sum of every cell's modeled seconds (the old combined view). */
    double
    totalSeconds() const
    {
        double s = 0.0;
        for (int m = 0; m < 2; ++m)
            s += broadcast[m].seconds + scatter[m].seconds +
                 gather[m].seconds;
        return s;
    }

    /** Sum of every cell's modeled stream bytes. */
    uint64_t
    totalBytes() const
    {
        uint64_t b = 0;
        for (int m = 0; m < 2; ++m)
            b += broadcast[m].bytes + scatter[m].bytes +
                 gather[m].bytes;
        return b;
    }
};

/**
 * How the runtime reacts to transfer and launch failures injected by
 * an armed FaultPlan. All times are modeled seconds; with no plan
 * armed the policy is never consulted.
 */
struct RetryPolicy
{
    /** Retries per failed host<->DPU transfer leg before the DPU is
     * masked out as failed. */
    uint32_t maxTransferRetries = 3;

    /** Backoff before retry k is min(base * 2^k, cap): capped
     * exponential, modeled on the host interface clock. */
    double backoffBaseSeconds = 1e-6;
    double backoffCapSeconds = 1e-3;

    /** Launches exceeding this many cycles are treated as failed
     * (straggler fencing); 0 disables the timeout. */
    uint64_t launchTimeoutCycles = 0;

    /** Detected-corrupt transfer legs are retried; when false they
     * land silently (models a runtime without CRC). */
    bool detectTransferCorruption = true;
};

/**
 * What happened in the last launchAll: which cores ran, which were
 * skipped because an earlier fault masked them, and which failed this
 * launch (hard failure, or cycles beyond the policy's launch
 * timeout). Failure surfaces here and in the per-core
 * LaunchStats::failed flag; the obs Registry counts under `fault/...`.
 */
struct LaunchReport
{
    uint32_t attempted = 0; ///< unmasked cores launched
    uint32_t masked = 0;    ///< cores skipped (previously failed)
    std::vector<uint32_t> failedDpus; ///< newly failed this launch
    uint64_t maxCycles = 0; ///< slowest healthy core
    uint64_t faultEvents = 0; ///< injected events across cores
};

/** One per-DPU slice of a serve wave: where a contiguous slice of the
 * element range landed on one core. */
struct ShardTask
{
    uint32_t dpu = 0;          ///< simulated DPU index
    uint32_t inAddr = 0;       ///< MRAM address of the input slice
    uint32_t outAddr = 0;      ///< MRAM address of the output slice
    uint64_t firstElement = 0; ///< offset into the host arrays
    uint32_t elements = 0;     ///< elements in this shard
};

/** Builds the kernel evaluating one slice (SPMD body per tasklet). */
using ShardKernelFactory = std::function<Kernel(const ShardTask&)>;

/**
 * Modeled-time resource timeline for pipelined (double-buffered)
 * execution: one lane for the serialized host interface plus one lane
 * per DPU. A reservation starts when both its dependency (@p readyAt)
 * and the lane are free — exactly the rank-level overlap the UPMEM
 * async API exposes, where the host can stream wave N+1 while the
 * DPUs compute wave N.
 *
 * Purely modeled time: the simulator still executes everything
 * eagerly in wall time; the timeline only decides how the modeled
 * seconds of the legs overlap. Reservations mutate nothing but the
 * lane clocks, so makespan() is a pure function of the reservation
 * sequence and therefore bit-identical for any TPL_SIM_THREADS.
 */
class PipelineTimeline
{
  public:
    explicit PipelineTimeline(uint32_t numDpus)
        : dpus_(numDpus, 0.0)
    {
    }

    /** When the host-interface lane next becomes idle. */
    double hostFree() const { return host_; }

    /** When @p dpu's compute lane next becomes idle. */
    double dpuFree(uint32_t dpu) const { return dpus_[dpu]; }

    /**
     * Arm per-rank transfer lanes: @p ranks rank lanes of
     * @p dpusPerRank DPUs each, with rank r's transfers carried on
     * channel @p channelOfRank[r]. Ranks mapped to distinct channels
     * overlap; ranks sharing a channel serialize against each other.
     * Until this is called (the flat single-system path), rank lanes
     * do not exist and reserveRank must not be used.
     */
    void
    configureRanks(uint32_t ranks, uint32_t dpusPerRank,
                   std::vector<uint32_t> channelOfRank)
    {
        rankDpus_ = dpusPerRank;
        channelOfRank_ = std::move(channelOfRank);
        rankLane_.assign(ranks, 0.0);
        rankMakespan_.assign(ranks, 0.0);
        uint32_t channels = 0;
        for (uint32_t c : channelOfRank_)
            channels = std::max(channels, c + 1);
        channelLane_.assign(channels, 0.0);
    }

    /** Number of rank lanes armed by configureRanks (0 = flat). */
    uint32_t rankCount() const
    {
        return static_cast<uint32_t>(rankLane_.size());
    }

    /** When @p rank's transfer lane (and its channel) next free up. */
    double
    rankFree(uint32_t rank) const
    {
        return std::max(rankLane_[rank],
                        channelLane_[channelOfRank_[rank]]);
    }

    /**
     * Occupy @p rank's transfer lane and its channel for @p seconds
     * starting no earlier than @p readyAt. @return the completion
     * time.
     */
    double
    reserveRank(uint32_t rank, double readyAt, double seconds)
    {
        double start = std::max(readyAt, rankFree(rank));
        double end = start + seconds;
        rankLane_[rank] = end;
        channelLane_[channelOfRank_[rank]] = end;
        rankMakespan_[rank] = std::max(rankMakespan_[rank], end);
        makespan_ = std::max(makespan_, end);
        return end;
    }

    /**
     * Latest completion of any reservation attributed to @p rank:
     * its transfer lane plus the compute lanes of its DPUs.
     */
    double rankMakespan(uint32_t rank) const
    {
        return rankMakespan_[rank];
    }

    /**
     * Occupy the host lane for @p seconds starting no earlier than
     * @p readyAt. @return the completion time.
     */
    double
    reserveHost(double readyAt, double seconds)
    {
        double start = std::max(readyAt, host_);
        host_ = start + seconds;
        makespan_ = std::max(makespan_, host_);
        return host_;
    }

    /** Occupy @p dpu's compute lane; see reserveHost. */
    double
    reserveDpu(uint32_t dpu, double readyAt, double seconds)
    {
        double start = std::max(readyAt, dpus_[dpu]);
        dpus_[dpu] = start + seconds;
        makespan_ = std::max(makespan_, dpus_[dpu]);
        if (rankDpus_ > 0) {
            uint32_t rank = dpu / rankDpus_;
            if (rank < rankMakespan_.size())
                rankMakespan_[rank] =
                    std::max(rankMakespan_[rank], dpus_[dpu]);
        }
        return dpus_[dpu];
    }

    /** Latest completion time of any reservation so far. */
    double makespan() const { return makespan_; }

  private:
    double host_ = 0.0;
    std::vector<double> dpus_;
    double makespan_ = 0.0;
    // Rank lanes (empty until configureRanks): per-rank transfer
    // lanes, the channel lanes they serialize on, and per-rank
    // makespans folding in DPU-lane reservations.
    uint32_t rankDpus_ = 0;
    std::vector<uint32_t> channelOfRank_;
    std::vector<double> rankLane_;
    std::vector<double> channelLane_;
    std::vector<double> rankMakespan_;
};

/**
 * One leg reserved on a PipelineTimeline: when the lane began the
 * operation (after both the dependency and the lane were free) and
 * when it completed. end - start is the operation's own duration,
 * independent of any waiting — summing seconds() over all legs of a
 * run therefore reproduces the synchronous (no-overlap) makespan.
 */
struct PipelineEvent
{
    double start = 0.0; ///< modeled time the lane began the leg
    double end = 0.0;   ///< modeled completion time

    /** Duration of the leg itself (waiting excluded). */
    double seconds() const { return end - start; }
};

/** One per-DPU slice of an async scatter: @p bytes from host memory
 * @p src land at @p mramAddr of DPU @p dpu. Slices may differ in
 * size, so the legs serialize on the host interface. */
struct ScatterSlice
{
    uint32_t dpu = 0;
    uint32_t mramAddr = 0;
    const void* src = nullptr;
    uint32_t bytes = 0;
};

/** One per-DPU slice of an async gather (MRAM -> host @p dst). */
struct GatherSlice
{
    uint32_t dpu = 0;
    uint32_t mramAddr = 0;
    void* dst = nullptr;
    uint32_t bytes = 0;
};

/**
 * Builds the kernel one DPU runs in a submitted wave. Returning an
 * empty Kernel excludes that DPU from the wave (its lane stays free).
 */
using DpuKernelFactory = std::function<Kernel(uint32_t dpu)>;

/**
 * A kernel wave started by PimSystem::submitLaunch. Its kernels run on
 * the simulation pool in the background until PimSystem::commitLaunch
 * joins them; afterwards the handle holds the wave's outcome.
 * Destroying a handle that was never committed waits for its kernels
 * (discarding any error they threw), so nothing of the wave runs once
 * the handle is gone. The PimSystem must outlive its handles.
 */
class LaunchHandle
{
  public:
    LaunchHandle();
    LaunchHandle(LaunchHandle&& other) noexcept;
    LaunchHandle& operator=(LaunchHandle&& other) noexcept;
    ~LaunchHandle();

    /** First DPU of the submitted range. */
    uint32_t firstDpu() const;

    /**
     * Per-DPU cycles of the committed wave, indexed by dpu -
     * firstDpu() (0 for cores that did not run; straggler entries
     * already fenced at the policy's launch timeout). Filled by the
     * sequential failure sweep, so deterministic at any thread count.
     */
    const std::vector<uint64_t>& cycles() const;

    /** Failure accounting of the committed wave. */
    const LaunchReport& report() const;

  private:
    friend class PimSystem;
    struct State; // system.cc
    void reset() noexcept;
    std::unique_ptr<State> state_;
};

/** Accumulated timing of one offloaded phase. */
struct PhaseTiming
{
    double hostToPimSeconds = 0.0; ///< CPU -> MRAM transfers
    double pimSeconds = 0.0;       ///< slowest DPU kernel time
    double pimToHostSeconds = 0.0; ///< MRAM -> CPU transfers
    double setupSeconds = 0.0;     ///< host-side table generation etc.

    /** End-to-end time of the phase. */
    double
    total() const
    {
        return hostToPimSeconds + pimSeconds + pimToHostSeconds +
               setupSeconds;
    }
};

/**
 * A set of simulated DPUs plus the host-side runtime.
 *
 * The number of *simulated* cores is deliberately decoupled from the
 * number of cores of the *modeled* machine: microbenchmarks simulate a
 * single DPU (as in the paper), while the workload experiments simulate
 * a handful of DPUs executing their exact per-core element share and
 * project to the full 2545-DPU system (see projectedSystemSeconds).
 *
 * Time domains: every `double` this class returns is **modeled time**
 * (seconds of the modeled PIM machine, derived from cycle counts and
 * bandwidth parameters of the CostModel), never host wall-clock time.
 * The only wall-clock measurement in the stack is the host-side table
 * generation (FunctionEvaluator::setupSeconds) and the CPU baselines
 * (work::timeCpuBaseline).
 *
 * Parallel simulation: launchAll, submitLaunch and the bulk transfer
 * helpers execute across DPUs on the process-wide ThreadPool. Each
 * DpuCore is fully self-contained (its own MRAM/WRAM arrays,
 * per-tasklet instruction counters, per-core DMA accumulator), so
 * modeled cycles, energy and memory numbers are pure functions of
 * per-core state and the results are bit-identical for any thread
 * count. Set TPL_SIM_THREADS=1 (or
 * setSimThreads(1)) to force the serial reference path.
 */
class PimSystem
{
  public:
    /**
     * @param numDpus simulated DPU count.
     * @param model cost-model parameters (shared by all cores).
     */
    explicit PimSystem(uint32_t numDpus,
                       const CostModel& model = CostModel{});
    ~PimSystem(); // out of line: SystemFaultState is incomplete here

    uint32_t numDpus() const { return static_cast<uint32_t>(dpus_.size()); }

    DpuCore& dpu(uint32_t i) { return *dpus_[i]; }
    const DpuCore& dpu(uint32_t i) const { return *dpus_[i]; }

    const CostModel& model() const { return model_; }

    /**
     * Broadcast the same buffer into every DPU at @p mramAddr.
     * @return modeled transfer seconds. Parallel mode (default, the
     * pre-split behavior): the same bytes stream once per rank,
     * overlapped across ranks. Serial mode: one pass of the buffer
     * per DPU on the serialized host interface.
     */
    double broadcastToMram(uint32_t mramAddr, const void* src,
                           uint32_t size,
                           TransferMode mode = TransferMode::Parallel);

    /**
     * Scatter equal-size slices of @p data across the DPUs.
     * Slice i (size bytesPerDpu) lands at @p mramAddr of DPU i.
     * @return modeled transfer seconds in @p mode.
     */
    double scatterToMram(uint32_t mramAddr, const void* data,
                         uint32_t bytesPerDpu,
                         TransferMode mode = TransferMode::Parallel);

    /** Gather equal-size slices back from the DPUs. */
    double gatherFromMram(uint32_t mramAddr, void* data,
                          uint32_t bytesPerDpu,
                          TransferMode mode = TransferMode::Parallel);

    /// @name Asynchronous (pipelined) legs.
    ///
    /// The transfer legs move their data immediately in wall time; a
    /// kernel wave runs in the background between submitLaunch and
    /// commitLaunch. All of them reserve their modeled cost on a
    /// caller-owned PipelineTimeline instead of assuming the legs run
    /// back to back: transfer legs occupy the serialized host lane,
    /// kernel legs occupy each DPU's own lane. Passing the completion
    /// time of a leg as another leg's @p readyAt expresses the data
    /// dependency; the timeline's makespan is then the end-to-end
    /// modeled time of the overlapped schedule. Fault semantics,
    /// TransferStats accounting and LaunchStats (including the exact
    /// per-class cycle partition) are identical to the synchronous
    /// calls.
    /// @{

    /**
     * Account a rank-parallel broadcast of @p tableBytes on the host
     * lane, timing only: the broadcast data itself must already have
     * been staged through direct core writes (e.g. an evaluator's
     * attach()). Used by the serve layer to model LUT distribution on
     * a cache miss.
     *
     * With @p rank >= 0 the leg is reserved on that rank's transfer
     * lane (the timeline must have configureRanks armed) and costs
     * one single-rank parallel pass (rankParallelTransferSeconds)
     * instead of the whole-system parallel rate — the fleet path
     * broadcasts a table once per holding rank, not once per DPU.
     */
    PipelineEvent broadcastAsync(PipelineTimeline& timeline,
                                 double readyAt, uint64_t tableBytes,
                                 int32_t rank = -1);

    /**
     * Scatter variable-size @p slices (serialized on the host lane)
     * starting no earlier than @p readyAt. Copies happen immediately;
     * with a fault plan armed each slice is one retryable transfer
     * leg and a slice whose DPU dies is dropped (check isMasked()
     * afterwards). @return the leg's reservation on the host lane,
     * or on @p rank's transfer lane when @p rank >= 0 (fleet path:
     * the slices must all target DPUs of that rank).
     */
    PipelineEvent scatterAsync(PipelineTimeline& timeline,
                               double readyAt,
                               std::span<const ScatterSlice> slices,
                               int32_t rank = -1);

    /** Gather variable-size @p slices; mirror of scatterAsync. */
    PipelineEvent gatherAsync(PipelineTimeline& timeline,
                              double readyAt,
                              std::span<const GatherSlice> slices,
                              int32_t rank = -1);

    /**
     * Start a wave on DPUs [@p firstDpu, @p endDpu) without blocking.
     * @p makeKernel is called on this thread once per DPU of the
     * range, in DPU order; cores for which it returns a non-empty
     * kernel run it, except cores an earlier failure masked (they are
     * skipped, as in launchAll). The kernels run on the simulation
     * pool while the caller goes on; with a serial pool (or
     * setSimThreads(1)) they run inside commitLaunch instead.
     *
     * Until the commit the caller must not touch what the kernels
     * read or write: the cores' MRAM/WRAM regions they use, their
     * fault states, or their masks.
     */
    LaunchHandle submitLaunch(uint32_t firstDpu, uint32_t endDpu,
                              uint32_t numTasklets,
                              const DpuKernelFactory& makeKernel);

    /**
     * Join a submitted wave: wait for its kernels (rethrowing the
     * first exception one threw), run the failure sweep (see
     * LaunchHandle::report()), and reserve each participating core's
     * modeled cycles on its own lane starting no earlier than
     * @p readyAt. The event spans from the earliest lane start to the
     * latest lane end; with all lanes free at @p readyAt its
     * seconds() is the slowest healthy core's time, like launchAll's
     * return value.
     */
    PipelineEvent commitLaunch(LaunchHandle& launch,
                               PipelineTimeline& timeline,
                               double readyAt);
    /// @}

    /**
     * Accumulated per-direction x per-mode transfer accounting of
     * every broadcast/scatter/gather this system ran.
     */
    const TransferStats& transferStats() const
    {
        return transferStats_;
    }

    /**
     * Launch the same kernel on every simulated DPU. With a fault
     * plan armed, masked (previously failed) cores are skipped and
     * cores that fail during this launch are masked for subsequent
     * work; see lastLaunchReport().
     * @return seconds of the slowest healthy DPU (they run
     * concurrently).
     */
    double launchAll(uint32_t numTasklets, const Kernel& kernel);

    /** Cycles of the slowest DPU in the last launchAll. */
    uint64_t lastMaxCycles() const { return lastMaxCycles_; }

    /** Failure accounting of the last launchAll. */
    const LaunchReport& lastLaunchReport() const { return lastReport_; }

    /// @name Fault injection & resilience (pimsim/fault/fault.h).
    /// @{

    /**
     * Arm @p plan on every core: the plan is copied, per-DPU fault
     * states are created, and all launches/transfers/memory writes
     * consult it until disarmFaults(). Re-arming replaces the active
     * plan and clears all masks. A plan whose specs never fire leaves
     * every modeled statistic bit-identical to no plan at all.
     */
    void armFaults(const fault::FaultPlan& plan);

    /** Detach the armed plan (cores become permanently healthy). */
    void disarmFaults();

    /** The armed plan, or nullptr. */
    const fault::FaultPlan* faultPlan() const;

    /** Retry/degradation knobs consulted while a plan is armed. */
    void setRetryPolicy(const RetryPolicy& policy) { policy_ = policy; }
    const RetryPolicy& retryPolicy() const { return policy_; }

    /** True when @p dpu has been masked out by a failure. */
    bool isMasked(uint32_t dpu) const;

    /** Number of cores not masked out. */
    uint32_t healthyDpus() const;

    /**
     * Moves whenever a core is masked, and when armFaults or
     * disarmFaults resets the masks: a caller caching healthy-core
     * counts recounts only when this changed.
     */
    uint64_t maskEpoch() const { return maskEpoch_.load(); }

    /// @}

    /**
     * Override the simulation parallelism for this system.
     * 0 (default) uses the global ThreadPool (sized by TPL_SIM_THREADS,
     * else hardware concurrency); 1 forces the serial reference path;
     * any value > 1 runs on the global pool. Results are bit-identical
     * either way — this knob exists for debugging and A/B timing.
     */
    void setSimThreads(uint32_t threads) { simThreads_ = threads; }
    uint32_t simThreads() const { return simThreads_; }

    /**
     * Run this system's loops on @p pool instead of the global pool
     * (nullptr restores the global pool). The pool must outlive the
     * system. Used by tests that need guaranteed-threaded execution
     * regardless of the host's core count / TPL_SIM_THREADS.
     */
    void setThreadPool(ThreadPool* pool) { pool_ = pool; }

    /**
     * Modeled seconds a transfer of @p totalBytes takes in parallel
     * mode (same-size buffer per DPU, overlapped across ranks).
     * Returns 0 if the model's bandwidth parameters are non-positive.
     */
    double parallelTransferSeconds(uint64_t totalBytes) const;

    /**
     * Modeled seconds one *rank* takes to stream @p totalBytes in
     * parallel mode: a single rank engages only its own per-rank
     * bandwidth, however many DPUs it carries. The fleet path charges
     * this per holding rank; ranks on distinct channels overlap on
     * the timeline instead of multiplying the rate here.
     */
    double rankParallelTransferSeconds(uint64_t totalBytes) const;

    /**
     * Modeled seconds a transfer of @p totalBytes takes in serial mode
     * (distinct buffer sizes serialize on the host interface).
     * Returns 0 if the model's serial bandwidth is non-positive.
     */
    double serialTransferSeconds(uint64_t totalBytes) const;

    /**
     * Project a per-DPU cycle count measured on the simulated cores to
     * a full system of @p systemDpus cores processing @p totalElements
     * elements, assuming the measured kernel processed
     * @p simulatedElements elements per core (linear in elements, which
     * holds for the streaming element-wise kernels evaluated here).
     * Returns modeled seconds; 0 when any of the divisors
     * (simulatedElementsPerDpu, systemDpus, frequencyHz) is not
     * positive.
     */
    double projectedSystemSeconds(uint64_t perDpuCycles,
                                  uint64_t simulatedElementsPerDpu,
                                  uint64_t totalElements,
                                  uint32_t systemDpus) const;

  private:
    /** Run fn(d) for every DPU index, parallel when profitable. */
    void forEachDpu(const std::function<void(uint32_t)>& fn,
                    uint64_t bytesPerDpu) const;

    /**
     * Account one transfer into @p cell (and, observationally, the
     * obs layer): modeled seconds for @p streamBytes in @p mode,
     * plus @p extraSeconds of fault-retry overhead (0 when no fault
     * fired).
     */
    double accountTransfer(TransferStats::Cell (&cells)[2],
                           const char* direction, TransferMode mode,
                           uint64_t streamBytes,
                           double extraSeconds = 0.0);

    /**
     * accountTransfer with the stream seconds supplied by the caller
     * instead of derived from @p mode — used by the fleet path to
     * charge a broadcast at the single-rank parallel rate.
     */
    double accountTransferSeconds(TransferStats::Cell (&cells)[2],
                                  const char* direction,
                                  TransferMode mode,
                                  uint64_t streamBytes,
                                  double seconds);

    /**
     * One per-DPU leg of a bulk transfer under the armed plan's retry
     * semantics: draws the leg outcome, retries timeouts/detected
     * corruption with capped exponential backoff, masks the DPU when
     * retries are exhausted. @p copy performs the actual bytes;
     * @p corruptTarget/@p corruptSize name the region an undetected
     * corrupt leg flips a bit in. @return extra modeled seconds
     * (backoff + re-streamed bytes) — 0 with no plan armed.
     */
    double transferLeg(uint32_t dpu, uint64_t bytes,
                       const std::function<void()>& copy,
                       uint8_t* corruptTarget, uint64_t corruptSize);

    /** Mark a DPU failed/masked (armed plans only). */
    void maskDpu(uint32_t dpu);

    /**
     * Shared by launchAll and commitLaunch: wait for the wave's
     * kernels (or run them here on a serial pool), then the failure
     * sweep — fence stragglers at the policy's launch timeout
     * (capping their cycles entry), mask newly failed cores and fill
     * the wave's report. The sweep is sequential, so the result is
     * independent of the simulation thread count.
     */
    void joinLaunch(LaunchHandle::State& wave);

    /** Run the @p i-th kernel of @p wave (any thread). */
    void runLaunchIndex(LaunchHandle::State& wave, size_t i);

    CostModel model_;
    std::vector<std::unique_ptr<DpuCore>> dpus_;
    uint64_t lastMaxCycles_ = 0;
    uint32_t simThreads_ = 0;
    ThreadPool* pool_ = nullptr; ///< nullptr = the global pool
    TransferStats transferStats_;
    RetryPolicy policy_;
    LaunchReport lastReport_;
    std::unique_ptr<fault::SystemFaultState> faults_;
    std::atomic<uint64_t> maskEpoch_{0};
};

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_SYSTEM_H
