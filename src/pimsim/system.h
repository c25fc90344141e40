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
 * same size, and serialize otherwise (CostModel's transfer rates). Every
 * host<->DPU transfer is a leg reserved on a transfer lane of a
 * PipelineTimeline: a table broadcast streams at the parallel rate of
 * the model ranks its lane engages, and the variable-size scatter and
 * gather slices serialize.
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
#include "pimsim/topology.h"

namespace tpl {
namespace sim {

class ThreadPool;

namespace fault {
class SystemFaultState; // system.cc (plan copy + per-DPU states)
} // namespace fault

/**
 * Per-direction transfer accounting. Each direction has one fixed
 * mode: a broadcast streams in parallel, scatter and gather slices
 * serialize. The cells mirror the registry's counters under
 * `pimsim/host/<direction>/<mode>/` (transfers, bytes,
 * modeled_seconds) and sum to the totals (locked by a unit test).
 */
struct TransferStats
{
    struct Cell
    {
        uint64_t transfers = 0; ///< legs accounted in this cell
        uint64_t bytes = 0;     ///< modeled stream bytes
        double seconds = 0.0;   ///< modeled transfer seconds
    };

    Cell broadcast; ///< parallel
    Cell scatter;   ///< serial
    Cell gather;    ///< serial

    /** Sum of every cell's modeled seconds. */
    double
    totalSeconds() const
    {
        return broadcast.seconds + scatter.seconds + gather.seconds;
    }

    /** Sum of every cell's modeled stream bytes. */
    uint64_t
    totalBytes() const
    {
        return broadcast.bytes + scatter.bytes + gather.bytes;
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
 * What happened in one launch: which cores ran, which were
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

/**
 * Builds the kernel evaluating one slice (SPMD body per tasklet).
 * PimSystem::submitLaunch calls it on the simulation pool's threads,
 * concurrently for different slices, so it must be thread-safe. It
 * must return a non-empty kernel. The slice it is handed is an element
 * of the submitted span, so the kernel may keep a reference to it: the
 * kernel is destroyed before the wave's commit returns.
 */
using ShardKernelFactory = std::function<Kernel(const ShardTask&)>;

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

/**
 * Modeled-time resource timeline for pipelined (double-buffered)
 * execution: one compute lane per DPU plus transfer lanes, each
 * carrying the host transfers of a contiguous DPU range. A
 * reservation starts when both its dependency (@p readyAt) and the
 * lane are free — exactly the rank-level overlap the UPMEM async API
 * exposes, where the host can stream wave N+1 while the DPUs compute
 * wave N.
 *
 * A flat system is one transfer lane over all its DPUs; a fleet has
 * one per rank. Every transfer lane also rides a memory channel:
 * lanes on distinct channels overlap, lanes sharing one serialize.
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
    /**
     * A flat timeline: @p numDpus compute lanes and one transfer lane
     * over all of them, whose parallel legs engage
     * model.ranksEngaged(numDpus) model ranks.
     */
    PipelineTimeline(uint32_t numDpus, const CostModel& model)
        : PipelineTimeline(numDpus, std::max(numDpus, 1u),
                           model.ranksEngaged(numDpus), {0})
    {
    }

    /**
     * A fleet timeline over @p topo's DPUs: one transfer lane per
     * rank, engaging one model rank each, on its DIMM's memory
     * channel (Topology::channelOfRank).
     */
    explicit PipelineTimeline(const Topology& topo)
        : PipelineTimeline(topo.numDpus(), topo.dpusPerRank, 1,
                           topo.channelMap())
    {
    }

    /** Number of transfer lanes. */
    uint32_t laneCount() const
    {
        return static_cast<uint32_t>(laneEnd_.size());
    }

    /** DPUs per transfer lane: lane l carries DPUs
     * [l * dpusPerLane(), (l + 1) * dpusPerLane()). */
    uint32_t dpusPerLane() const { return dpusPerLane_; }

    /** Model ranks a parallel leg on any lane engages. */
    uint32_t laneRanks() const { return laneRanks_; }

    /** When @p lane (and its channel) next frees up. */
    double
    laneFree(uint32_t lane) const
    {
        return std::max(laneEnd_[lane], channelEnd_[channelOfLane_[lane]]);
    }

    /**
     * Occupy @p lane and its channel for @p seconds starting no
     * earlier than @p readyAt. @return the reserved leg.
     */
    PipelineEvent
    reserveLane(uint32_t lane, double readyAt, double seconds)
    {
        const double start = std::max(readyAt, laneFree(lane));
        const double end = start + seconds;
        laneEnd_[lane] = end;
        channelEnd_[channelOfLane_[lane]] = end;
        laneMakespan_[lane] = std::max(laneMakespan_[lane], end);
        makespan_ = std::max(makespan_, end);
        return {start, end};
    }

    /**
     * Latest completion of any reservation attributed to @p lane:
     * its transfer legs plus the compute lanes of its DPUs.
     */
    double laneMakespan(uint32_t lane) const
    {
        return laneMakespan_[lane];
    }

    /** When @p dpu's compute lane next becomes idle. */
    double dpuFree(uint32_t dpu) const { return dpus_[dpu]; }

    /** Occupy @p dpu's compute lane; see reserveLane. @return the
     * completion time. */
    double
    reserveDpu(uint32_t dpu, double readyAt, double seconds)
    {
        double start = std::max(readyAt, dpus_[dpu]);
        dpus_[dpu] = start + seconds;
        makespan_ = std::max(makespan_, dpus_[dpu]);
        const uint32_t lane = dpu / dpusPerLane_;
        if (lane < laneMakespan_.size())
            laneMakespan_[lane] =
                std::max(laneMakespan_[lane], dpus_[dpu]);
        return dpus_[dpu];
    }

    /** Latest completion time of any reservation so far. */
    double makespan() const { return makespan_; }

  private:
    PipelineTimeline(uint32_t numDpus, uint32_t dpusPerLane,
                     uint32_t laneRanks,
                     std::vector<uint32_t> channelOfLane)
        : dpus_(numDpus, 0.0), dpusPerLane_(dpusPerLane),
          laneRanks_(laneRanks),
          channelOfLane_(std::move(channelOfLane)),
          laneEnd_(channelOfLane_.size(), 0.0),
          laneMakespan_(channelOfLane_.size(), 0.0)
    {
        uint32_t channels = 0;
        for (uint32_t c : channelOfLane_)
            channels = std::max(channels, c + 1);
        channelEnd_.assign(channels, 0.0);
    }

    std::vector<double> dpus_;
    double makespan_ = 0.0;
    uint32_t dpusPerLane_;
    uint32_t laneRanks_;
    std::vector<uint32_t> channelOfLane_;
    std::vector<double> laneEnd_;
    std::vector<double> channelEnd_;
    std::vector<double> laneMakespan_;
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

    /**
     * Per-slice cycles of the committed wave, aligned with the
     * submitted slices (0 for a slice whose core was masked; straggler
     * entries already fenced at the policy's launch timeout). Filled
     * by the sequential failure sweep, so deterministic at any thread
     * count.
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

/**
 * A set of simulated DPUs plus the host-side runtime.
 *
 * The number of *simulated* cores is deliberately decoupled from the
 * number of cores of the *modeled* machine: microbenchmarks simulate a
 * single DPU (as in the paper), while the workload experiments simulate
 * a handful of DPUs executing their exact per-core element share and
 * project to the full 2545-DPU system (see work::projectPimSeconds).
 *
 * Time domains: every `double` this class returns is **modeled time**
 * (seconds of the modeled PIM machine, derived from cycle counts and
 * bandwidth parameters of the CostModel), never host wall-clock time.
 * The only wall-clock measurement in the stack is the host-side table
 * generation (FunctionEvaluator::setupSeconds) and the CPU baselines
 * (work::timeCpuBaseline).
 *
 * Parallel simulation: launchAll and submitLaunch execute across DPUs
 * on the process-wide ThreadPool. Each DpuCore is fully
 * self-contained (its own MRAM/WRAM arrays,
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

    /// @name Pipelined legs.
    ///
    /// Every host<->DPU transfer is a leg on one transfer lane of a
    /// caller-owned PipelineTimeline (a flat timeline has the one
    /// lane 0); a kernel wave runs in the background between
    /// submitLaunch and commitLaunch and occupies each DPU's own
    /// compute lane. Transfer legs move their data immediately in
    /// wall time. Passing the completion time of a leg as another
    /// leg's @p readyAt expresses the data dependency; the timeline's
    /// makespan is then the end-to-end modeled time of the overlapped
    /// schedule. Every transfer leg is accounted in transferStats()
    /// and in the registry under `pimsim/host/<direction>/<mode>/`.
    /// @{

    /**
     * Account a parallel broadcast of @p tableBytes on @p lane,
     * timing only: the broadcast data itself must already have been
     * staged through direct core writes (e.g. an evaluator's
     * attach()). The leg streams at the parallel rate of the model
     * ranks the lane engages (PipelineTimeline::laneRanks). Used by
     * the serve layer to model LUT distribution on a cache miss.
     */
    PipelineEvent broadcastAsync(PipelineTimeline& timeline,
                                 uint32_t lane, double readyAt,
                                 uint64_t tableBytes);

    /**
     * Scatter variable-size @p slices, serialized on @p lane, starting
     * no earlier than @p readyAt. Copies happen immediately; with a
     * fault plan armed each slice is one retryable transfer leg
     * (capped exponential backoff, see RetryPolicy) and a slice whose
     * DPU dies is dropped (check isMasked() afterwards).
     */
    PipelineEvent scatterAsync(PipelineTimeline& timeline,
                               uint32_t lane, double readyAt,
                               std::span<const ScatterSlice> slices);

    /** Gather variable-size @p slices; mirror of scatterAsync. */
    PipelineEvent gatherAsync(PipelineTimeline& timeline,
                              uint32_t lane, double readyAt,
                              std::span<const GatherSlice> slices);

    /**
     * Start a wave over @p slices (at most one per DPU) without
     * blocking. Slices whose core an earlier failure masked are
     * skipped here, as in launchAll; every other slice becomes one
     * pool task that calls @p makeKernel for it, launches the kernel
     * on the slice's core and destroys it, all on the same thread.
     * The tasks run on the simulation pool while the caller goes on;
     * with a serial pool (or setSimThreads(1)) they run inside
     * commitLaunch instead. An exception from the factory or a kernel
     * surfaces at the commit.
     *
     * @p slices and @p makeKernel are referenced, not copied: both
     * must outlive the commit (or the handle). Until then the caller
     * must not touch what the kernels read or write: the cores'
     * MRAM/WRAM regions they use, their fault states, or their masks.
     */
    LaunchHandle submitLaunch(std::span<const ShardTask> slices,
                              uint32_t numTasklets,
                              const ShardKernelFactory& makeKernel);

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

    /** Accumulated per-direction transfer accounting of every
     * broadcast/scatter/gather leg this system ran. */
    const TransferStats& transferStats() const
    {
        return transferStats_;
    }

    /**
     * Launch the same kernel on every simulated DPU. Every core runs
     * @p kernel itself, not a copy, concurrently on the simulation
     * pool, so calling it must be thread-safe. With a fault plan
     * armed, masked (previously failed) cores are skipped and cores
     * that fail during this launch are masked for subsequent work.
     * @return the launch's report: its maxCycles is the slowest
     * healthy DPU's (they run concurrently), so the launch takes
     * maxCycles / model().frequencyHz seconds.
     */
    LaunchReport launchAll(uint32_t numTasklets, const Kernel& kernel);

    /// @name Fault injection & resilience (pimsim/fault/fault.h).
    /// @{

    /**
     * Arm @p plan on every core: the plan is copied, per-DPU fault
     * states are created, and all launches/transfers/memory writes
     * consult it for the system's lifetime. Re-arming replaces the
     * active plan and clears all masks. A plan whose specs never fire leaves
     * every modeled statistic bit-identical to no plan at all.
     */
    void armFaults(const fault::FaultPlan& plan);

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
     * Moves whenever a core is masked, and when armFaults resets the
     * masks: a caller caching healthy-core
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

  private:
    /**
     * The one reservation helper of the transfer legs: account
     * @p streamBytes and @p seconds into @p cell and the registry's
     * counters under `pimsim/host/<@p cellName>/`, then reserve the
     * leg on @p lane.
     */
    PipelineEvent reserveTransfer(PipelineTimeline& timeline,
                                  uint32_t lane, double readyAt,
                                  TransferStats::Cell& cell,
                                  const char* cellName,
                                  uint64_t streamBytes, double seconds);

    /**
     * One per-DPU leg of a transfer under the armed plan's retry
     * semantics: draws the leg outcome, retries timeouts/detected
     * corruption with capped exponential backoff, masks the DPU when
     * retries are exhausted. @p copy performs the actual bytes;
     * @p corruptTarget/@p corruptSize name the region an undetected
     * corrupt leg flips a bit in. @return extra modeled seconds
     * (backoff + re-streamed bytes) — 0 with no plan armed.
     */
    template <typename Copy>
    double transferLeg(uint32_t dpu, uint64_t bytes, const Copy& copy,
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

    /** Build and run the @p i-th kernel of @p wave (any thread). */
    void runLaunchIndex(LaunchHandle::State& wave, size_t i);

    CostModel model_;
    std::vector<std::unique_ptr<DpuCore>> dpus_;
    uint32_t simThreads_ = 0;
    ThreadPool* pool_ = nullptr; ///< nullptr = the global pool
    TransferStats transferStats_;
    RetryPolicy policy_;
    std::unique_ptr<fault::SystemFaultState> faults_;
    std::atomic<uint64_t> maskEpoch_{0};
};

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_SYSTEM_H
