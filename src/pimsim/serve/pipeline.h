/**
 * @file
 * pimserve piece 3: the double-buffered execution pipeline.
 *
 * Pops waves off a BatchQueue and drives them through scatter ->
 * launch -> gather on a PimSystem, with every wave's modeled cost
 * reserved on a PipelineTimeline instead of summed sequentially: the
 * transfer lane streams the scatter of wave N+1 and the gather
 * of wave N-1 while the DPU lanes compute wave N. Per-DPU MRAM
 * buffers are double-buffered (parity = wave index mod 2), so a
 * wave's scatter only waits for the compute two waves back that last
 * read its buffer — the classic ping-pong schedule of the UPMEM
 * async API.
 *
 * The same drive loop serves a flat system and a multi-rank fleet
 * (PipelineOptions::topology, see pimsim/topology.h): each wave is
 * placed on one lane group — the whole system on its one transfer
 * lane, or one rank on its own — and every group runs its own
 * two-deep pipeline. On a fleet, lanes of ranks on distinct memory
 * channels overlap, so the fleet makespan is the max over the rank
 * timelines; placement balances hot tables through per-rank
 * TableCache residency, and a table is broadcast once per holding
 * rank, never once per DPU.
 *
 * Degradation composes with pimfault: a DPU masked mid-pipeline
 * (dead transfer leg, hard launch failure, fenced straggler) fails
 * exactly the slices it owned; those elements are re-queued as a
 * retry wave over the surviving cores (on a fleet, any healthy rank),
 * at most six times per wave — the pipeline degrades or reports
 * incomplete, it never deadlocks.
 *
 * The no-overlap baseline is pure accounting: every wave adds
 * its broadcast, scatter, compute and gather durations to
 * ServeReport::syncSeconds — the makespan of the blocking
 * transfer->launch->gather round trip, since leg durations do not
 * depend on when a leg is issued — and ServeReport::speedup() and
 * overlapFraction() compare it with the pipelined makespan.
 *
 * The simulator itself pipelines in wall time the same way: each
 * wave's kernels run on the simulation pool while the consumer thread
 * finishes the previous wave and begins the next, and waves commit in
 * order — so every result is bit-identical to the serial reference
 * (TPL_SIM_THREADS=1). See docs/serve.md, "Execution model".
 */

#ifndef TPL_PIMSIM_SERVE_PIPELINE_H
#define TPL_PIMSIM_SERVE_PIPELINE_H

#include <cstdint>
#include <vector>

#include "pimsim/serve/batch_queue.h"
#include "pimsim/serve/table_cache.h"
#include "pimsim/system.h"
#include "pimsim/topology.h"

namespace tpl {
namespace sim {
namespace serve {

class AutoTuner;

/** Pipeline knobs. */
struct PipelineOptions
{
    /** Tasklets per DPU kernel launch. */
    uint32_t numTasklets = 16;

    /**
     * Element capacity of one per-DPU wave slice; a wave batches at
     * most perDpuElements * healthyDpus elements. Each DPU holds two
     * input and two output MRAM buffers of this many floats; run()
     * throws std::bad_alloc when they do not fit in MRAM.
     */
    uint32_t perDpuElements = 512;

    /**
     * Request journal (kill switch: nullptr, the default). When set,
     * the pipeline stamps per-request causal events (coalesce /
     * scatter / compute / gather / done / drop) and a fully-decomposed
     * RequestLatency per request, all in modeled time read off the
     * PipelineTimeline — bit-identical at any thread count and
     * statistics-neutral (the modeled schedule never consults it).
     * The caller keeps the journal alive for the run. Pair with
     * BatchQueue::setJournal to also capture enqueue events.
     */
    obs::Journal* journal = nullptr;

    /**
     * Fleet topology (kill switch: nullptr, the default, keeps the
     * flat single-system schedule bit-for-bit at any thread count).
     * When set, valid, and describing exactly the system's DPU
     * count, run() places each wave on one rank: transfers ride
     * per-rank lanes that overlap across memory channels, tables are
     * broadcast once per holding rank, and ServeReport::rankStats is
     * filled. A topology whose numDpus() does not match the system
     * falls back to the flat path. With Topology{1, 1, N} and
     * N <= CostModel::dpusPerRank the run reproduces the flat modeled
     * numbers exactly; a larger flat system's broadcasts engage
     * N / dpusPerRank model ranks, a rank's only one. The caller
     * keeps the object alive for the pipeline's lifetime.
     */
    const Topology* topology = nullptr;

    /**
     * Online per-tenant auto-tuner (kill switch: nullptr, the
     * default, keeps the untuned path bit-identical — including
     * journal bytes — at any TPL_SIM_THREADS, like topology before
     * it; locked by test). When set, the pipeline routes every
     * generation-0 wave (flat or fleet) through
     * AutoTuner::route() — which may rewrite the wave's table to a
     * cheaper configuration meeting the owning tenant's SLA — and
     * feeds AutoTuner::observe() each wave's exact gathered outputs
     * and modeled cycles after its gather. Switched waves journal a
     * `tune` event. The caller keeps the tuner alive for the run;
     * the tuner is stateful, so use a fresh instance per replay.
     */
    AutoTuner* autoTuner = nullptr;
};

/** Modeled timing of one executed wave. */
struct WaveStats
{
    uint64_t elements = 0;
    uint32_t slices = 0;       ///< DPUs that received a slice
    bool tableMiss = false;    ///< paid a table broadcast
    double broadcastSeconds = 0.0;
    double scatterSeconds = 0.0;
    double computeSeconds = 0.0; ///< slowest healthy core
    double gatherSeconds = 0.0;
    uint64_t maxCycles = 0;    ///< slowest healthy core, cycles
    /** Sum of every participating DPU's cycles (what the tuner
     * charges a configuration with, fleet-wide work not makespan). */
    uint64_t totalCycles = 0;
    uint32_t retriedSlices = 0; ///< slices lost to masked cores
    /** Upper median of the participating DPUs' cycle counts. */
    uint64_t medianCycles = 0;
    /** DPUs whose cycles exceeded 4 × medianCycles (the straggler
     * threshold; waves with fewer than two slices or a zero median
     * are never flagged); nonzero iff the wave was flagged
     * anomalous. */
    uint32_t stragglerDpus = 0;
};

/** Per-rank slice of a fleet run (ServeReport::rankStats; filled
 * only on the topology path). */
struct RankStats
{
    uint32_t rank = 0;
    uint64_t waves = 0;    ///< waves executed on this rank
    uint64_t elements = 0; ///< elements those waves carried
    uint64_t computeCycles = 0; ///< sum of per-wave max cycles
    /** Latest completion on the rank's lanes (transfer + DPU);
     * the fleet makespan is the max of these. */
    double makespanSeconds = 0.0;
    uint64_t residentTables = 0; ///< distinct tables held at run end
    uint64_t broadcasts = 0; ///< single-rank table broadcasts paid
};

/** Outcome of one ServePipeline::run. */
struct ServeReport
{
    bool complete = false;   ///< every admitted element produced output
    uint64_t requests = 0;   ///< requests fully consumed
    uint64_t elements = 0;   ///< elements admitted into waves
    uint64_t waves = 0;      ///< executed waves (retries included)
    uint64_t cacheHits = 0;  ///< table-cache hits
    uint64_t cacheMisses = 0;
    uint64_t infeasibleElements = 0; ///< dropped: no valid binding
    uint64_t droppedElements = 0; ///< dropped: retry budget/no cores
    double modeledSeconds = 0.0; ///< pipeline timeline makespan
    /** Sum of every wave's leg durations: the makespan of the same
     * legs issued back to back, with no overlap. */
    double syncSeconds = 0.0;
    std::vector<uint32_t> failedDpus; ///< cores masked during the run
    uint64_t reshardedElements = 0; ///< elements re-queued off them
    uint64_t computeCycles = 0; ///< sum of per-wave max cycles
    /** Waves flagged by the straggler detector (see
     * WaveStats::stragglerDpus). */
    uint64_t anomalousWaves = 0;
    std::vector<WaveStats> waveStats;
    /** Per-rank accounting; empty on the flat (topology == nullptr)
     * path. */
    std::vector<RankStats> rankStats;

    /** Fraction of the no-overlap time (syncSeconds) hidden by
     * overlap. */
    double
    overlapFraction() const
    {
        return syncSeconds > 0.0 ? 1.0 - modeledSeconds / syncSeconds
                                 : 0.0;
    }

    /** No-overlap time (syncSeconds) over the pipelined makespan. */
    double
    speedup() const
    {
        return modeledSeconds > 0.0 ? syncSeconds / modeledSeconds
                                    : 0.0;
    }

    /** Sustained modeled throughput of the run. */
    double
    elementsPerSecond() const
    {
        return modeledSeconds > 0.0
                   ? static_cast<double>(elements) / modeledSeconds
                   : 0.0;
    }
};

/**
 * The wave executor. Construct once per PimSystem and run it once;
 * run() consumes a queue until it is closed and drained. The queue
 * must eventually be closed (by the producers or the caller),
 * otherwise run() waits for more requests indefinitely — that is the
 * queue contract, not a pipeline stall: every admitted wave always
 * completes or degrades.
 */
class ServePipeline
{
  public:
    ServePipeline(PimSystem& system, TableProvider provider,
                  const PipelineOptions& options = {});

    /** Serve every request in @p queue; blocks the calling thread.
     * Throws std::bad_alloc, before serving anything, when the
     * per-DPU double buffers (PipelineOptions::perDpuElements) do
     * not fit in MRAM. An exception from a kernel, the provider or
     * the tuner propagates once no kernel of the run is executing. */
    ServeReport run(BatchQueue& queue);

    const TableCache& cache() const { return cache_; }
    const PipelineOptions& options() const { return opts_; }

  private:
    PimSystem& sys_;
    TableCache cache_;
    PipelineOptions opts_;
};

} // namespace serve
} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_SERVE_PIPELINE_H
