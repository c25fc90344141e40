/**
 * @file
 * pimserve piece 4: the online per-tenant auto-tuner seam.
 *
 * The static tuner (transpim/tuner.h) answers "which configuration
 * would be cheapest for this accuracy target" offline; this interface
 * closes the loop at serve time. The pipeline consults an AutoTuner
 * on every generation-0 wave it pops: route() may rewrite the wave's
 * TableKey to a cheaper configuration that still meets the owning
 * tenant's SLA, and observe() feeds back what actually happened —
 * exact differential error over the gathered outputs plus the
 * modeled cycles the wave cost — so decisions track observed
 * behavior, not just offline predictions.
 *
 * The serve layer stays generic: this header knows nothing about
 * evaluators or methods. The concrete tuner that generates candidate
 * configurations from the transpim catalog lives in
 * transpim/auto_tuner.h, mirroring the TableProvider /
 * EvaluatorCatalog split.
 *
 * Determinism contract: route() and observe() are called from the
 * pipeline's consumer thread only, in wave order, with inputs that
 * are pure functions of the workload (modeled cycles, gathered
 * output bytes). An implementation that derives decisions only from
 * those inputs is bit-identical at any TPL_SIM_THREADS — locked by
 * test, like the rest of the serve layer.
 */

#ifndef TPL_PIMSIM_SERVE_AUTO_TUNER_H
#define TPL_PIMSIM_SERVE_AUTO_TUNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "pimsim/serve/batch_queue.h"

namespace tpl {
namespace sim {
namespace serve {

class TableCache;

/**
 * One tenant's service-level agreement, mirroring the SloSpec grammar
 * (docs/autotuner.md has the EBNF). Clauses are ';'-separated, each
 * `<knob> ('<'|':') <value>`:
 *
 *     rmse<1e-6                 observed RMSE bound
 *     ulp<8                     observed max-ULP bound
 *     cycles<450                mean modeled DPU cycles per element
 *     cycles:p99<600            per-wave cycles/element percentile
 *
 * Unset clauses (value 0) are unconstrained. A tenant with no SLA at
 * all is never re-routed — the tuner passes its requests through.
 */
struct TenantSla
{
    /** Observed-RMSE bound; 0 = unconstrained. The metric (absolute
     * or relative) follows the function, exactly like the static
     * tuner's ErrorMetric::Auto. */
    double maxRmse = 0.0;

    /** Observed max-ULP bound; 0 = unconstrained. */
    double maxUlp = 0.0;

    /** Modeled DPU cycles per element bound; 0 = unconstrained. */
    double maxCyclesPerElement = 0.0;

    /** Percentile (in (0, 100)) the cycles clause applies to over a
     * stream's per-wave cycles/element; 0 = the mean. */
    double cyclesPercentile = 0.0;

    /** Parse the grammar above; false (out untouched) on malformed
     * input or an empty clause list. */
    static bool parse(const std::string& text, TenantSla& out);

    /** Canonical text form (round-trips through parse). */
    std::string toText() const;

    /** True iff any clause is set. */
    bool
    constrained() const
    {
        return maxRmse > 0.0 || maxUlp > 0.0 ||
               maxCyclesPerElement > 0.0;
    }
};

/** One trace-visible tuner decision (also journaled as a `tune`
 * event on the first wave it redirects). */
struct TuneDecision
{
    uint64_t sequence = 0; ///< decision order within the run
    uint64_t tenant = 0;
    std::string stream; ///< requested table label (stream identity)
    std::string fromTable;
    std::string toTable;
    /** Why: "explore" | "commit" | "sla-miss" | "budget" | "evict". */
    std::string reason;
};

/**
 * What one executed wave cost and produced, fed to observe() after
 * the wave's gather. Spans cover only healthy gathered ranges, so
 * differential error is measured on real outputs — retried slices
 * are observed by the retry wave that eventually serves them.
 */
struct WaveOutcome
{
    TableKey table; ///< the configuration that actually ran
    uint64_t tenant = 0;
    uint64_t waveIndex = 0;
    uint64_t elements = 0;    ///< elements the wave carried
    uint64_t totalCycles = 0; ///< summed per-DPU modeled cycles

    /** One healthy gathered range: @p elements inputs at @p input
     * produced @p elements outputs at @p output. */
    struct Span
    {
        const float* input = nullptr;
        const float* output = nullptr;
        uint64_t elements = 0;
    };
    std::vector<Span> spans;
};

/**
 * The routing hook PipelineOptions::autoTuner points at.
 * ServePipeline calls it the same way on a flat system and on a
 * fleet: bindCache() once per run, route() on every generation-0 wave
 * popped from the queue (retries keep their routed table), and
 * observe() after every wave's gather. Wave N+1 is routed before
 * wave N is observed — a deliberate one-wave decision lag that keeps
 * the two-deep schedule intact (docs/autotuner.md).
 */
class AutoTuner
{
  public:
    virtual ~AutoTuner();

    /** route() result: the table the wave should run with. */
    struct Routing
    {
        TableKey table;
        /** The stream's chosen table changed with this call (first
         * redirect, exploration advance, commit, SLA miss). The
         * pipeline journals a `tune` event on the wave. */
        bool switched = false;
        std::string note; ///< journal note when switched
    };

    /** Pick the configuration a (requested, tenant) wave runs with.
     * Must be pure in the observed stream state (deterministic). */
    virtual Routing route(const TableKey& requested,
                          uint64_t tenant) = 0;

    /** Feed back one executed wave's exact outputs and modeled
     * cost. */
    virtual void observe(const WaveOutcome& outcome) = 0;

    /** Called once at the start of each pipeline run with the run's
     * TableCache, enabling eviction / residency coordination for
     * MRAM-budget arbitration. Default: ignore. */
    virtual void
    bindCache(TableCache* cache)
    {
        (void)cache;
    }

    /** Every decision taken so far, in sequence order. */
    virtual std::vector<TuneDecision> decisions() const = 0;
};

} // namespace serve
} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_SERVE_AUTO_TUNER_H
