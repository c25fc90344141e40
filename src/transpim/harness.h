/**
 * @file
 * Microbenchmark harness: runs a FunctionEvaluator over an input array
 * on a simulated PIM core and reports the four metrics of the paper's
 * Section 4.2 - accuracy (RMSE / max error / ULP against the host
 * libm), execution cycles per element, host setup time, and memory
 * consumption.
 *
 * The kernel follows the paper's microbenchmark structure: the input
 * array lives in the PIM core's DRAM bank, tasklets stream chunks into
 * the scratchpad, evaluate every element, and write results back.
 */

#ifndef TPL_TRANSPIM_HARNESS_H
#define TPL_TRANSPIM_HARNESS_H

#include <optional>
#include <vector>

#include "common/error_metrics.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/system.h"
#include "transpim/evaluator.h"
#include "transpim/serve_glue.h"

namespace tpl {
namespace transpim {

/** Everything the paper's Figures 5-7 need, for one configuration. */
struct MicrobenchResult
{
    Function function;
    MethodSpec spec;
    ErrorStats error;            ///< vs. host libm (float reference)
    double cyclesPerElement = 0; ///< modeled DPU cycles / element
    double instructionsPerElement = 0;
    uint32_t memoryBytes = 0;    ///< tables on the PIM core (Figure 7)
    double setupSeconds = 0;     ///< host generation + transfer model
    double hostGenSeconds = 0;   ///< host generation only
    double transferSeconds = 0;  ///< modeled table transfer
    bool feasible = true;        ///< false if tables did not fit
    uint32_t elements = 0;
    uint32_t tasklets = 0;

    /** Full launch statistics of the kernel, including the per-
     * InstrClass cycle attribution and per-tasklet breakdown the obs
     * layer / pimtrace profile consume. */
    sim::LaunchStats launch;
};

/** Harness options. */
struct MicrobenchOptions
{
    uint32_t elements = 1u << 14; ///< paper uses 2^16
    uint32_t tasklets = 16;
    uint64_t seed = 0x7ea9c0de;
};

/**
 * Run one (function, method) microbenchmark on a fresh simulated DPU.
 * Infeasible configurations (tables exceeding WRAM/MRAM) return with
 * feasible = false instead of throwing.
 */
MicrobenchResult runMicrobench(Function f, const MethodSpec& spec,
                               const MicrobenchOptions& opts = {});

/**
 * Options for the batched harness: a stream of same-configuration
 * requests served through the pimserve pipeline on a fresh system,
 * optionally with a fault plan armed. Defaults produce a >= 5-wave
 * L-LUT sweep over 64 DPUs (the acceptance configuration of the
 * pipelined speedup over the no-overlap baseline). One request with
 * perDpuElements = ceil(elementsPerRequest / dpus) is one wave over
 * every core when no fault fires: the resilient run pimfault replays.
 */
struct BatchedOptions
{
    uint32_t dpus = 64;
    uint32_t tasklets = 16;
    /** Per-DPU slice capacity; one wave is dpus * this elements. */
    uint32_t perDpuElements = 512;
    uint32_t requests = 5;
    uint32_t elementsPerRequest = 1u << 15;
    uint64_t seed = 0x7ea9c0de;
    /** Fault plan armed on the system before serving, when set. */
    std::optional<sim::fault::FaultPlan> plan;
    /** Simulation threads override (0 = global default). */
    uint32_t simThreads = 0;
};

/**
 * Degraded-result acceptance factor: a run is within bound when it
 * completed and its RMSE <= max(predictRmse * this, 1e-6). The error
 * model is a scaling law verified within a factor of ~4-6
 * (tests/error_model_test.cc), so 10 leaves headroom without masking
 * corrupted outputs, which are orders of magnitude off.
 */
constexpr double kErrorBoundFactor = 10.0;

/** Outcome of one batched run. The speedup over the no-overlap
 * baseline is report.speedup(); waves, failed DPUs, re-sharded
 * elements and completeness are in the report too. */
struct BatchedResult
{
    /** false: no valid binding for the config (unsupported, tables
     * too big), or the per-DPU wave buffers do not fit in MRAM. */
    bool feasible = true;
    sim::serve::ServeReport report;
    /** Every served output equals, bit for bit, a host-side
     * FunctionEvaluator::evalBatch of the same configuration. */
    bool outputsMatch = false;
    double cyclesPerElement = 0.0; ///< compute cycles only
    ErrorStats error;              ///< vs. host libm, all elements
    double predictedRmse = 0.0;    ///< error_model scaling-law bound
    /** report.complete and error.rmse within kErrorBoundFactor x
     * predictedRmse. */
    bool withinErrorBound = false;
    uint32_t healthyDpus = 0; ///< cores not masked after the run
};

/**
 * Serve a burst of identical-configuration requests through the
 * pimserve pipeline on a fresh system, with the fault plan (if any)
 * armed: failed cores are masked and their slices re-sharded onto
 * the survivors in retry waves. Checks the outputs against the host
 * evaluator and against host libm within the analytic error bound.
 * Tests use it to pin the pipeline's accounting identities, fault
 * handling and thread-count determinism; pimfault replays plans
 * through it.
 */
BatchedResult runBatchedThroughput(Function f, const MethodSpec& spec,
                                   const BatchedOptions& opts = {});

/**
 * Accuracy-only evaluation on the host (no DPU, no cycle model):
 * used by tests and for quick table-size sweeps.
 */
ErrorStats evaluateAccuracy(const FunctionEvaluator& eval,
                            const std::vector<float>& inputs);

/** Reference outputs (host libm in double, rounded to float). */
std::vector<float> referenceOutputs(Function f,
                                    const std::vector<float>& inputs);

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_HARNESS_H
