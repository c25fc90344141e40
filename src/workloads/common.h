/**
 * @file
 * Shared workload infrastructure: run configuration, result records,
 * CPU baseline timing, and full-system projection.
 *
 * Methodology (documented in EXPERIMENTS.md): PIM variants simulate a
 * small number of DPUs executing their exact per-core element share and
 * project the cycle counts to the paper's 2545-DPU system; CPU
 * baselines run real code on the host (timed over a subset and scaled
 * linearly). When the host machine has fewer cores than the configured
 * CPU thread count, the multithreaded baseline falls back to a
 * documented scaling model instead of a meaningless oversubscribed
 * measurement.
 */

#ifndef TPL_WORKLOADS_COMMON_H
#define TPL_WORKLOADS_COMMON_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pimsim/system.h"

namespace tpl {
namespace work {

/** Configuration of one workload experiment. */
struct WorkloadConfig
{
    /** Total elements of the modeled problem (paper: 10M / 30M). */
    uint64_t totalElements = 10'000'000;

    /** Elements each *simulated* DPU actually executes. */
    uint32_t elementsPerSimDpu = 1u << 12;

    /** Number of DPUs actually simulated. */
    uint32_t simulatedDpus = 2;

    /** DPUs of the modeled machine (paper: 2545). */
    uint32_t systemDpus = 2545;

    /** Tasklets per DPU (paper: 16). */
    uint32_t tasklets = 16;

    /** CPU baseline thread count (paper: 32). */
    uint32_t cpuThreads = 32;

    /** Elements the CPU baseline actually times (scaled up linearly). */
    uint64_t cpuSampleElements = 2'000'000;

    /**
     * Parallel efficiency assumed for the multithreaded CPU baseline
     * when the host cannot actually run that many cores (memory-bound
     * streaming workloads on a 2-socket Xeon scale at ~60-75%).
     */
    double cpuParallelEfficiency = 0.7;

    /** LUT budget for LUT-based PIM variants. */
    uint32_t log2Entries = 12;

    /** Polynomial degree for the poly PIM baseline. */
    uint32_t polyDegree = 11;

    /** Input range for the activation workloads (sigmoid/softmax). */
    float inputLo = -8.0f;
    float inputHi = 8.0f;

    /**
     * Softmax: subtract the global maximum before exponentiating
     * (numerically stable for wide input ranges, at the price of one
     * extra reduction pass through the host).
     */
    bool stableSoftmax = false;

    uint64_t seed = 0xb1ac5c01e5;
};

/** One row of the paper's Figure 9. */
struct WorkloadResult
{
    std::string workload;  ///< "Blackscholes" / "Sigmoid" / "Softmax"
    std::string variant;   ///< "CPU 1T", "PIM L-LUT interp.", ...
    double seconds = 0;    ///< end-to-end execution time
    double pimKernelSeconds = 0;
    double hostToPimSeconds = 0;
    double pimToHostSeconds = 0;
    double setupSeconds = 0;
    double maxAbsError = 0; ///< vs double-precision reference
    double rmse = 0;
    uint64_t elements = 0;
};

/**
 * Time @p body(begin, end) over a sample of @p cfg.cpuSampleElements
 * elements split across @p threads threads, and scale the measurement
 * to the full problem size.
 *
 * Units: the measurement itself is host **wall-clock** time (this is
 * the one real-hardware number in a workload row — the CPU baseline
 * the PIM projection is compared against); the return value is that
 * measurement linearly scaled to the full problem. The chunks run on
 * the persistent simulator ThreadPool, so no thread spawn/join cost
 * pollutes the timed region. When the host (or the pool, see
 * TPL_SIM_THREADS) cannot provide @p threads lanes, the sample is
 * timed single-threaded and divided by threads * cpuParallelEfficiency
 * instead — a documented model, not a measurement.
 */
double timeCpuBaseline(const WorkloadConfig& cfg, uint32_t threads,
                       const std::function<void(uint64_t, uint64_t)>& body);

/**
 * Project per-DPU kernel cycles to the full system: the slowest DPU of
 * the modeled machine processes ceil(total/systemDpus) elements.
 * Returns **modeled** seconds (pure function of cycle counts and the
 * cost model — no wall-clock involved); 0 when elementsPerSimDpu,
 * systemDpus, or frequencyHz is not positive.
 */
double projectPimSeconds(const WorkloadConfig& cfg,
                         const sim::CostModel& model,
                         uint64_t cyclesPerSimDpu);

} // namespace work
} // namespace tpl

#endif // TPL_WORKLOADS_COMMON_H
