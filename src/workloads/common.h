/**
 * @file
 * Shared workload harness: run configuration, the variant vocabulary,
 * result rows, the CPU-row builder, the simulated-DPU driver and the
 * one row printer.
 *
 * Methodology (documented in EXPERIMENTS.md): PIM variants simulate a
 * small number of DPUs executing their exact per-core element share and
 * project the cycle counts to the paper's 2545-DPU system; CPU
 * baselines run real code on the host (timed over a subset and scaled
 * linearly). When the host machine has fewer cores than the configured
 * CPU thread count, the multithreaded baseline falls back to a
 * documented scaling model instead of a meaningless oversubscribed
 * measurement.
 *
 * A workload file keeps four things: its input generator, its
 * per-element PIM body, its CPU body and its double-precision
 * reference. Everything around them lives here: cpuRow times a CPU
 * body, and PimRun builds the simulated system, lays out each DPU's
 * arrays, runs the kernel passes and turns their cycles into a row.
 */

#ifndef TPL_WORKLOADS_COMMON_H
#define TPL_WORKLOADS_COMMON_H

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error_metrics.h"
#include "pimsim/system.h"
#include "transpim/evaluator.h"

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

/**
 * The rows a workload figure can print: two measured CPU baselines,
 * then the PIM variants by transcendental method. Each workload lists
 * the variants it supports (kBlackscholesRows, ...).
 */
enum class Variant
{
    CpuSingle,    ///< libm on one host thread
    CpuMulti,     ///< libm on WorkloadConfig::cpuThreads threads
    PimPoly,      ///< polynomial approximation (the PIM baseline)
    PimMLut,      ///< interpolated M-LUT
    PimLLut,      ///< interpolated L-LUT
    PimFixedLLut, ///< interpolated Q3.28 L-LUT
    PimDlLut,     ///< interpolated DL-LUT
};

/** True for the two CPU baselines. */
bool isCpu(Variant v);

/** Row label: "CPU 1T", "CPU 32T", "PIM L-LUT interp.", ... */
std::string variantLabel(Variant v, const WorkloadConfig& cfg);

/**
 * One evaluator per function in @p fns, each under the PIM variant's
 * method: interpolated, tables in WRAM, cfg's table budget and
 * polynomial degree.
 */
std::vector<transpim::FunctionEvaluator>
makeEvaluators(Variant v, const WorkloadConfig& cfg,
               std::initializer_list<transpim::Function> fns);

/** One row of a workload figure. */
struct WorkloadResult
{
    std::string workload;  ///< "Blackscholes" / "Sigmoid" / "Softmax"
    std::string variant;   ///< "CPU 1T", "PIM L-LUT interp.", ...
    /**
     * End-to-end time. CPU rows: the measured host baseline. PIM rows:
     * the **modeled** kernel + h2p + p2h seconds, so it repeats byte
     * for byte across runs and thread counts.
     */
    double seconds = 0;
    double pimKernelSeconds = 0; ///< modeled, all passes
    double hostToPimSeconds = 0; ///< modeled
    double pimToHostSeconds = 0; ///< modeled
    /** PIM rows: host wall-clock of table generation (not in seconds). */
    double hostSetupSeconds = 0;
    double maxAbsError = 0; ///< vs double-precision reference
    double rmse = 0;
    uint64_t elements = 0;
};

/** Run @p run for each variant of @p rows, in order. */
template <class Config>
std::vector<WorkloadResult>
runAll(std::span<const Variant> rows, const Config& cfg,
       WorkloadResult (*run)(Variant, const Config&))
{
    std::vector<WorkloadResult> out;
    for (Variant v : rows)
        out.push_back(run(v, cfg));
    return out;
}

/**
 * Print @p rows as one table: variant, total_s, kernel_s, h2p_s,
 * p2h_s, maxerr, then host_setup_s. Every column before the last is
 * modeled on PIM rows; CPU rows' total_s and every row's host_setup_s
 * are host wall-clock.
 */
void printRows(const std::vector<WorkloadResult>& rows);

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
 * A CPU baseline row: @p body(begin, end) over the sample, timed by
 * timeCpuBaseline at the variant's thread count (1 or cfg.cpuThreads),
 * then @p check adds (output, reference) pairs of the computed sample
 * for the row's accuracy.
 */
WorkloadResult cpuRow(std::string workload, Variant v,
                      const WorkloadConfig& cfg,
                      const std::function<void(uint64_t, uint64_t)>& body,
                      const std::function<void(ErrorAccumulator&)>& check);

/**
 * Project per-DPU kernel cycles to the full system: the slowest DPU of
 * the modeled machine processes ceil(total/systemDpus) elements.
 * Returns **modeled** seconds (pure function of cycle counts and the
 * cost model — no wall-clock involved); 0 when elementsPerSimDpu,
 * systemDpus, or frequencyHz is not positive. PimRun::row sums it
 * over a run's passes for a row's kernel_s.
 */
double projectPimSeconds(const WorkloadConfig& cfg,
                         const sim::CostModel& model,
                         uint64_t cyclesPerSimDpu);

/** An MRAM array at the same address on every simulated DPU. */
struct Array
{
    uint32_t addr = 0;
    uint32_t width = 0;  ///< floats per element; 0 for a fixed array
    uint32_t floats = 0; ///< floats each DPU holds
};

/** One tasklet's state during a pass, handed to the element body. */
struct Tasklet
{
    sim::TaskletContext& ctx;
    float acc = 0.0f;           ///< per-tasklet accumulator (Pass::acc)
    std::vector<float> local{}; ///< Pass::local, read before the first chunk
    /** This chunk of each Pass::reads / Pass::writes array, element i
     * at [i * width]. */
    std::vector<std::vector<float>> in{}, out{};
};

/**
 * One kernel pass over each DPU's element share. Each tasklet reads
 * @c local, then takes chunks of @c chunk elements round robin: it
 * reads the chunk of every @c reads array (or, with @c readPerElement,
 * each element's slot just before its body), calls @c element(t, i)
 * for each element i of the chunk, and writes the chunk of every
 * @c writes array. After its last chunk it writes @c acc to slot
 * taskletId of @c accOut.
 */
struct Pass
{
    uint32_t chunk = 256;
    std::vector<Array> reads{};
    bool readPerElement = false;
    std::vector<Array> writes{};
    std::optional<Array> local{};
    float acc = 0.0f;
    std::optional<Array> accOut{};
    std::function<void(Tasklet&, uint32_t)> element{};
};

/**
 * The simulated-DPU driver of one PIM row: cfg.simulatedDpus DPUs with
 * the variant's tables attached to every core, each running
 * cfg.elementsPerSimDpu elements of the workload.
 */
class PimRun
{
  public:
    /** Attach @p attach's tables, generated in @p hostSetupSeconds. */
    PimRun(std::string workload, Variant v, const WorkloadConfig& cfg,
           double hostSetupSeconds,
           const std::function<void(sim::DpuCore&)>& attach);

    /** Attach every evaluator of @p tables, in order. */
    PimRun(std::string workload, Variant v, const WorkloadConfig& cfg,
           std::span<transpim::FunctionEvaluator> tables);

    uint32_t numDpus() const { return sys_.numDpus(); }

    /** Elements each simulated DPU processes. */
    uint32_t perDpu() const { return cfg_.elementsPerSimDpu; }

    /** Elements of all simulated DPUs (the inputs to generate). */
    uint64_t simulatedElements() const
    {
        return static_cast<uint64_t>(perDpu()) * numDpus();
    }

    /**
     * Allocate @p width floats per element on every DPU; when @p data
     * is given, DPU d receives its elements [d*perDpu, (d+1)*perDpu).
     */
    Array stream(uint32_t width, std::span<const float> data = {});

    /** Allocate @p floats floats on every DPU, each holding @p data
     * when given. */
    Array fixed(uint32_t floats, std::span<const float> data = {});

    /** Run one pass on every DPU; returns the slowest DPU's cycles. */
    uint64_t pass(const Pass& p);

    /** DPU @p dpu's copy of @p a. */
    std::vector<float> read(const Array& a, uint32_t dpu) const;

    /** Write @p data to the start of @p a on every DPU. */
    void broadcast(const Array& a, std::span<const float> data);

    /**
     * The row: kernel_s sums every pass's cycles projected to the full
     * machine, h2p_s and p2h_s sum the modeled parallel transfer of each
     * listed byte count over the ranks of cfg.systemDpus, and the
     * accuracy comes from @p acc.
     */
    WorkloadResult row(std::initializer_list<uint64_t> h2pBytes,
                       std::initializer_list<uint64_t> p2hBytes,
                       const ErrorAccumulator& acc) const;

  private:
    std::string workload_;
    Variant variant_;
    WorkloadConfig cfg_;
    double hostSetupSeconds_;
    sim::PimSystem sys_;
    std::vector<uint64_t> passCycles_;
};

} // namespace work
} // namespace tpl

#endif // TPL_WORKLOADS_COMMON_H
