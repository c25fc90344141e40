/**
 * @file
 * Workload infrastructure implementation.
 */

#include "workloads/common.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "pimsim/thread_pool.h"

namespace tpl {
namespace work {

double
timeCpuBaseline(const WorkloadConfig& cfg, uint32_t threads,
                const std::function<void(uint64_t, uint64_t)>& body)
{
    uint64_t sample =
        std::min<uint64_t>(cfg.cpuSampleElements, cfg.totalElements);

    // The persistent simulator pool runs the chunks, so the timed
    // region measures only the workload body — no per-call thread
    // spawn/join overhead. The baseline is "real" only when the pool
    // actually offers the requested parallelism; otherwise fall back
    // to the documented scaling model below.
    sim::ThreadPool& pool = sim::ThreadPool::global();
    uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    uint32_t lanes = std::min(pool.threadCount(), hw);
    bool canRunThreads = threads <= lanes;
    uint32_t runThreads = canRunThreads ? threads : 1;

    auto start = std::chrono::steady_clock::now();
    if (runThreads == 1) {
        body(0, sample);
    } else {
        uint64_t per = (sample + runThreads - 1) / runThreads;
        pool.parallelFor(runThreads, [&](uint64_t t) {
            uint64_t beg = t * per;
            uint64_t end = std::min(sample, beg + per);
            if (beg < end)
                body(beg, end);
        });
    }
    auto stop = std::chrono::steady_clock::now();
    double measured = std::chrono::duration<double>(stop - start).count();

    double full = measured * static_cast<double>(cfg.totalElements) /
                  static_cast<double>(sample);
    if (!canRunThreads && threads > 1) {
        // Host cannot actually run the requested thread count: model
        // the parallel speedup instead of oversubscribing.
        full /= threads * cfg.cpuParallelEfficiency;
    }
    return full;
}

double
projectPimSeconds(const WorkloadConfig& cfg, const sim::CostModel& model,
                  uint64_t cyclesPerSimDpu)
{
    if (cfg.elementsPerSimDpu == 0 || cfg.systemDpus == 0 ||
        model.frequencyHz <= 0.0)
        return 0.0;
    double cyclesPerElement =
        static_cast<double>(cyclesPerSimDpu) /
        static_cast<double>(cfg.elementsPerSimDpu);
    uint64_t perSystemDpu =
        (cfg.totalElements + cfg.systemDpus - 1) / cfg.systemDpus;
    return cyclesPerElement * static_cast<double>(perSystemDpu) /
           model.frequencyHz;
}

} // namespace work
} // namespace tpl
