/**
 * @file
 * Host-time spans of the traced replay. The benchmark records them
 * around its own calls into each layer, through the public seams it
 * already holds: the TableProvider (table bind), each binding's
 * ShardKernelFactory (kernel build) and the Kernel it returns (one
 * span per DPU launch, on whichever simulation thread runs it), and
 * an AutoTuner decorator (route / observe). Every layer span is a
 * child of the replay's ServePipeline::run span.
 */

#ifndef TPL_PERFBENCH_SPANS_H
#define TPL_PERFBENCH_SPANS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "pimsim/serve/auto_tuner.h"
#include "pimsim/serve/table_cache.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Layers with spans inside ServePipeline::run. */
enum class Layer
{
    Bind,         ///< TableProvider call: table generation + attach
    KernelBuild,  ///< ShardKernelFactory call
    Kernel,       ///< tasklet bodies of one launch (evaluators + softfloat)
    TunerRoute,   ///< AutoTuner::route
    TunerObserve, ///< AutoTuner::observe
};
inline constexpr int kNumLayers = 5;

/** In-memory span store; record() is safe from any thread. */
class SpanLog
{
  public:
    void record(Layer layer, Clock::time_point start,
                Clock::time_point end);

    /** Table bytes a valid bind staged, summed over every core. */
    void addTableBytes(uint64_t bytes);
    uint64_t tableBytes() const;

    uint64_t count(Layer layer) const;

    /** Sum of span durations; spans on concurrent threads add up. */
    double busySeconds(Layer layer) const;

    /** Wall seconds in which at least one span of @p layer ran. */
    double coveredSeconds(Layer layer) const;

    /** Wall seconds in which at least one span of any layer ran. */
    double coveredSeconds() const;

  private:
    using Interval = std::pair<int64_t, int64_t>; ///< steady ns

    static double unionSeconds(std::vector<Interval> spans);

    mutable std::mutex mutex_;
    std::array<std::vector<Interval>, kNumLayers> spans_;
    uint64_t tableBytes_ = 0;
};

/** @p inner with every bind, kernel build and kernel body recorded in
 * @p log, which must outlive every binding the provider returns. */
tpl::sim::serve::TableProvider
tracedProvider(tpl::sim::serve::TableProvider inner, SpanLog& log);

/** Forwards to @p inner, recording route and observe spans. */
class TracedTuner final : public tpl::sim::serve::AutoTuner
{
  public:
    TracedTuner(tpl::sim::serve::AutoTuner& inner, SpanLog& log)
        : inner_(inner), log_(log)
    {
    }

    Routing route(const tpl::sim::serve::TableKey& requested,
                  uint64_t tenant) override;
    void observe(const tpl::sim::serve::WaveOutcome& outcome) override;
    void bindCache(tpl::sim::serve::TableCache* cache) override;
    std::vector<tpl::sim::serve::TuneDecision>
    decisions() const override;

  private:
    tpl::sim::serve::AutoTuner& inner_;
    SpanLog& log_;
};

} // namespace perfbench

#endif // TPL_PERFBENCH_SPANS_H
