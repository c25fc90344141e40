/**
 * @file
 * obs layer piece 1: the metrics registry.
 *
 * A process-wide registry of named counters, real-valued accumulators
 * and log-linear histograms that the simulator's instrumentation
 * points (DpuCore::launch, the PimSystem transfer paths, the runtime
 * sanitizer, the serve pipeline) report into. Always compiled, **off
 * by default**: every report site guards on
 * `Registry::global().enabled()`, a single relaxed atomic load, and no
 * instrumentation ever touches a modeled statistic — cycles/
 * instructions/DMA/energy are bit-identical with the registry on or
 * off (asserted by the extended determinism test).
 *
 * Naming is hierarchical by convention: "/"-separated paths such as
 * `pimsim/dpu/instr/softfloat` or `pimcheck/sanitizer/tasklet-race`.
 * The JSON dump emits one flat, name-sorted object per metric family,
 * so consumers (bench/run_all.sh, pimtrace) never need to know the
 * hierarchy in advance.
 *
 * Thread safety: metric handles are created under a mutex on first
 * use and never move afterwards (the registry stores them behind
 * stable pointers); updates are lock-free atomics, safe from the
 * thread pool's workers.
 *
 * Environment bootstrap: setting `TPL_OBS_METRICS=<path>` enables the
 * global registry at process start and dumps its JSON to <path> at
 * exit — how bench binaries grow per-phase breakdowns without any
 * per-bench code.
 */

#ifndef TPL_PIMSIM_OBS_METRICS_H
#define TPL_PIMSIM_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpl {
namespace obs {

/** Monotonic integer counter (lock-free add). */
class Counter
{
  public:
    void add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Real-valued accumulator (CAS add; modeled-seconds totals). */
class RealAccum
{
  public:
    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed))
        {}
    }

    double value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * HDR-style log-linear histogram over uint64 samples: each power-of-
 * two range is subdivided into 2^subBucketBits equal-width
 * sub-buckets, so quantiles extracted from the bucket array carry a
 * bounded *relative* error of at most 2^-subBucketBits (6.25% at the
 * default 4 bits) while the footprint stays a few hundred words.
 * Samples below 2^(subBucketBits+1) land in width-1 buckets and are
 * recovered exactly.
 *
 * Tracks count, sum, min and max alongside (sum wraps mod 2^64).
 * observe() is lock-free (relaxed atomics); quantile() walks the
 * bucket array deterministically — the result is a pure function of
 * the recorded multiset, identical at any thread count.
 */
class Histogram
{
  public:
    /** Default sub-bucket resolution: 16 sub-buckets per octave,
     * relative quantile error <= 1/16. */
    static constexpr uint32_t kDefaultSubBucketBits = 4;

    explicit Histogram(uint32_t subBucketBits = kDefaultSubBucketBits);

    void observe(uint64_t sample);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t minValue() const { return min_.load(std::memory_order_relaxed); }
    uint64_t maxValue() const { return max_.load(std::memory_order_relaxed); }

    uint32_t subBucketBits() const { return subBits_; }
    uint32_t numBuckets() const { return static_cast<uint32_t>(buckets_.size()); }
    uint64_t bucket(uint32_t i) const { return buckets_[i].load(std::memory_order_relaxed); }

    /** Flat bucket index a sample maps to, for @p subBucketBits of
     * resolution (pure function; exposed for tests/consumers). */
    static uint32_t bucketIndex(uint64_t sample, uint32_t subBucketBits);

    /** Smallest / largest sample value bucket @p i can hold. */
    uint64_t bucketLow(uint32_t i) const;
    uint64_t bucketHigh(uint32_t i) const;

    /**
     * Deterministic nearest-rank quantile: the upper edge of the
     * bucket holding the ceil(q * count)'th smallest sample, clamped
     * to [minValue, maxValue]. @p q in [0, 1]; returns 0 on an empty
     * histogram. Guarantee: result >= the true quantile and <= true *
     * (1 + 2^-subBucketBits); exact below 2^(subBucketBits+1).
     */
    uint64_t quantile(double q) const;

    void reset();

  private:
    uint32_t subBits_;
    std::vector<std::atomic<uint64_t>> buckets_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
};

/**
 * The registry: named metric families, create-on-first-use. One
 * global instance serves the whole process; independent instances
 * exist for tests.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /** The process-wide registry every instrumentation point uses. */
    static Registry& global();

    /** Cheap gate every report site checks first. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /// @name Metric handles (stable addresses, create-on-first-use).
    /// @{
    Counter& counter(const std::string& name);
    RealAccum& real(const std::string& name);

    /** The histogram named @p name, created on first use with
     * @p subBucketBits of resolution (later calls return the existing
     * handle; the resolution of the *first* call wins). */
    Histogram& histogram(
        const std::string& name,
        uint32_t subBucketBits = Histogram::kDefaultSubBucketBits);
    /// @}

    /** Names of every registered histogram family, sorted. */
    std::vector<std::string> histogramNames() const;

    /** The histogram named @p name, or nullptr if never registered
     * (never creates — safe for read-only consumers). */
    const Histogram* findHistogram(const std::string& name) const;

    /** Zero every registered metric (registrations stay). */
    void reset();

    /**
     * Dump as JSON: {"counters": {name: value, ...}, "reals": {...},
     * "histograms": {name: {count, sum, min, max, sub_bucket_bits,
     * p50, p90, p99, buckets}, ...}}, names sorted. Valid JSON by
     * construction (names are sanitized of quotes/backslashes on
     * registration).
     */
    std::string toJson() const;

    /** Write toJson() to @p path; false on I/O failure. */
    bool writeJson(const std::string& path) const;

  private:
    mutable std::mutex mutex_;
    std::atomic<bool> enabled_{false};
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<RealAccum>> reals_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace obs
} // namespace tpl

#endif // TPL_PIMSIM_OBS_METRICS_H
