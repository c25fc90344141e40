/**
 * @file
 * Metrics registry implementation + TPL_OBS_METRICS env bootstrap.
 */

#include "pimsim/obs/metrics.h"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace tpl {
namespace obs {

namespace {

/** Keep metric names JSON-safe: drop quotes/backslashes/controls. */
std::string
sanitizeName(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
            out.push_back('_');
        else
            out.push_back(c);
    }
    return out;
}

} // namespace

Histogram::Histogram(uint32_t subBucketBits)
    : subBits_(subBucketBits),
      // One octave of 2^B width-1 buckets below 2^B, then one group
      // of 2^B sub-buckets per sample bit-width B+1..64: the last
      // flat index is bucketIndex(UINT64_MAX) = (64-B+1) * 2^B - 1.
      buckets_((64u - subBucketBits + 1u) << subBucketBits)
{}

uint32_t
Histogram::bucketIndex(uint64_t sample, uint32_t subBucketBits)
{
    const uint64_t subCount = uint64_t{1} << subBucketBits;
    if (sample < subCount)
        return static_cast<uint32_t>(sample);
    const uint32_t width = static_cast<uint32_t>(std::bit_width(sample));
    const uint32_t granularity = width - 1 - subBucketBits;
    const uint64_t sub = (sample - (uint64_t{1} << (width - 1))) >> granularity;
    return static_cast<uint32_t>(
        (uint64_t{granularity + 1} << subBucketBits) + sub);
}

uint64_t
Histogram::bucketLow(uint32_t i) const
{
    const uint64_t subCount = uint64_t{1} << subBits_;
    if (i < subCount)
        return i;
    const uint32_t granularity = i / static_cast<uint32_t>(subCount) - 1;
    const uint64_t sub = i & (subCount - 1);
    return (uint64_t{1} << (granularity + subBits_)) +
           (sub << granularity);
}

uint64_t
Histogram::bucketHigh(uint32_t i) const
{
    const uint64_t subCount = uint64_t{1} << subBits_;
    if (i < subCount)
        return i;
    const uint32_t granularity = i / static_cast<uint32_t>(subCount) - 1;
    return bucketLow(i) + ((uint64_t{1} << granularity) - 1);
}

void
Histogram::observe(uint64_t sample)
{
    buckets_[bucketIndex(sample, subBits_)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (sample < cur &&
           !min_.compare_exchange_weak(cur, sample,
                                       std::memory_order_relaxed))
    {}
    cur = max_.load(std::memory_order_relaxed);
    while (sample > cur &&
           !max_.compare_exchange_weak(cur, sample,
                                       std::memory_order_relaxed))
    {}
}

uint64_t
Histogram::quantile(double q) const
{
    const uint64_t n = count();
    if (n == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;
    uint64_t cum = 0;
    for (uint32_t i = 0; i < numBuckets(); ++i) {
        cum += bucket(i);
        if (cum >= rank) {
            const uint64_t hi = bucketHigh(i);
            const uint64_t mx = maxValue();
            return hi < mx ? hi : mx;
        }
    }
    // Unreachable when count matches the bucket totals; fall back to
    // the recorded max so a torn concurrent snapshot stays sane.
    return maxValue();
}

void
Histogram::reset()
{
    for (auto& b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

Registry&
Registry::global()
{
    static Registry* instance = new Registry(); // never destroyed: the
    // atexit JSON dump and worker threads may outlive static dtors.
    return *instance;
}

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[sanitizeName(name)];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

RealAccum&
Registry::real(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = reals_[sanitizeName(name)];
    if (!slot)
        slot = std::make_unique<RealAccum>();
    return *slot;
}

Histogram&
Registry::histogram(const std::string& name, uint32_t subBucketBits)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[sanitizeName(name)];
    if (!slot)
        slot = std::make_unique<Histogram>(subBucketBits);
    return *slot;
}

std::vector<std::string>
Registry::histogramNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_)
        names.push_back(name);
    return names;
}

const Histogram*
Registry::findHistogram(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(sanitizeName(name));
    return it == histograms_.end() ? nullptr : it->second.get();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_)
        c->reset();
    for (auto& [name, r] : reals_)
        r->reset();
    for (auto& [name, h] : histograms_)
        h->reset();
}

std::string
Registry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        out << (first ? "" : ",") << "\n    \"" << name
            << "\": " << c->value();
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"reals\": {";
    first = true;
    for (const auto& [name, r] : reals_) {
        std::ostringstream v;
        v.precision(17);
        v << r->value();
        std::string vs = v.str();
        // JSON has no inf/nan literals; clamp to null.
        if (vs.find("inf") != std::string::npos ||
            vs.find("nan") != std::string::npos)
            vs = "null";
        out << (first ? "" : ",") << "\n    \"" << name << "\": " << vs;
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        out << (first ? "" : ",") << "\n    \"" << name << "\": {"
            << "\"count\": " << h->count() << ", \"sum\": " << h->sum();
        if (h->count() > 0)
            out << ", \"min\": " << h->minValue()
                << ", \"max\": " << h->maxValue()
                << ", \"p50\": " << h->quantile(0.50)
                << ", \"p90\": " << h->quantile(0.90)
                << ", \"p99\": " << h->quantile(0.99)
                << ", \"p999\": " << h->quantile(0.999);
        out << ", \"sub_bucket_bits\": " << h->subBucketBits();
        out << ", \"buckets\": [";
        // Trailing zero buckets are elided to keep dumps compact.
        uint32_t top = h->numBuckets();
        while (top > 0 && h->bucket(top - 1) == 0)
            --top;
        for (uint32_t i = 0; i < top; ++i)
            out << (i ? ", " : "") << h->bucket(i);
        out << "]}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "}\n}\n";
    return out.str();
}

bool
Registry::writeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson();
    return static_cast<bool>(out);
}

namespace {

/**
 * TPL_OBS_METRICS=<path>: enable the global registry for the whole
 * process and dump its JSON to <path> at exit. Lives here (not in a
 * bench/tool main) so every binary linking the simulator gets the
 * knob for free.
 */
struct MetricsEnvBootstrap
{
    MetricsEnvBootstrap()
    {
        const char* path = std::getenv("TPL_OBS_METRICS");
        if (!path || !*path)
            return;
        Registry::global().setEnabled(true);
        static std::string outPath = path;
        std::atexit(
            [] { Registry::global().writeJson(outPath); });
    }
};

const MetricsEnvBootstrap metricsEnvBootstrap{};

} // namespace

} // namespace obs
} // namespace tpl
