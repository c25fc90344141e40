/**
 * @file
 * Span store and the traced seams.
 */

#include "spans.h"

#include <algorithm>

namespace perfbench {

namespace sv = tpl::sim::serve;

namespace {

int64_t
steadyNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

} // namespace

void
SpanLog::record(Layer layer, Clock::time_point start,
                Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<int>(layer)].emplace_back(steadyNs(start),
                                                 steadyNs(end));
}

void
SpanLog::addTableBytes(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tableBytes_ += bytes;
}

uint64_t
SpanLog::tableBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tableBytes_;
}

uint64_t
SpanLog::count(Layer layer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_[static_cast<int>(layer)].size();
}

double
SpanLog::busySeconds(Layer layer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t ns = 0;
    for (const Interval& s : spans_[static_cast<int>(layer)])
        ns += s.second - s.first;
    return static_cast<double>(ns) * 1e-9;
}

double
SpanLog::coveredSeconds(Layer layer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return unionSeconds(spans_[static_cast<int>(layer)]);
}

double
SpanLog::coveredSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Interval> all;
    for (const std::vector<Interval>& layer : spans_)
        all.insert(all.end(), layer.begin(), layer.end());
    return unionSeconds(std::move(all));
}

double
SpanLog::unionSeconds(std::vector<Interval> spans)
{
    std::sort(spans.begin(), spans.end());
    int64_t covered = 0;
    int64_t begin = 0;
    int64_t end = 0;
    bool open = false;
    for (const Interval& s : spans) {
        if (open && s.first <= end) {
            end = std::max(end, s.second);
            continue;
        }
        if (open)
            covered += end - begin;
        begin = s.first;
        end = s.second;
        open = true;
    }
    if (open)
        covered += end - begin;
    return static_cast<double>(covered) * 1e-9;
}

sv::TableProvider
tracedProvider(sv::TableProvider inner, SpanLog& log)
{
    SpanLog* logp = &log;
    return [inner = std::move(inner), logp](
               const sv::TableKey& key,
               tpl::sim::PimSystem& sys) -> sv::TableBinding {
        const Clock::time_point start = Clock::now();
        sv::TableBinding binding = inner(key, sys);
        if (binding.valid) {
            logp->addTableBytes(uint64_t{binding.tableBytes} *
                                sys.numDpus());
            binding.makeKernel =
                [factory = std::move(binding.makeKernel),
                 logp](const tpl::sim::ShardTask& task)
                -> tpl::sim::Kernel {
                const Clock::time_point built = Clock::now();
                tpl::sim::Kernel kernel = factory(task);
                logp->record(Layer::KernelBuild, built, Clock::now());
                if (!kernel)
                    return kernel;
                // DpuCore::launch runs a launch's tasklet bodies back
                // to back on one thread, so one span per launch, from
                // the first body's start to the last body's end,
                // covers them all at 1/numTasklets the records.
                return [kernel = std::move(kernel),
                        logp](tpl::sim::TaskletContext& ctx) {
                    thread_local Clock::time_point launchStart;
                    if (ctx.taskletId() == 0)
                        launchStart = Clock::now();
                    kernel(ctx);
                    if (ctx.taskletId() + 1 == ctx.numTasklets())
                        logp->record(Layer::Kernel, launchStart,
                                     Clock::now());
                };
            };
        }
        logp->record(Layer::Bind, start, Clock::now());
        return binding;
    };
}

sv::AutoTuner::Routing
TracedTuner::route(const sv::TableKey& requested, uint64_t tenant)
{
    const Clock::time_point start = Clock::now();
    Routing routing = inner_.route(requested, tenant);
    log_.record(Layer::TunerRoute, start, Clock::now());
    return routing;
}

void
TracedTuner::observe(const sv::WaveOutcome& outcome)
{
    const Clock::time_point start = Clock::now();
    inner_.observe(outcome);
    log_.record(Layer::TunerObserve, start, Clock::now());
}

void
TracedTuner::bindCache(sv::TableCache* cache)
{
    inner_.bindCache(cache);
}

std::vector<sv::TuneDecision>
TracedTuner::decisions() const
{
    return inner_.decisions();
}

} // namespace perfbench
