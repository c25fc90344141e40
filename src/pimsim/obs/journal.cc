/**
 * @file
 * Journal implementation: canonical JSONL serialization, exact
 * nearest-rank percentile extraction, SLO spec grammar + tracker.
 */

#include "pimsim/obs/journal.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/json.h"

namespace tpl {
namespace obs {

namespace {

/**
 * Deterministic double → text: %.17g round-trips the exact binary
 * value and never depends on locale or stream state, so two journals
 * of the same modeled schedule serialize byte-identically.
 */
std::string
formatDouble(double v)
{
    if (std::isnan(v) || std::isinf(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendEventLine(std::ostringstream& out, const JournalEvent& ev)
{
    out << "{\"kind\": \"" << jsonEscape(ev.kind) << "\""
        << ", \"t\": " << formatDouble(ev.t)
        << ", \"dur\": " << formatDouble(ev.dur)
        << ", \"request\": " << ev.request
        << ", \"elements\": " << ev.elements;
    if (ev.wave != JournalEvent::kNoWave)
        out << ", \"wave\": " << ev.wave;
    if (ev.cycles != 0)
        out << ", \"cycles\": " << ev.cycles;
    if (ev.rank >= 0)
        out << ", \"rank\": " << ev.rank;
    if (ev.tenant != 0)
        out << ", \"tenant\": " << ev.tenant;
    if (!ev.table.empty())
        out << ", \"table\": \"" << jsonEscape(ev.table) << "\"";
    if (!ev.note.empty())
        out << ", \"note\": \"" << jsonEscape(ev.note) << "\"";
    out << "}\n";
}

void
appendLatencyLine(std::ostringstream& out, const RequestLatency& lat)
{
    out << "{\"kind\": \"latency\""
        << ", \"request\": " << lat.request
        << ", \"table\": \"" << jsonEscape(lat.table) << "\""
        << ", \"elements\": " << lat.elements
        << ", \"waves\": " << lat.waves
        << ", \"complete\": " << (lat.complete ? "true" : "false")
        << ", \"arrival_s\": " << formatDouble(lat.arrivalSeconds)
        << ", \"first_scatter_s\": "
        << formatDouble(lat.firstScatterSeconds)
        << ", \"completed_s\": " << formatDouble(lat.completedSeconds)
        << ", \"queue_wait_s\": " << formatDouble(lat.queueWaitSeconds)
        << ", \"transfer_s\": " << formatDouble(lat.transferSeconds)
        << ", \"compute_s\": " << formatDouble(lat.computeSeconds)
        << ", \"stall_s\": " << formatDouble(lat.stallSeconds)
        << ", \"latency_s\": " << formatDouble(lat.latencySeconds())
        << "}\n";
}

} // namespace

void
Journal::record(const JournalEvent& ev)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!eventsEnabled_)
        return;
    events_.push_back(ev);
}

void
Journal::recordLatency(const RequestLatency& lat)
{
    std::lock_guard<std::mutex> lock(mutex_);
    latencies_.push_back(lat);
}

void
Journal::recordLatencies(std::vector<RequestLatency>&& lats)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (latencies_.empty()) {
        latencies_ = std::move(lats);
        return;
    }
    latencies_.reserve(latencies_.size() + lats.size());
    latencies_.insert(latencies_.end(), lats.begin(), lats.end());
}

std::vector<JournalEvent>
Journal::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

std::vector<RequestLatency>
Journal::latencies() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return latencies_;
}

LatencySummary
Journal::summarize(double makespanSeconds) const
{
    LatencySummary s;
    std::vector<double> done;
    double sum = 0.0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done.reserve(latencies_.size());
        for (const RequestLatency& lat : latencies_) {
            if (!lat.complete) {
                ++s.incomplete;
                continue;
            }
            const double v = lat.latencySeconds();
            done.push_back(v);
            sum += v;
            if (v > s.max)
                s.max = v;
        }
    }
    s.requests = done.size();
    if (done.empty())
        return s;
    std::sort(done.begin(), done.end());
    // Exact nearest-rank: the ceil(q*n)'th smallest recorded latency.
    auto rank = [&](double q) {
        uint64_t r = static_cast<uint64_t>(
            std::ceil(q * static_cast<double>(done.size())));
        if (r < 1)
            r = 1;
        if (r > done.size())
            r = done.size();
        return done[r - 1];
    };
    s.p50 = rank(0.50);
    s.p90 = rank(0.90);
    s.p99 = rank(0.99);
    s.p999 = rank(0.999);
    s.mean = sum / static_cast<double>(done.size());
    if (makespanSeconds > 0.0)
        s.requestsPerSecond =
            static_cast<double>(done.size()) / makespanSeconds;
    return s;
}

std::string
Journal::toJsonl() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Sort pointers to the records, not copies of them. Canonical
    // order: events by (t, kind, request, wave, rank) — modeled time
    // first so the log reads causally; rank last so the fleet path
    // stays canonical when two ranks tie on everything else;
    // stable_sort keeps any residual ties in (deterministic
    // single-consumer) append order.
    std::vector<const JournalEvent*> evs;
    evs.reserve(events_.size());
    for (const JournalEvent& ev : events_)
        evs.push_back(&ev);
    std::stable_sort(evs.begin(), evs.end(),
                     [](const JournalEvent* a, const JournalEvent* b) {
                         return std::tie(a->t, a->kind, a->request,
                                         a->wave, a->rank) <
                                std::tie(b->t, b->kind, b->request,
                                         b->wave, b->rank);
                     });
    std::vector<const RequestLatency*> lats;
    lats.reserve(latencies_.size());
    for (const RequestLatency& lat : latencies_)
        lats.push_back(&lat);
    std::stable_sort(lats.begin(), lats.end(),
                     [](const RequestLatency* a, const RequestLatency* b) {
                         return a->request < b->request;
                     });
    std::ostringstream out;
    for (const JournalEvent* ev : evs)
        appendEventLine(out, *ev);
    for (const RequestLatency* lat : lats)
        appendLatencyLine(out, *lat);
    return out.str();
}

bool
Journal::writeJsonl(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJsonl();
    return static_cast<bool>(out);
}

void
Journal::setEventsEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mutex_);
    eventsEnabled_ = enabled;
}

bool
Journal::eventsEnabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return eventsEnabled_;
}

void
Journal::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    latencies_.clear();
}

bool
SloSpec::parse(const std::string& text, SloSpec& out)
{
    const char* p = text.c_str();
    if (*p != 'p' && *p != 'P')
        return false;
    ++p;
    char* end = nullptr;
    const double pct = std::strtod(p, &end);
    if (end == p || !(pct > 0.0) || !(pct < 100.0))
        return false;
    p = end;
    if (*p != '<' && *p != ':')
        return false;
    ++p;
    const double target = std::strtod(p, &end);
    if (end == p || !(target > 0.0))
        return false;
    p = end;
    double scale = 0.0;
    if (std::strcmp(p, "s") == 0)
        scale = 1.0;
    else if (std::strcmp(p, "ms") == 0)
        scale = 1e-3;
    else if (std::strcmp(p, "us") == 0)
        scale = 1e-6;
    else if (std::strcmp(p, "ns") == 0)
        scale = 1e-9;
    else
        return false;
    out.percentile = pct;
    out.targetSeconds = target * scale;
    return true;
}

std::string
SloSpec::toText() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "p%g<%gs", percentile, targetSeconds);
    return buf;
}

void
SloTracker::observe(std::string_view table, double latencySeconds,
                    bool complete)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tallies_.find(table);
    if (it == tallies_.end())
        it = tallies_.emplace(std::string(table), Tally{}).first;
    Tally& t = it->second;
    if (complete && latencySeconds <= spec_.targetSeconds)
        ++t.good;
    else
        ++t.bad;
}

SloResult
SloTracker::finish(const std::string& table, const Tally& t) const
{
    SloResult r;
    r.table = table;
    r.good = t.good;
    r.bad = t.bad;
    const uint64_t total = t.good + t.bad;
    r.badFraction =
        total ? static_cast<double>(t.bad) / static_cast<double>(total)
              : 0.0;
    const double allowed = spec_.allowedBadFraction();
    // A p100-style spec has no error budget; any bad event burns
    // infinitely. Guard the division and saturate instead.
    if (allowed > 0.0)
        r.burnRate = r.badFraction / allowed;
    else
        r.burnRate = r.badFraction > 0.0 ? 1e9 : 0.0;
    r.met = r.burnRate <= 1.0;
    return r;
}

std::vector<SloResult>
SloTracker::results() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SloResult> out;
    out.reserve(tallies_.size());
    for (const auto& [table, t] : tallies_)
        out.push_back(finish(table, t));
    return out;
}

SloResult
SloTracker::total() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tally sum;
    for (const auto& [table, t] : tallies_) {
        sum.good += t.good;
        sum.bad += t.bad;
    }
    return finish("*", sum);
}

} // namespace obs
} // namespace tpl
