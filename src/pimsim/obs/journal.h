/**
 * @file
 * obs layer piece 3: the request journal — per-request causal spans
 * over *modeled* time, exact latency percentiles, and SLO accounting
 * for the serve pipeline.
 *
 * The metrics registry answers "how much, in aggregate"; the tracer
 * answers "what ran when, per lane". The journal answers the serving
 * question neither can: *what happened to request 17*. Every request
 * pushed into a BatchQueue carries a stable span ID (its monotonic
 * request id); the ServePipeline stamps events at each causal stage —
 * enqueue → coalesce-into-wave → scatter → compute → gather-complete —
 * with timestamps read off the PipelineTimeline, never a wall clock.
 * Because modeled time and request ids are pure functions of the
 * workload, the journal is **bit-identical at any `TPL_SIM_THREADS`**
 * (locked by test and by the tier-1 OBS leg's byte-compare).
 *
 * From the stamped spans each request's modeled latency decomposes
 * exactly:
 *
 *     latency = completed - arrival
 *             = queueWait + transfer + compute + stall
 *
 * where queueWait is arrival → first scatter start, transfer/compute
 * sum the request's waves' leg durations, and stall is the residual
 * (negative when a multi-wave request's waves overlap in the
 * double-buffered schedule — overlap means legs sum to *more* than
 * the span). The identity holds to the last ulp by construction and
 * is locked by test.
 *
 * Latency percentiles here are **exact** (nearest-rank over the full
 * recorded set), unlike the registry's HDR histograms whose quantiles
 * carry a bounded relative error — the journal keeps every record, so
 * it can afford exactness; the registry streams, so it cannot.
 *
 * Off by default and statistics-neutral like the rest of the obs
 * layer: a pipeline run with a journal attached produces bit-identical
 * modeled cycles/instructions/DMA/energy to one without.
 */

#ifndef TPL_PIMSIM_OBS_JOURNAL_H
#define TPL_PIMSIM_OBS_JOURNAL_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tpl {
namespace obs {

/**
 * One causal event on a request's span, stamped in modeled seconds.
 * `wave` is kNoWave for events not tied to a wave (enqueue, drop).
 */
struct JournalEvent
{
    static constexpr uint64_t kNoWave = UINT64_MAX;

    std::string kind;      ///< enqueue|coalesce|scatter|compute|gather|done|drop|anomaly|tune
    double t = 0.0;        ///< modeled seconds (event start)
    double dur = 0.0;      ///< modeled seconds (0 for instant events)
    uint64_t request = 0;  ///< stable span ID (BatchQueue request id)
    uint64_t wave = kNoWave; ///< serving wave index, if any
    uint64_t elements = 0; ///< elements this event covers
    uint64_t cycles = 0;   ///< modeled DPU cycles (compute events)
    int32_t rank = -1;     ///< executing rank (fleet path); -1 = flat
    /** Owning tenant (enqueue / tune events); serialized only when
     * nonzero, so tenant-oblivious runs keep their exact bytes. */
    uint64_t tenant = 0;
    std::string table;     ///< TableKey label
    std::string note;      ///< free-form detail (anomaly reason, drop cause)
};

/** Fully-accounted modeled latency of one request. */
struct RequestLatency
{
    uint64_t request = 0;
    /** TableKey label. The journal does not own the text: point it at
     * storage that outlives the journal — the serve pipeline points
     * it into the label pool (common/label.h), which never frees. */
    std::string_view table;
    uint64_t elements = 0;
    uint64_t waves = 0;        ///< waves this request's elements rode in
    bool complete = false;     ///< all elements gathered healthy
    double arrivalSeconds = 0.0;
    double firstScatterSeconds = 0.0;
    double completedSeconds = 0.0;
    double queueWaitSeconds = 0.0; ///< arrival -> first scatter start
    double transferSeconds = 0.0;  ///< sum of wave broadcast+scatter+gather legs
    double computeSeconds = 0.0;   ///< sum of wave compute legs
    double stallSeconds = 0.0;     ///< residual; negative under wave overlap

    /** End-to-end modeled latency (0 for incomplete requests). */
    double latencySeconds() const
    {
        return complete ? completedSeconds - arrivalSeconds : 0.0;
    }
};

/** Exact nearest-rank percentile summary over completed requests. */
struct LatencySummary
{
    uint64_t requests = 0;   ///< completed requests summarized
    uint64_t incomplete = 0; ///< recorded but never fully gathered
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double mean = 0.0;
    double max = 0.0;
    double requestsPerSecond = 0.0; ///< completed / makespan
};

/**
 * The journal proper: an append log of events plus per-request
 * latency records. Mutex-guarded so producers on any thread may
 * record; determinism comes from the *content* (modeled time + stable
 * ids + canonical sort in toJsonl), not from append order.
 */
class Journal
{
  public:
    void record(const JournalEvent& ev);
    void recordLatency(const RequestLatency& lat);
    /** Append @p lats in order under one lock and one reservation
     * (the serve pipeline's end-of-run bulk append). */
    void recordLatencies(std::vector<RequestLatency>&& lats);

    /**
     * When disabled, record() drops events; recordLatency is
     * unaffected. pimserve turns event capture off on large replays
     * that requested no --journal output, so a million-request trace
     * costs per-request latency records only, not per-wave spans.
     */
    void setEventsEnabled(bool enabled);
    bool eventsEnabled() const;

    /** Copies of the recorded events and latencies. summarize()
     * and toJsonl() read the records in place instead. */
    std::vector<JournalEvent> events() const;
    std::vector<RequestLatency> latencies() const;

    /**
     * Exact nearest-rank percentiles over every *complete* recorded
     * latency; requestsPerSecond = completed / @p makespanSeconds
     * (0 when the makespan is 0). Extra memory: one double per
     * complete request.
     */
    LatencySummary summarize(double makespanSeconds) const;

    /**
     * Canonical JSONL: one event object per line sorted by (t, kind,
     * request, wave), then one {"kind":"latency",...} line per request
     * sorted by request id. Doubles are printed with %.17g so the
     * text round-trips the exact binary value — byte-identical output
     * at any thread count.
     */
    std::string toJsonl() const;

    /** Write toJsonl() to @p path; false on I/O failure. */
    bool writeJsonl(const std::string& path) const;

    void clear();

  private:
    mutable std::mutex mutex_;
    bool eventsEnabled_ = true;
    std::vector<JournalEvent> events_;
    std::vector<RequestLatency> latencies_;
};

/**
 * A service-level objective: "percentile P of request latency must be
 * under T". Text grammar (see docs/observability.md):
 *
 *     p<percentile> '<'|':' <target><unit>     unit in {s, ms, us, ns}
 *
 * e.g. `p99<2ms`, `p50:150us`.
 */
struct SloSpec
{
    double percentile = 99.0;    ///< in (0, 100)
    double targetSeconds = 0.0;  ///< latency budget

    /** Parse the grammar above; false (spec untouched) on malformed input. */
    static bool parse(const std::string& text, SloSpec& out);

    /** Canonical text form (always `pP<Ts` with seconds unit scaled). */
    std::string toText() const;

    /** Fraction of requests allowed over budget: (100 - percentile)/100.
     * Written this way (not 1 - p/100) so round percentiles give exact
     * budgets — p90 yields 0.1, not 0.09999999999999998 — and a run
     * sitting exactly at the budget counts as met. */
    double allowedBadFraction() const
    {
        return (100.0 - percentile) / 100.0;
    }
};

/** Per-table SLO tally. */
struct SloResult
{
    std::string table;
    uint64_t good = 0; ///< complete and within budget
    uint64_t bad = 0;  ///< over budget, incomplete, or dropped
    double badFraction = 0.0;
    /** badFraction / allowedBadFraction: >1 means the SLO is burning
     * error budget faster than it accrues. */
    double burnRate = 0.0;
    bool met = false;  ///< burnRate <= 1
};

/**
 * Streams request outcomes against one SloSpec, tallied per TableKey
 * label. Incomplete requests always count bad — an answer that never
 * arrived cannot have met a latency target.
 */
class SloTracker
{
  public:
    explicit SloTracker(const SloSpec& spec) : spec_(spec) {}

    void observe(std::string_view table, double latencySeconds,
                 bool complete);

    /** Per-table results, sorted by table label. */
    std::vector<SloResult> results() const;

    /** All tables folded into one tally (table = "*"). */
    SloResult total() const;

    const SloSpec& spec() const { return spec_; }

  private:
    struct Tally
    {
        uint64_t good = 0;
        uint64_t bad = 0;
    };

    SloResult finish(const std::string& table, const Tally& t) const;

    SloSpec spec_;
    mutable std::mutex mutex_;
    std::map<std::string, Tally, std::less<>> tallies_;
};

} // namespace obs
} // namespace tpl

#endif // TPL_PIMSIM_OBS_JOURNAL_H
