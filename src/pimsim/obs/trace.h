/**
 * @file
 * obs layer piece 2: the tracer.
 *
 * Records timestamped spans and events — kernel launches, per-tasklet
 * execution slices, DMA/host transfers, table-generation phases —
 * into per-thread buffers and exports them as Chrome trace-event JSON
 * (the `{"traceEvents": [...]}` format), loadable in Perfetto and
 * chrome://tracing.
 *
 * Like the metrics registry, the tracer is always compiled and off by
 * default: every record site guards on `Tracer::global().enabled()`
 * (one relaxed atomic load) and never touches a modeled statistic.
 * Timestamps are host wall-clock microseconds since the tracer was
 * created (std::chrono::steady_clock) — the *modeled* quantities
 * (cycles, bytes, modeled seconds) ride along in each event's `args`,
 * so a Perfetto view shows simulation wall time with modeled numbers
 * attached to every slice.
 *
 * Threading model: each host thread appends to its own buffer (a
 * thread_local handle registered with the tracer under a mutex on
 * first use), so recording from thread-pool workers is contention
 * free. Begin/end pairs always come from the same thread (the
 * `TraceSpan` RAII wrapper enforces this), which is exactly the
 * nesting discipline the Chrome B/E phases require per tid.
 *
 * Event taxonomy (the `cat` field):
 *   "host"  — host-side phases: table generation, setup, readback
 *   "xfer"  — CPU<->PIM transfer modeling (broadcast/scatter/gather)
 *   "sim"   — multi-DPU simulation phases (launchAll)
 *   "dpu"   — one DPU's kernel launch
 *   "tasklet" — per-tasklet execution slices inside a launch
 *   "serve" — batched pipeline phases (waves, scatter/compute/gather
 *             legs) plus queue-depth counter tracks
 *
 * Environment bootstrap: `TPL_OBS_TRACE=<path>` enables the global
 * tracer at process start and writes the Chrome JSON to <path> at
 * exit.
 */

#ifndef TPL_PIMSIM_OBS_TRACE_H
#define TPL_PIMSIM_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpl {
namespace obs {

/** One Chrome trace event (phases used: B, E, X, i, C, s, t, f). */
struct TraceEvent
{
    char phase = 'X';
    double tsUs = 0.0;  ///< microseconds since tracer epoch
    double durUs = 0.0; ///< X events only
    uint32_t tid = 0;   ///< dense host-thread index
    uint64_t flowId = 0; ///< flow events (s/t/f) only
    std::string name;
    std::string cat;
    std::string args;   ///< preformatted JSON object body, may be ""
};

/**
 * The tracer. Use `Tracer::global()`; independent instances exist
 * only for tests.
 */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** The process-wide tracer every record site uses. */
    static Tracer& global();

    /** Cheap gate every record site checks first. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Microseconds since this tracer's epoch (steady clock). */
    double nowUs() const;

    /// @name Recording (no-ops while disabled).
    /// @{

    /** Open a span on the calling thread (Chrome phase B). */
    void begin(const std::string& name, const char* cat,
               std::string args = {});

    /** Close the innermost span on the calling thread (phase E). */
    void end();

    /** A complete slice with explicit start/duration (phase X). */
    void complete(const std::string& name, const char* cat,
                  double tsUs, double durUs, std::string args = {});

    /** An instantaneous event (phase i, thread scope). */
    void instant(const std::string& name, const char* cat,
                 std::string args = {});

    /**
     * A counter sample (phase C): Perfetto renders successive samples
     * of the same @p name as a step chart — used for queue depth and
     * in-flight wave tracks in the serve pipeline.
     */
    void counterValue(const std::string& name, const char* cat,
                      double value);

    /**
     * Perfetto flow events (phases s/t/f): arrows connecting slices
     * across lanes. All three take the same @p id — every event with
     * the same id joins one flow chain. The serve pipeline emits one
     * flow per request (id = the request's journal span ID), linking
     * its enqueue point through the waves that carried it, so a
     * Perfetto view can follow one request across wave/DPU lanes.
     */
    void flowBegin(const std::string& name, const char* cat,
                   uint64_t id);

    /** A mid-chain flow point (phase t). */
    void flowStep(const std::string& name, const char* cat,
                  uint64_t id);

    /** The flow's terminal point (phase f, binding point "e"). */
    void flowEnd(const std::string& name, const char* cat, uint64_t id);
    /// @}

    /**
     * Drop all recorded events (buffers stay registered). Only call
     * while no thread is actively recording.
     */
    void clear();

    /** Number of events recorded so far (across all threads). */
    size_t eventCount() const;

    /**
     * Export as Chrome trace-event JSON. Events are merged across
     * threads and sorted by timestamp; per-thread relative order is
     * preserved, so B/E pairs stay properly nested per tid.
     */
    std::string toChromeJson() const;

    /** Write toChromeJson() to @p path; false on I/O failure. */
    bool writeChromeJson(const std::string& path) const;

  private:
    struct ThreadBuffer
    {
        uint32_t tid = 0;
        std::vector<TraceEvent> events;
    };

    ThreadBuffer& localBuffer();

    std::chrono::steady_clock::time_point epoch_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< guards buffers_ registration/export
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/**
 * RAII span: opens on construction, closes on destruction, on the
 * same thread. Near-zero cost while the tracer is disabled, apart
 * from building the name and args: on hot paths, hold an
 * std::optional<TraceSpan> and emplace it only when
 * Tracer::enabled(), so a disabled span formats nothing.
 */
class TraceSpan
{
  public:
    TraceSpan(const std::string& name, const char* cat,
              std::string args = {})
        : active_(Tracer::global().enabled())
    {
        if (active_)
            Tracer::global().begin(name, cat, std::move(args));
    }

    ~TraceSpan()
    {
        if (active_)
            Tracer::global().end();
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    bool active_;
};

/** Format helper: one numeric key/value for an event args object. */
std::string argKv(const char* key, uint64_t value);
std::string argKv(const char* key, double value);

/** String key/value (the value is JSON-escaped). */
std::string argKv(const char* key, const std::string& value);

/** Join non-empty key/value fragments into a JSON object body. */
std::string argsObject(std::initializer_list<std::string> kvs);

} // namespace obs
} // namespace tpl

#endif // TPL_PIMSIM_OBS_TRACE_H
