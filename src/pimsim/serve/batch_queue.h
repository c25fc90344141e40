/**
 * @file
 * pimserve piece 1: the request queue.
 *
 * A thread-safe multi-producer queue of evaluation requests plus the
 * batching policy that turns them into *waves*: contiguous batches of
 * elements that all use the same table configuration and together fit
 * one scatter across the healthy DPUs. Producers push requests (an
 * input span, an output span, and the TableKey naming the evaluator
 * configuration); the single pipeline consumer pops waves.
 *
 * Coalescing is FIFO-fair: a wave adopts the table *and tenant* of
 * the oldest queued request and then absorbs, in arrival order, every
 * request with the same key and tenant until the element budget is
 * reached (tenants have independent SLAs, so their elements never mix
 * in one wave; the default tenant 0 reproduces the tenant-oblivious
 * batching exactly).
 * Requests larger than one wave are consumed incrementally — the
 * queue advances their spans in place, so a 10-wave request simply
 * yields ten consecutive waves without copying.
 *
 * Storage is one FIFO *lane* per (table hash, tenant) plus an ordered
 * index of lane heads keyed by each lane's oldest request id. A pop
 * takes the lowest-id head and sweeps only that lane, so its cost is
 * O(log lanes + requests it touches) — independent of how many other
 * requests are queued — and depth()/queuedElements() are counters.
 */

#ifndef TPL_PIMSIM_SERVE_BATCH_QUEUE_H
#define TPL_PIMSIM_SERVE_BATCH_QUEUE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/label.h"

namespace tpl {

namespace obs {
class Journal;
} // namespace obs

namespace sim {
namespace serve {

/**
 * Identity of one table/evaluator configuration. Two requests batch
 * into the same wave (and share one cached table broadcast) iff their
 * keys hash equal; the hash must therefore cover every knob that
 * changes the generated tables (function, method, precision,
 * placement, entry budget, ...). The label is human-readable context
 * for traces and CLI output only. It is interned when assigned (see
 * common/label.h), so a key is two words, copies without allocating,
 * and its label outlives every request, wave and journal record that
 * carries it.
 */
struct TableKey
{
    uint64_t hash = 0;
    Label label;

    bool operator==(const TableKey& o) const { return hash == o.hash; }
};

/**
 * One evaluation request: apply the evaluator named by @p table to
 * @p elements floats at @p input, writing @p elements floats to
 * @p output. Both spans must stay valid until the pipeline run that
 * consumed the request returns.
 */
struct Request
{
    uint64_t id = 0; ///< assigned by BatchQueue::push
    TableKey table;
    /** Owning tenant: requests of different tenants never share a
     * wave (their SLAs — and thus the tuner's table choice — may
     * differ). The default tenant 0 keeps single-tenant workloads
     * byte-identical to the pre-tenant queue. */
    uint64_t tenant = 0;
    const float* input = nullptr;
    float* output = nullptr;
    uint64_t elements = 0;
    /** Modeled arrival time (seconds). The producer stamps it — trace
     * replay uses offered timestamps, synthetic load uses 0 — and the
     * journal's queue-wait accounting measures from it. Never a wall
     * clock, so latency records are bit-identical at any thread
     * count. */
    double arrivalSeconds = 0.0;
};

/** A contiguous piece of one request scheduled into a wave. */
struct WaveItem
{
    uint64_t requestId = 0;
    const float* input = nullptr;
    float* output = nullptr;
    uint64_t elements = 0;
    double arrivalSeconds = 0.0; ///< copied from the parent request
    /** True iff this item carries the *tail* of its request — the
     * queue set it when the sweep fully consumed the request. The
     * pipeline uses it (plus element accounting) to detect request
     * completion without a queue round-trip. */
    bool last = false;
};

/** One batched unit of work: same-table items, at most the element
 * budget the pipeline asked for. */
struct Wave
{
    TableKey table;
    uint64_t tenant = 0; ///< every item's owner (waves are per-tenant)
    std::vector<WaveItem> items;
    /** Requests fully consumed from the queue while building this
     * wave (partials still queued do not count). */
    uint32_t requestsClosed = 0;

    uint64_t
    elements() const
    {
        uint64_t n = 0;
        for (const WaveItem& it : items)
            n += it.elements;
        return n;
    }
};

/**
 * The multi-producer / single-consumer queue. push() never blocks;
 * popWave() blocks until a request is available or the queue has been
 * closed and drained.
 */
class BatchQueue
{
  public:
    /** Enqueue @p request (its id field is overwritten).
     * @return the assigned monotonically increasing request id. */
    uint64_t push(Request request);

    /**
     * Build the next wave with at most @p maxElements elements.
     * Blocks while the queue is empty and open; returns std::nullopt
     * once the queue is closed and fully drained. @p maxElements of 0
     * is treated as 1 (a wave always makes progress).
     */
    std::optional<Wave> popWave(uint64_t maxElements);

    /** Mark the end of input: once drained, popWave returns nullopt
     * and further push() calls are rejected (return 0). */
    void close();

    bool closed() const;

    /** Requests currently queued (partially consumed ones count).
     * O(1). */
    size_t depth() const;

    /** Elements currently queued. O(1). */
    uint64_t queuedElements() const;

    /** Total requests ever accepted by push(). */
    uint64_t totalPushed() const;

    /**
     * Attach a journal: every push() records an `enqueue` span event
     * stamped at the request's arrivalSeconds. nullptr detaches;
     * off-path costs nothing (one pointer test under the push lock),
     * and neither does a journal whose event capture is off.
     */
    void setJournal(obs::Journal* journal);

  private:
    /** Requests of one (table hash, tenant), oldest first. */
    using Lane = std::deque<Request>;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    /** Lanes are kept once created (their number is bounded by the
     * configurations in use), so the head index may point into them. */
    std::map<std::pair<uint64_t, uint64_t>, Lane> lanes_;
    /** Non-empty lanes keyed by the id of their front request; the
     * first entry holds the oldest queued request. */
    std::map<uint64_t, Lane*> heads_;
    size_t depth_ = 0;
    uint64_t queuedElements_ = 0;
    bool closed_ = false;
    uint64_t nextId_ = 1;
    uint64_t totalPushed_ = 0;
    obs::Journal* journal_ = nullptr;
};

} // namespace serve
} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_SERVE_BATCH_QUEUE_H
