/**
 * @file
 * pimserve piece 2: the table/LUT cache.
 *
 * Maps a TableKey to a TableBinding: the per-core kernel factory plus
 * the modeled footprint of the tables the configuration needs on each
 * DPU. The first lookup of a key calls the caller-supplied
 * TableProvider, which generates the tables once and attaches them to
 * every core (each core allocates the footprint and maps the one host
 * copy, see DpuCore::mapShared); subsequent lookups are hits. Binding
 * appends to every core's region table, which in-flight kernels read,
 * so the pipeline commits its outstanding wave before a miss. The
 * cache also tracks which transfer lanes (PipelineTimeline) already
 * received each table, so the pipeline charges one modeled MRAM
 * table broadcast per lane that runs it and skips it afterwards — the
 * cache is what makes repeated configurations cheap in a mixed
 * request stream. A flat system is one lane; a fleet has one per
 * rank.
 *
 * The serve layer is generic over what a "table" is: the provider is
 * the only place that knows about transpim evaluators (see
 * transpim::EvaluatorCatalog for the standard one), which keeps
 * tpl_pimserve dependent on tpl_pimsim alone.
 */

#ifndef TPL_PIMSIM_SERVE_TABLE_CACHE_H
#define TPL_PIMSIM_SERVE_TABLE_CACHE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "pimsim/serve/batch_queue.h"
#include "pimsim/system.h"

namespace tpl {
namespace sim {
namespace serve {

/**
 * Everything the pipeline needs to run waves of one configuration.
 * An invalid binding (valid == false) marks a configuration the
 * provider could not realize (unsupported combination, tables too
 * large); it is cached too, so a stream of infeasible requests fails
 * fast instead of re-generating tables.
 */
struct TableBinding
{
    bool valid = false;

    /** Per-core table footprint in bytes (modeled: what each DPU
     * allocates, not host bytes copied). The first lookup on each
     * transfer lane pays one modeled parallel broadcast of this
     * footprint on that lane — a table is broadcast once per lane
     * (rank) that hosts it, never once per DPU. */
    uint32_t tableBytes = 0;

    /** Builds the kernel evaluating one wave slice (reuses the
     * ShardTask shape: dpu, in/out MRAM addresses, element count).
     * Called on simulation pool threads, concurrently for the slices
     * of a wave, so it must be thread-safe. */
    ShardKernelFactory makeKernel;

    /** Opaque owner of whatever the kernels reference (evaluators,
     * tables); kept alive as long as the cache entry lives. */
    std::shared_ptr<void> state;
};

/**
 * Resolves a key to a binding, staging any tables onto the cores of
 * @p system. Called once per distinct key per TableCache; must return
 * an invalid binding (not throw) for infeasible configurations.
 */
using TableProvider =
    std::function<TableBinding(const TableKey&, PimSystem&)>;

/** The per-pipeline cache. Single-consumer, like the pipeline. */
class TableCache
{
  public:
    TableCache(PimSystem& system, TableProvider provider)
        : system_(system), provider_(std::move(provider))
    {
    }

    /**
     * Arm residency tracking for @p lanes transfer lanes (1, the
     * default, is a flat system) and forget which lanes hold which
     * table; cached bindings stay. Lanes 0..lanes-1 become valid
     * arguments to lookup/resident/residency.
     */
    void setLaneCount(uint32_t lanes);

    /** Result of a lookup: the binding, whether the provider had to
     * generate its tables (first sighting), and whether @p lane still
     * had to receive the table (the caller charges one broadcast on
     * the lane). */
    struct Lookup
    {
        const TableBinding* binding = nullptr;
        bool miss = false;
        bool laneMiss = false;
    };

    /**
     * Resolve @p key, consulting the provider on first sighting, and
     * mark the table resident on @p lane. laneMiss is set — and one
     * lane broadcast counted — when a valid binding was not yet
     * resident there.
     */
    Lookup lookup(const TableKey& key, uint32_t lane);

    /** Binding for @p key if cached, else nullptr. No counters move:
     * this is the scheduler's placement peek, not a lookup. */
    const TableBinding* peek(const TableKey& key) const;

    /**
     * Drop @p key from the cache (MRAM-budget arbitration): the next
     * lookup re-consults the provider, and its residency is cleared
     * so every lane that runs it again pays the broadcast again. The
     * old binding object stays alive until the cache is destroyed —
     * an in-flight wave still holding its pointer (one-wave decision
     * lag) keeps a valid table. @return the evicted footprint in bytes
     * (0 when the key was not cached).
     */
    uint32_t evict(const TableKey& key);

    /** Whether @p key's table is resident on @p lane. */
    bool resident(const TableKey& key, uint32_t lane) const;

    /** Number of distinct valid tables resident on @p lane. */
    size_t residency(uint32_t lane) const;

    /** Lane broadcasts charged by lookup since setLaneCount. */
    uint64_t laneBroadcasts() const { return laneBroadcasts_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    size_t size() const { return entries_.size(); }

  private:
    PimSystem& system_;
    TableProvider provider_;
    /** A cached binding and the lanes holding its table. */
    struct Entry
    {
        std::unique_ptr<TableBinding> binding;
        std::vector<bool> resident; ///< indexed by lane
    };

    // Bindings live behind stable pointers: evict() retires the
    // binding instead of destroying it, so pointers handed out by
    // lookup stay valid for the cache's lifetime.
    std::map<uint64_t, Entry> entries_;
    std::vector<std::unique_ptr<TableBinding>> retired_;
    uint32_t laneCount_ = 1;
    uint64_t laneBroadcasts_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace serve
} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_SERVE_TABLE_CACHE_H
