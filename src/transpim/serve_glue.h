/**
 * @file
 * Glue between the generic serve layer (pimsim/serve) and transpim
 * evaluators: the TableKey hash for a (function, method spec) pair,
 * the catalog that resolves keys back to evaluator configurations,
 * and the shared streaming kernel both the single-DPU microbenchmark
 * and the serve pipeline run per slice.
 *
 * The split keeps the dependency arrow pointing one way: tpl_pimserve
 * knows nothing about evaluators; this file (in tpl_transpim) teaches
 * it how to build tables for transcendental-function requests.
 */

#ifndef TPL_TRANSPIM_SERVE_GLUE_H
#define TPL_TRANSPIM_SERVE_GLUE_H

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "pimsim/serve/pipeline.h"
#include "transpim/evaluator.h"

namespace tpl {
namespace transpim {

/**
 * Stable identity of one (function, spec) configuration as a serve
 * TableKey: an FNV-1a hash over the function and every table-shaping
 * knob of the spec, labeled "sin/L-LUT interp. (WRAM, 2^12)"-style.
 * Requests with equal keys share one cached table broadcast.
 */
sim::serve::TableKey batchTableKey(Function f, const MethodSpec& spec);

/**
 * Per-slice streaming kernel of runMicrobench (256-element chunks);
 * EvaluatorCatalog's serve kernels run the same body, but reference
 * their slice instead of copying it. Each tasklet claims chunks of
 * @p chunkElems elements round-robin, DMAs them into WRAM, evaluates
 * them with @p ev's evalBatch, and DMAs the results back. @p ev must
 * outlive the returned kernel (it is captured by pointer); one
 * evaluator attached to every core serves them all, each core
 * reading the tables through its own mapping of the one host copy.
 * @p chunkElems is clamped to [1, 256]; keep it small enough that
 * elements/chunkElems >= tasklets, or tail tasklets idle.
 */
sim::Kernel makeStreamingKernel(const FunctionEvaluator& ev,
                                const sim::ShardTask& task,
                                uint32_t chunkElems);

/**
 * A registry of evaluator configurations addressable by TableKey,
 * plus the TableProvider that realizes them on a PimSystem: at bind
 * time it generates a key's tables once and every core maps that one
 * host copy copy-on-write (LutStore::attach), so a bind costs one
 * table, not one per DPU, while each core still allocates the tables'
 * footprint. A bind is all or nothing: when a table does not fit,
 * every core it touched is rolled back. Register every configuration
 * a request trace uses, then hand provider() to the ServePipeline;
 * the catalog must outlive the pipeline run (the bound tables may
 * outlive both: the cores keep them alive).
 */
class EvaluatorCatalog
{
  public:
    /** Register @p f with @p spec; returns (and remembers) its key.
     * Re-adding an equal configuration only hashes it and returns the
     * remembered key. */
    sim::serve::TableKey add(Function f, const MethodSpec& spec);

    /** Streaming-kernel chunk size of the serve kernels (clamped to
     * [1, 256] at bind time, as in makeStreamingKernel). */
    void setChunkElements(uint32_t n) { chunkElems_ = n; }
    uint32_t chunkElements() const { return chunkElems_; }

    /** Number of registered configurations. */
    size_t size() const { return entries_.size(); }

    /** The (function, spec) registered under @p keyHash, if any —
     * how the online tuner recovers evaluator configurations from
     * the serve layer's opaque TableKeys. */
    std::optional<std::pair<Function, MethodSpec>>
    find(uint64_t keyHash) const
    {
        auto it = entries_.find(keyHash);
        if (it == entries_.end())
            return std::nullopt;
        return std::make_pair(it->second.function, it->second.spec);
    }

    /**
     * The TableProvider for ServePipeline/TableCache. Binds `this`:
     * the catalog must outlive every pipeline using the provider.
     * Unknown keys and infeasible configurations (unsupported
     * combination, a spec no table can be built for such as
     * log2Entries 0 or >= 32 for an L-LUT, tables exceeding core
     * memory or the 32-bit address space) yield an invalid binding —
     * the pipeline drops those requests instead of throwing.
     */
    sim::serve::TableProvider provider() const;

  private:
    struct Entry
    {
        Function function = Function::Sin;
        MethodSpec spec;
        sim::serve::TableKey key;
    };

    std::map<uint64_t, Entry> entries_;
    uint32_t chunkElems_ = 32;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_SERVE_GLUE_H
