/**
 * @file
 * Batch execution support for the transpim evaluators.
 *
 * The batch path runs the same templated per-element bodies as the
 * scalar path, but instantiated with BatchSink instead of SinkRef:
 * charges become inlined array adds (no virtual dispatch), the
 * softfloat cores take their fast-value lane (host IEEE arithmetic,
 * canonical-NaN-patched — bit-identical by the locked differential
 * property), and the accumulated totals are flushed to the real
 * InstrSink once per batch through the bulk chargeClassN/noteN hooks.
 * MRAM table reads still go through the tasklet's DMA model per
 * element (same DMA event sequence, so fault injection and DMA-engine
 * occupancy are unchanged); BatchSink caches the TaskletContext*
 * lookup once per batch instead of one dynamic_cast per read.
 *
 * Each body with a block lane is written once, over a lane
 * (softfloat_lanes.h; softfloat_core.h states the fast-value
 * contract): its per-element lane and its block lane are two
 * instantiations. The CORDIC iterations are one body over the register
 * width W (cordic_detail::iterateLanesT, iterateFixedT): per call they
 * resolve a host or WRAM angle table once (LutStore::viewT), run in
 * host arithmetic with sign-bit flips in place of the add/sub
 * branches, and add the call's charge and note totals once through
 * chargeClassWide/noteWide. At W = 1, the per-element lane, an MRAM
 * angle table is still read one readT per iteration.
 *
 * runBatch (evaluator.cc) runs every body; one with a block lane runs
 * blocks of four vectors, then of one, and the remainder per element.
 * A CORDIC body that makes exactly one unconditional engine call is a
 * staged body (pre stage, engine, post stage): a block runs every pre
 * stage, then its iterations together at W = Vectors * simdLanes (one
 * element per SIMD lane), then every post stage. Only the order of
 * work across a block's elements changes: BatchTally's totals are
 * sums, and the block lane runs only over a host or WRAM angle table,
 * so no DMA happens in between. MRAM tables take the per-element lane.
 *
 * The polynomial body that Cndf, Gelu and Erf share (PolyCndf) runs,
 * between per-element pre and post stages, every softfloat step of a
 * block's cndf in the vector lane, each lane with its scalar core's
 * value; the block's charges and notes are added once. A block where
 * any lane leaves a fast path (a special or subnormal operand, ldexp
 * underflow or overflow, a conversion outside its exact range) is
 * discarded and runs per element, which charges what the emulated
 * cores charge.
 */

#ifndef TPL_TRANSPIM_BATCH_H
#define TPL_TRANSPIM_BATCH_H

#include <array>
#include <cstdint>

#include "common/instr_sink.h"
#include "pimsim/dpu.h"

namespace tpl {
namespace transpim {

/**
 * Per-batch accounting summary an evalBatch call can return: how many
 * elements ran and the instruction/operation totals their evaluation
 * charged (the same totals the underlying sink received).
 */
struct BatchStats
{
    uint64_t elements = 0;

    /** Instructions charged, partitioned by InstrClass. */
    std::array<uint64_t, numInstrClasses> classInstructions{};

    /** High-level operations noted, partitioned by OpClass. */
    std::array<uint64_t, numOpClasses> opCounts{};

    /** Total instructions across all classes. */
    uint64_t
    totalInstructions() const
    {
        uint64_t t = 0;
        for (uint64_t v : classInstructions)
            t += v;
        return t;
    }

    /** Zero all fields. */
    void
    reset()
    {
        elements = 0;
        classInstructions = {};
        opCounts = {};
    }
};

/**
 * The batch path's Sink: a BatchTally plus the underlying InstrSink
 * (for the once-per-batch flush) and its cached TaskletContext view
 * (for DMA-modelled MRAM reads). Opts into the softfloat fast-value
 * lane.
 */
class BatchSink
{
  public:
    /** Sinks may be null (value-only evaluation, like a null sink). */
    explicit BatchSink(InstrSink* real)
        : real_(real), ctx_(dynamic_cast<sim::TaskletContext*>(real))
    {}

    BatchSink(const BatchSink&) = delete;
    BatchSink& operator=(const BatchSink&) = delete;

    static constexpr bool fastValues = true;

    void charge(uint32_t instructions) { tally_.charge(instructions); }

    void
    chargeClass(InstrClass cls, uint32_t instructions)
    {
        tally_.chargeClass(cls, instructions);
    }

    void note(OpClass op) { tally_.note(op); }

    /** 64-bit classed add: an engine lane's per-call total. */
    void
    chargeClassWide(InstrClass cls, uint64_t instructions)
    {
        tally_.chargeClassWide(cls, instructions);
    }

    /** 64-bit operation add: an engine lane's per-call total. */
    void noteWide(OpClass op, uint64_t n) { tally_.noteWide(op, n); }

    /** The wrapped sink (may be null). */
    InstrSink* raw() const { return real_; }

    /** Cached tasklet view of the wrapped sink (may be null). */
    sim::TaskletContext* tasklet() const { return ctx_; }

    /** Accumulated-but-unflushed charges. */
    const BatchTally& tally() const { return tally_; }

    /**
     * Flush the accumulated charges to the wrapped sink (one bulk call
     * per non-zero class), add them into @p stats when given, and
     * reset the tally for the next batch.
     */
    void
    flush(BatchStats* stats = nullptr)
    {
        tally_.flushTo(real_);
        if (stats) {
            for (int c = 0; c < numInstrClasses; ++c)
                stats->classInstructions[c] +=
                    tally_.classInstructions()[c];
            for (int o = 0; o < numOpClasses; ++o)
                stats->opCounts[o] += tally_.opCounts()[o];
        }
        tally_.reset();
    }

  private:
    BatchTally tally_;
    InstrSink* real_;
    sim::TaskletContext* ctx_;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_BATCH_H
