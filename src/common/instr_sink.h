/**
 * @file
 * Instruction-count sink interface.
 *
 * Every emulated operation in the reproduction (soft-float arithmetic,
 * emulated integer multiply/divide, LUT address generation, ...) reports
 * how many native DPU instructions it executed through this interface.
 * The PIM simulator implements it to accumulate per-tasklet cycle
 * counts; passing a null sink runs the same value semantics without
 * accounting (useful on the host side and in pure-numerics tests).
 */

#ifndef TPL_COMMON_INSTR_SINK_H
#define TPL_COMMON_INSTR_SINK_H

#include <array>
#include <cstdint>

namespace tpl {

/**
 * Classes of high-level operations the library executes. Emulated
 * routines report one event per operation *in addition to* their
 * instruction charge, so architecture studies can re-cost a method's
 * operation mix under a different PIM processing element (e.g. an
 * HBM-PIM-style PE with native floating point).
 */
enum class OpClass
{
    FloatAdd,  ///< add/sub (emulated on UPMEM, native elsewhere)
    FloatMul,
    FloatDiv,
    FloatSqrt,
    FloatCmp,
    FloatConv, ///< float<->int/fixed conversions
    Ldexp,     ///< exponent-add scaling
    IntMul,    ///< emulated 32-bit integer multiply
    IntDiv,
    TableRead, ///< one LUT query
};

/** Number of OpClass enumerators (array sizing). */
inline constexpr int numOpClasses = 10;

/** Stable short name of an operation class, e.g. "float_mul"
 * (metric/JSON keys; transpim's opClassName has the display names). */
inline const char*
opClassSlug(OpClass op)
{
    switch (op) {
      case OpClass::FloatAdd: return "float_add";
      case OpClass::FloatMul: return "float_mul";
      case OpClass::FloatDiv: return "float_div";
      case OpClass::FloatSqrt: return "float_sqrt";
      case OpClass::FloatCmp: return "float_cmp";
      case OpClass::FloatConv: return "float_conv";
      case OpClass::Ldexp: return "ldexp";
      case OpClass::IntMul: return "int_mul";
      case OpClass::IntDiv: return "int_div";
      case OpClass::TableRead: return "table_read";
    }
    return "unknown";
}

/**
 * Classes of *native instructions*, for cycle attribution. Where
 * OpClass tallies high-level operations (one FloatMul event per
 * multiply), InstrClass partitions the retired-instruction count
 * itself: every instruction charged through an InstrSink belongs to
 * exactly one class, so the per-class totals sum to the instruction
 * total exactly. The simulator's LaunchStats exposes this partition
 * per launch (plus a stall residual), which is what the obs layer and
 * `pimtrace` break cycles down by.
 */
enum class InstrClass
{
    IntAlu,     ///< native integer ALU / control flow / addressing
    IntMulDiv,  ///< emulated 32-bit multiply/divide expansion steps
    SoftFloat,  ///< software floating-point emulation (tpl::sf)
    WramAccess, ///< WRAM loads/stores
    DmaIssue,   ///< instructions issuing MRAM<->WRAM DMA transfers
    Barrier,    ///< barrier_wait issue slots
};

/** Number of InstrClass enumerators (array sizing). */
inline constexpr int numInstrClasses = 6;

/** Stable short name of an instruction class, e.g. "softfloat". */
inline const char*
instrClassName(InstrClass c)
{
    switch (c) {
      case InstrClass::IntAlu: return "int_alu";
      case InstrClass::IntMulDiv: return "int_muldiv";
      case InstrClass::SoftFloat: return "softfloat";
      case InstrClass::WramAccess: return "wram_access";
      case InstrClass::DmaIssue: return "dma_issue";
      case InstrClass::Barrier: return "barrier";
    }
    return "unknown";
}

/** Receiver for native-instruction counts of emulated operations. */
class InstrSink
{
  public:
    virtual ~InstrSink() = default;

    /** Account for @p instructions retired native instructions. */
    virtual void charge(uint32_t instructions) = 0;

    /**
     * Account for @p instructions of class @p cls. The default folds
     * into the untyped charge(), so sinks that do not attribute (the
     * counting/tally sinks) see exactly the totals they always saw;
     * the simulator's TaskletContext overrides this to keep the
     * per-class partition.
     */
    virtual void chargeClass(InstrClass cls, uint32_t instructions)
    {
        (void)cls;
        charge(instructions);
    }

    /** Optional: one high-level operation of class @p op occurred. */
    virtual void note(OpClass op) { (void)op; }

    /**
     * Bulk classed charge: @p n elements each retiring @p perElem
     * instructions of class @p cls. Semantically identical to calling
     * chargeClass(cls, perElem) @p n times; the default chunks the
     * 64-bit total through chargeClass() so every derived sink sees
     * exactly the totals it always saw. TaskletContext and the batch
     * tally sinks override this with a single 64-bit add — the hook
     * that lets the batch execution path flush a whole chunk's charges
     * in O(classes) instead of O(elements).
     */
    virtual void
    chargeClassN(InstrClass cls, uint32_t perElem, uint64_t n)
    {
        uint64_t total = static_cast<uint64_t>(perElem) * n;
        while (total > 0) {
            uint32_t step = total > 0xffffffffull
                                ? 0xffffffffu
                                : static_cast<uint32_t>(total);
            chargeClass(cls, step);
            total -= step;
        }
    }

    /**
     * Bulk note: @p n operations of class @p op occurred. Identical to
     * n note() calls; overridden by counting sinks with one add.
     */
    virtual void
    noteN(OpClass op, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            note(op);
    }
};

/** Charge helper tolerating a null sink. */
inline void
chargeInstr(InstrSink* sink, uint32_t instructions)
{
    if (sink)
        sink->charge(instructions);
}

/** Classed charge helper tolerating a null sink. */
inline void
chargeClassed(InstrSink* sink, InstrClass cls, uint32_t instructions)
{
    if (sink)
        sink->chargeClass(cls, instructions);
}

/** Note helper tolerating a null sink. */
inline void
noteOp(InstrSink* sink, OpClass op)
{
    if (sink)
        sink->note(op);
}

/** Trivial sink that simply counts; used by tests and calibration. */
class CountingSink : public InstrSink
{
  public:
    void charge(uint32_t instructions) override { total_ += instructions; }

    void chargeClassN(InstrClass cls, uint32_t perElem,
                      uint64_t n) override
    {
        (void)cls;
        total_ += static_cast<uint64_t>(perElem) * n;
    }

    /** Total instructions charged so far. */
    uint64_t total() const { return total_; }

    /** Reset the counter to zero. */
    void reset() { total_ = 0; }

  private:
    uint64_t total_ = 0;
};

/**
 * Non-virtual instruction/operation accumulator for batch loops.
 *
 * The templated numeric cores (tpl::sf's softfloat_core.h, the
 * transpim evaluator bodies) are generic over a Sink type with the
 * same charge/chargeClass/note member shapes as InstrSink but without
 * virtual dispatch. BatchTally is the batch-path sink: per-element
 * charges become inlined array adds, and the accumulated totals are
 * flushed to a real InstrSink once per batch through the bulk
 * chargeClassN/noteN hooks. Because every per-element code path runs
 * the *same* template with this sink as with SinkRef, the flushed
 * totals are bit-identical to the scalar path's by construction.
 */
class BatchTally
{
  public:
    void
    charge(uint32_t instructions)
    {
        classInstr_[static_cast<int>(InstrClass::IntAlu)] +=
            instructions;
    }

    void
    chargeClass(InstrClass cls, uint32_t instructions)
    {
        classInstr_[static_cast<int>(cls)] += instructions;
    }

    void note(OpClass op) { ++ops_[static_cast<int>(op)]; }

    /** 64-bit classed add (bulk flushes from nested tallies). */
    void
    chargeClassWide(InstrClass cls, uint64_t instructions)
    {
        classInstr_[static_cast<int>(cls)] += instructions;
    }

    /** 64-bit operation add. */
    void
    noteWide(OpClass op, uint64_t n)
    {
        ops_[static_cast<int>(op)] += n;
    }

    /** Accumulated instructions per InstrClass. */
    const std::array<uint64_t, numInstrClasses>& classInstructions() const
    {
        return classInstr_;
    }

    /** Accumulated operations per OpClass. */
    const std::array<uint64_t, numOpClasses>& opCounts() const
    {
        return ops_;
    }

    /** Total instructions accumulated across all classes. */
    uint64_t
    totalInstructions() const
    {
        uint64_t t = 0;
        for (uint64_t v : classInstr_)
            t += v;
        return t;
    }

    /** Forward the accumulated totals to @p sink (null tolerated). */
    void
    flushTo(InstrSink* sink) const
    {
        if (!sink)
            return;
        for (int c = 0; c < numInstrClasses; ++c)
            if (classInstr_[c])
                sink->chargeClassN(static_cast<InstrClass>(c), 1,
                                   classInstr_[c]);
        for (int o = 0; o < numOpClasses; ++o)
            if (ops_[o])
                sink->noteN(static_cast<OpClass>(o), ops_[o]);
    }

    /** Zero all accumulators. */
    void
    reset()
    {
        classInstr_ = {};
        ops_ = {};
    }

    /** No underlying InstrSink (Sink-shape compatibility). */
    InstrSink* raw() const { return nullptr; }

  private:
    std::array<uint64_t, numInstrClasses> classInstr_{};
    std::array<uint64_t, numOpClasses> ops_{};
};

/**
 * Pointer-to-InstrSink adapter satisfying the non-virtual Sink shape
 * the templated cores expect. Wraps a possibly-null InstrSink*; the
 * scalar public entry points (sf::add(a, b, sink), Evaluator::eval)
 * are exactly the templated cores instantiated with SinkRef, so the
 * scalar and batch paths can never diverge in what they charge.
 */
class SinkRef
{
  public:
    explicit SinkRef(InstrSink* sink) : sink_(sink) {}

    void
    charge(uint32_t instructions)
    {
        if (sink_)
            sink_->charge(instructions);
    }

    void
    chargeClass(InstrClass cls, uint32_t instructions)
    {
        if (sink_)
            sink_->chargeClass(cls, instructions);
    }

    void
    note(OpClass op)
    {
        if (sink_)
            sink_->note(op);
    }

    /** The wrapped sink (may be null). */
    InstrSink* raw() const { return sink_; }

  private:
    InstrSink* sink_;
};

/** Sink that discards everything; host-side value-only evaluation. */
class NullSink
{
  public:
    void charge(uint32_t) {}
    void chargeClass(InstrClass, uint32_t) {}
    void note(OpClass) {}
    InstrSink* raw() const { return nullptr; }
};

} // namespace tpl

#endif // TPL_COMMON_INSTR_SINK_H
