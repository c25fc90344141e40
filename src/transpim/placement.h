/**
 * @file
 * Table storage with WRAM/MRAM placement and access-cost accounting.
 *
 * Every LUT-based method (and the CORDIC angle tables) stores its
 * entries through LutStore. The store owns the authoritative host-side
 * copy generated at setup time; attach() places a copy into a simulated
 * DPU's scratchpad (WRAM) or DRAM bank (MRAM), after which reads charge
 * the corresponding access cost. One host-side table may be attached to
 * many cores (generate once, copy per core, as TransPimLib's setup
 * does): every copy sits at the same address, and a read inside a
 * kernel fetches from the *executing* tasklet's core, so each DPU sees
 * its own copy — including any fault injected into it. Reads without a
 * tasklet fall back to the core attached last.
 *
 *  - WRAM: one pipelined load plus address arithmetic.
 *  - MRAM: an 8-byte-aligned DMA transfer through the DPU's DMA model
 *    (engine occupancy + tasklet stall), which is how a real DPU reads
 *    a random table entry from its bank.
 *
 * Placing a LUT in WRAM limits its size (the paper's Section 4.2.1
 * observation that scratchpad capacity caps the accuracy of
 * non-interpolated methods); attach() throws std::bad_alloc when a
 * table does not fit, and the benchmark harness reports the
 * configuration as infeasible.
 */

#ifndef TPL_TRANSPIM_PLACEMENT_H
#define TPL_TRANSPIM_PLACEMENT_H

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/instr_sink.h"
#include "pimsim/dpu.h"

namespace tpl {
namespace transpim {

/** Where a method's tables live on the PIM core. */
enum class Placement
{
    Host, ///< not attached; host-side evaluation (tests, references)
    Wram, ///< PIM core scratchpad (fast, 64 KB)
    Mram, ///< PIM core DRAM bank (large, DMA accessed)
};

/** Name for reports. */
inline const char*
placementName(Placement p)
{
    switch (p) {
      case Placement::Host: return "host";
      case Placement::Wram: return "WRAM";
      case Placement::Mram: return "MRAM";
    }
    return "?";
}

/**
 * Resolve the simulator tasklet context behind a Sink, for DMA-modelled
 * MRAM table reads. Batch sinks cache the TaskletContext* once per
 * batch and expose it as tasklet(); the InstrSink*-backed sinks
 * (SinkRef) fall back to a dynamic_cast per read, which is exactly what
 * the scalar path always did.
 */
template <class S>
inline sim::TaskletContext*
lutTasklet(S& sink)
{
    if constexpr (requires { sink.tasklet(); })
        return sink.tasklet();
    else
        return dynamic_cast<sim::TaskletContext*>(sink.raw());
}

/**
 * Typed table with placement-aware reads.
 *
 * @tparam T entry type; trivially copyable (float, Fixed, small PODs).
 */
template <typename T>
class LutStore
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    LutStore() = default;

    LutStore(std::vector<T> entries, Placement placement)
        : entries_(std::move(entries)), placement_(placement)
    {}

    uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

    /** Bytes this table occupies on the PIM core. */
    uint32_t bytes() const { return size() * sizeof(T); }

    Placement placement() const { return placement_; }

    const std::vector<T>& host() const { return entries_; }

    /**
     * Copy the table into @p core at its configured placement. One
     * store may be attached to many cores, but every copy must land at
     * the same address, since reads resolve one address on whichever
     * core executes them (cores with identical allocation histories
     * always agree).
     * @throws std::bad_alloc when the memory region cannot hold it.
     * @throws std::logic_error when a later copy lands at a different
     *         address than the first.
     */
    void
    attach(sim::DpuCore& core)
    {
        uint32_t addr = 0;
        switch (placement_) {
          case Placement::Host:
            break;
          case Placement::Wram:
            addr = core.wramAlloc(bytes());
            if (bytes() != 0)
                std::memcpy(core.wramData() + addr, entries_.data(),
                            bytes());
            break;
          case Placement::Mram:
            addr = core.mramAlloc(bytes());
            if (bytes() != 0)
                core.hostWriteMram(addr, entries_.data(), bytes());
            break;
        }
        if (core_ != nullptr && addr != addr_)
            throw std::logic_error(
                "LutStore::attach: table copies at different addresses");
        core_ = &core;
        addr_ = addr;
    }

    /** True once attach() has run against a core. */
    bool attached() const { return core_ != nullptr; }

    /**
     * Read entry @p index, charging the placement-specific cost
     * (sink-template; the batch path inlines it).
     * Out-of-range indices are a logic error in the calling method.
     */
    template <class S>
    T
    readT(uint32_t index, S& sink) const
    {
        if (index >= entries_.size())
            throw std::out_of_range("LutStore index");
        sink.note(OpClass::TableRead);
        if (core_ == nullptr || placement_ == Placement::Host) {
            // Host-side evaluation: charge the WRAM-equivalent cost so
            // instruction counts stay comparable in pure-host tests.
            sink.charge(2);
            return entries_[index];
        }
        if (placement_ == Placement::Wram) {
            // Address arithmetic plus one pipelined WRAM load, from
            // the executing core's copy.
            sink.charge(2);
            sim::TaskletContext* ctx = lutTasklet(sink);
            const sim::DpuCore& core = ctx ? ctx->core() : *core_;
            T value;
            std::memcpy(&value, core.wramData() + addr_ +
                                    index * sizeof(T),
                        sizeof(T));
            return value;
        }
        // MRAM: issue an aligned DMA for the containing 8-byte blocks.
        uint32_t byteOff = addr_ + index * sizeof(T);
        uint32_t first = byteOff & ~7u;
        uint32_t last = (byteOff + sizeof(T) + 7u) & ~7u;
        alignas(8) unsigned char block[16 + sizeof(T)];
        if (sim::TaskletContext* ctx = lutTasklet(sink)) {
            ctx->mramRead(first, block, last - first);
        } else {
            // No DMA model available: approximate the stall as
            // instructions so costs remain visible.
            sink.charge(8);
            std::memcpy(block, core_->mramData() + first, last - first);
        }
        T value;
        std::memcpy(&value, block + (byteOff - first), sizeof(T));
        return value;
    }

    /**
     * Read entry @p index, charging the placement-specific cost.
     * Out-of-range indices are a logic error in the calling method.
     */
    T
    read(uint32_t index, InstrSink* sink) const
    {
        SinkRef s(sink);
        return readT(index, s);
    }

  private:
    std::vector<T> entries_;
    Placement placement_ = Placement::Host;
    sim::DpuCore* core_ = nullptr;
    uint32_t addr_ = 0;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_PLACEMENT_H
