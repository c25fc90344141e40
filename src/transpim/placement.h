/**
 * @file
 * Table storage with WRAM/MRAM placement and access-cost accounting.
 *
 * Every LUT-based method (and the CORDIC angle tables) stores its
 * entries through LutStore. The store owns the one host-side copy,
 * generated at setup time. attach() places the table on a simulated
 * DPU's scratchpad (WRAM) or DRAM bank (MRAM) the way TransPimLib's
 * setup copies it there: the core allocates the table's range, so its
 * allocation totals (Figure 7) are those of a real copy. The bytes,
 * though, are not copied: the core maps the host copy as a shared
 * read-only region (DpuCore::mapShared), so one host table per store
 * serves any number of cores. Reads then charge the placement's
 * access cost.
 *
 * One store may be attached to many cores: every core holds it at the
 * same address and region index, and a read inside a kernel fetches
 * through the *executing* tasklet's core. The first write into a
 * core's region — a host or DMA write, a raw-pointer poke, an injected
 * fault — gives that core a private copy, so each DPU still sees its
 * own table, faults included. Reads without a tasklet fall back to the
 * core attached last.
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
 * configuration as infeasible. A table whose bytes exceed the 32-bit
 * address space fails earlier, in checkSize(), before its host copy
 * is generated.
 */

#ifndef TPL_TRANSPIM_PLACEMENT_H
#define TPL_TRANSPIM_PLACEMENT_H

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <span>
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
 * IntAlu instructions of one host- or WRAM-placed table read: address
 * arithmetic plus one pipelined WRAM load.
 */
inline constexpr uint32_t lutReadCost = 2;

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
 * A table's entries as one evaluation call sees them (LutStore::viewT):
 * the host copy, or the executing core's WRAM view of it. Reads copy
 * the bytes out, as readT does, and charge nothing.
 */
template <typename T>
class LutView
{
  public:
    explicit LutView(const uint8_t* bytes) : bytes_(bytes) {}

    /** False for an MRAM table, which has no view. */
    explicit operator bool() const { return bytes_ != nullptr; }

    /** Entry @p index (unchecked; the caller stays within size()). */
    T
    operator[](uint32_t index) const
    {
        T value;
        std::memcpy(&value, bytes_ + std::size_t{index} * sizeof(T),
                    sizeof(T));
        return value;
    }

  private:
    const uint8_t* bytes_;
};

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

    /** @throws std::bad_alloc when checkSize(entries.size()) does. */
    LutStore(const std::vector<T>& entries, Placement placement)
        : size_(checkSize(entries.size())),
          placement_(placement),
          // Zero-padded to whole 8-byte blocks: an MRAM read of the
          // last entry DMAs the aligned block around it.
          image_(std::make_shared<T[]>(
              (((bytes() + 7u) & ~7u) + sizeof(T) - 1) / sizeof(T)))
    {
        std::copy(entries.begin(), entries.end(), image_.get());
    }

    /**
     * The entry count of a table of @p entries entries, checked to fit
     * a PIM core's 32-bit address space with its 8-byte padding.
     * Table builders call it before they generate the entries, so an
     * oversized configuration is refused without building its host
     * copy.
     * @throws std::bad_alloc when the table's bytes do not fit.
     */
    static uint32_t
    checkSize(uint64_t entries)
    {
        if (entries > 0xfffffff8u / sizeof(T))
            throw std::bad_alloc();
        return static_cast<uint32_t>(entries);
    }

    uint32_t size() const { return size_; }

    /** Bytes this table occupies on the PIM core. */
    uint32_t bytes() const { return size_ * sizeof(T); }

    Placement placement() const { return placement_; }

    /** The host-side entries. */
    std::span<const T> host() const { return {image_.get(), size_}; }

    /**
     * Place the table on @p core at its configured placement: the core
     * allocates the range and maps the shared host copy there. One
     * store may be attached to many cores, but every core must place
     * it at the same address and region index, since reads resolve
     * them on whichever core executes them (cores with identical
     * allocation histories always agree).
     * @throws std::bad_alloc when the memory region cannot hold it.
     * @throws std::logic_error when a later core places it differently
     *         than the first.
     */
    void
    attach(sim::DpuCore& core)
    {
        sim::DpuCore::Mapping m;
        if (placement_ != Placement::Host)
            m = core.mapShared(placement_ == Placement::Wram
                                   ? sim::MemSpace::Wram
                                   : sim::MemSpace::Mram,
                               reinterpret_cast<const uint8_t*>(
                                   image_.get()),
                               bytes(), image_);
        if (core_ != nullptr &&
            (m.addr != addr_ || m.region != region_))
            throw std::logic_error(
                "LutStore::attach: table copies at different addresses");
        core_ = &core;
        addr_ = m.addr;
        region_ = m.region;
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
        if (index >= size_)
            throw std::out_of_range("LutStore index");
        sink.note(OpClass::TableRead);
        if (LutView<T> view = viewT(sink)) {
            // Address arithmetic plus one pipelined WRAM load, through
            // the executing core's view of the table. Host-side
            // evaluation charges the same, so instruction counts stay
            // comparable in pure-host tests.
            sink.charge(lutReadCost);
            return view[index];
        }
        // MRAM: issue an aligned DMA for the containing 8-byte blocks.
        T value;
        uint32_t byteOff = addr_ + index * sizeof(T);
        uint32_t first = byteOff & ~7u;
        uint32_t last = (byteOff + sizeof(T) + 7u) & ~7u;
        alignas(8) unsigned char block[16 + sizeof(T)];
        if (sim::TaskletContext* ctx = lutTasklet(sink)) {
            ctx->mramReadRegion(region_, first, block, last - first);
        } else {
            // No DMA model available: approximate the stall as
            // instructions so costs remain visible.
            sink.charge(8);
            std::memcpy(block, core_->regionView(region_) + (first - addr_),
                        last - first);
        }
        std::memcpy(&value, block + (byteOff - first), sizeof(T));
        return value;
    }

    /**
     * The entries one evaluation call reads, resolved once per call
     * (the CORDIC engines' fast-value lane): the host copy when the
     * table is unattached or host-placed, the executing core's view
     * for WRAM. MRAM tables return an empty view; their reads must
     * stay per-entry readT calls so each one is a modeled DMA. Reading
     * a view charges nothing: the caller charges each read as readT
     * does (one TableRead note and lutReadCost IntAlu instructions).
     */
    template <class S>
    LutView<T>
    viewT(S& sink) const
    {
        if (core_ == nullptr || placement_ == Placement::Host)
            return LutView<T>(
                reinterpret_cast<const uint8_t*>(image_.get()));
        if (placement_ == Placement::Wram) {
            sim::TaskletContext* ctx = lutTasklet(sink);
            const sim::DpuCore& core = ctx ? ctx->core() : *core_;
            return LutView<T>(core.regionView(region_));
        }
        return LutView<T>(nullptr);
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
    uint32_t size_ = 0;
    Placement placement_ = Placement::Host;
    /** The host copy every attached core maps (8-byte padded). */
    std::shared_ptr<T[]> image_;
    sim::DpuCore* core_ = nullptr;
    uint32_t addr_ = 0;
    uint32_t region_ = 0;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_PLACEMENT_H
