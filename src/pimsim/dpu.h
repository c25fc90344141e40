/**
 * @file
 * Single simulated PIM core (UPMEM terminology: DPU).
 *
 * The model is an instruction-cost simulator, not a functional ISA
 * interpreter: kernels are C-like C++ functions written against the
 * primitive set a DPU offers (native 32-bit integer ops, emulated
 * multiply/divide/floating point, WRAM accesses, MRAM DMA) and every
 * primitive charges the native instructions it would retire. The DPU
 * converts the per-tasklet instruction and DMA totals into cycles with
 * the revolver-pipeline throughput model:
 *
 *   cycles = max( total instructions issued            (issue bound),
 *                 max per-tasklet work * interval      (latency bound),
 *                 DMA engine occupancy )                (DMA bound)
 *
 * which captures the two regimes the UPMEM literature documents: a
 * single tasklet dispatches once per pipelineInterval cycles, and with
 * >= pipelineInterval tasklets the core retires one instruction per
 * cycle.
 */

#ifndef TPL_PIMSIM_DPU_H
#define TPL_PIMSIM_DPU_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "common/instr_sink.h"
#include "pimsim/cost_model.h"

namespace tpl {
namespace sim {

class DpuCore;

namespace check {
class Sanitizer; // pimsim/analysis/sanitizer.h
} // namespace check

namespace fault {
class DpuFaultState; // pimsim/fault/fault.h
} // namespace fault

/**
 * Per-tasklet execution context handed to kernels.
 *
 * Implements InstrSink so the soft-float and emulated-integer helpers
 * can charge instructions directly. MRAM accesses go through the DMA
 * model; WRAM is a flat byte array owned by the core.
 */
class TaskletContext : public InstrSink
{
  public:
    TaskletContext(DpuCore& core, uint32_t id, uint32_t numTasklets)
        : core_(core), id_(id), numTasklets_(numTasklets)
    {}

    /** SPMD rank of this tasklet within the DPU. */
    uint32_t taskletId() const { return id_; }

    /** Number of tasklets launched with the kernel. */
    uint32_t numTasklets() const { return numTasklets_; }

    /** Charge native instructions (loop control, addressing, ALU). */
    void charge(uint32_t instructions) override
    {
        chargeClass(InstrClass::IntAlu, instructions);
    }

    /**
     * Classed charge: every instruction lands in exactly one
     * InstrClass bucket, so the per-class totals partition the
     * instruction total (the basis of the obs layer's cycle
     * attribution). Classless charges count as IntAlu.
     */
    void chargeClass(InstrClass cls, uint32_t instructions) override
    {
        instructions_ += instructions;
        classInstr_[static_cast<int>(cls)] += instructions;
    }

    /** Tally high-level operations (FloatMul, TableRead, ...). */
    void note(OpClass op) override
    {
        ++opCounts_[static_cast<int>(op)];
    }

    /**
     * Bulk classed charge (batch execution path): one 64-bit add per
     * class instead of one virtual call per element. Produces exactly
     * the totals @p n chargeClass(cls, perElem) calls would.
     */
    void chargeClassN(InstrClass cls, uint32_t perElem,
                      uint64_t n) override
    {
        uint64_t total = static_cast<uint64_t>(perElem) * n;
        instructions_ += total;
        classInstr_[static_cast<int>(cls)] += total;
    }

    /** Bulk operation tally (batch execution path). */
    void noteN(OpClass op, uint64_t n) override
    {
        opCounts_[static_cast<int>(op)] += n;
    }

    /**
     * DMA read from MRAM into a host-visible buffer (stands in for the
     * tasklet's WRAM chunk). Charges engine occupancy and latency.
     */
    void mramRead(uint32_t mramAddr, void* dst, uint32_t size);

    /** DMA write from a buffer into MRAM. */
    void mramWrite(uint32_t mramAddr, const void* src, uint32_t size);

    /// @name DMA variants carrying an assembly source line so an
    /// attached sanitizer can place its diagnostics (ISA interpreter).
    /// @{
    void mramReadAt(uint32_t mramAddr, void* dst, uint32_t size,
                    uint32_t line);
    void mramWriteAt(uint32_t mramAddr, const void* src, uint32_t size,
                     uint32_t line);
    /// @}

    /**
     * mramRead of a range known to lie inside the core's region
     * @p region (DpuCore::mapShared; up to its size rounded up to 8):
     * the same DMA charges and hooks, served straight from the
     * region's view without searching the region table.
     */
    void mramReadRegion(uint32_t region, uint32_t mramAddr, void* dst,
                        uint32_t size);

    /**
     * Tasklet barrier (UPMEM barrier_wait): charges one issue slot.
     * Tasklets execute sequentially in simulation, so the rendezvous
     * itself is a no-op — but an attached sanitizer advances this
     * tasklet's happens-before epoch here.
     */
    void barrier();

    /** Charge one WRAM access (load or store). */
    void chargeWramAccess(uint32_t accesses = 1);

    /** Total native instructions this tasklet has retired. */
    uint64_t instructions() const { return instructions_; }

    /** Instructions retired per InstrClass (sums to instructions()). */
    const std::array<uint64_t, numInstrClasses>& classInstructions() const
    {
        return classInstr_;
    }

    /** High-level operations noted per OpClass. */
    const std::array<uint64_t, numOpClasses>& opCounts() const
    {
        return opCounts_;
    }

    /** Total DMA latency cycles this tasklet has stalled for. */
    uint64_t dmaStallCycles() const { return dmaStall_; }

    /** The owning core (for WRAM/MRAM region queries). */
    DpuCore& core() { return core_; }

  private:
    friend class DpuCore;

    /** The DMA-read model behind the mramRead variants: @p src is the
     * bytes to deliver, or nullptr to read the bank through its
     * shared regions. */
    void dmaIn(uint32_t mramAddr, void* dst, uint32_t size,
               uint32_t line, const uint8_t* src);

    DpuCore& core_;
    uint32_t id_;
    uint32_t numTasklets_;
    uint64_t instructions_ = 0;
    uint64_t dmaStall_ = 0;
    std::array<uint64_t, numInstrClasses> classInstr_{};
    std::array<uint64_t, numOpClasses> opCounts_{};
};

/** Kernel body executed once per tasklet (SPMD). */
using Kernel = std::function<void(TaskletContext&)>;

/** Per-tasklet slice of a launch (obs layer / pimtrace profile). */
struct TaskletStats
{
    uint64_t instructions = 0;   ///< native instructions retired
    uint64_t dmaStallCycles = 0; ///< DMA latency stalled for
    /** Instructions per InstrClass (sums to instructions). */
    std::array<uint64_t, numInstrClasses> classInstructions{};
};

/**
 * Cycle breakdown of one kernel launch.
 *
 * Cycle attribution: at peak throughput every retired instruction
 * occupies exactly one issue slot, so the per-class instruction
 * counts *are* per-class issue cycles; whatever the launch's binding
 * constraint (tasklet latency, DMA engine) adds on top is the stall
 * residual. The partition is exact:
 *
 *   sum(classInstructions) == totalInstructions
 *   sum(classInstructions) + stallCycles == cycles
 */
struct LaunchStats
{
    uint64_t cycles = 0;            ///< modeled DPU cycles
    uint64_t totalInstructions = 0; ///< across all tasklets
    uint64_t maxTaskletWork = 0;    ///< instr*interval + stalls, max
    uint64_t dmaEngineCycles = 0;   ///< DMA engine occupancy
    uint64_t dmaBytes = 0;          ///< bytes moved by the DMA engine
    uint32_t tasklets = 0;          ///< tasklets launched
    double energyJoules = 0.0;      ///< instruction + DMA energy

    /** True when an armed fault plan hard-failed this core: the
     * kernel did not execute and every other field is zero. */
    bool failed = false;

    /** Fault events an armed plan injected during this launch
     * (bit flips, DMA corruption/timeouts, hard-fail/straggler
     * firings). Always 0 with no plan armed. */
    uint64_t faultEvents = 0;

    /** Issue cycles per InstrClass (sums to totalInstructions). */
    std::array<uint64_t, numInstrClasses> classInstructions{};

    /** Non-issue cycles: cycles - totalInstructions (pipeline
     * under-occupancy or DMA-engine bound). */
    uint64_t stallCycles = 0;

    /** High-level operation tallies (OpClass) across tasklets. */
    std::array<uint64_t, numOpClasses> opCounts{};

    /** Per-tasklet attribution, indexed by tasklet id. */
    std::vector<TaskletStats> perTasklet;
};

/**
 * Fixed-size zero-initialized byte bank backed by one anonymous
 * `mmap`: untouched pages stay the kernel's shared zero page, so a
 * core faults in only the pages it actually writes. A heap-backed bank
 * would not be lazy — the allocator clears reused chunks — and a
 * value-initialized vector would touch all 64 MiB of a modeled MRAM
 * bank up front. Reads of never-written bytes return 0.
 *
 * Each bank is one mapping and a core owns two (MRAM and WRAM), so a
 * 20x2x64 fleet of 2560 cores holds 5 120 mappings, well under the
 * kernel's default `vm.max_map_count` of 65 530.
 */
class ZeroedBank
{
  public:
    /** @throws std::bad_alloc when the mapping fails. */
    explicit ZeroedBank(size_t size);
    ~ZeroedBank();

    ZeroedBank(const ZeroedBank&) = delete;
    ZeroedBank& operator=(const ZeroedBank&) = delete;

    uint8_t* data() { return data_; }
    const uint8_t* data() const { return data_; }
    size_t size() const { return size_; }

  private:
    uint8_t* data_;
    size_t size_;
};

/** The two memories of a core. */
enum class MemSpace : uint8_t
{
    Wram,
    Mram,
};

/**
 * One simulated DPU: a 64-MB MRAM bank, a 64-KB WRAM scratchpad, bump
 * allocators for both (the allocation totals feed the paper's memory-
 * consumption figure), and the launch/cycle model.
 *
 * Shared regions: a read-only host buffer (a generated table) can be
 * mapped into a freshly allocated range instead of being copied, so
 * one host copy serves every core it is attached to. The core still
 * allocates the range, and records the mapping in a region table whose
 * indices — like the addresses — agree across cores with identical
 * allocation histories. Every read of the range sees the shared bytes.
 * The first write into a region (host write, DMA write, a raw
 * `wramData()`/`mramData()` pointer, a fault) *privatizes* it: the
 * bytes are copied into this core's bank, which serves the region from
 * then on, so each core still sees its own copy and its own faults.
 * Attaching a sanitizer or a fault plan privatizes every region.
 */
class DpuCore
{
  public:
    explicit DpuCore(const CostModel& model = CostModel{});

    /** Cost-model parameters in effect. */
    const CostModel& model() const { return model_; }

    /// @name Host-side MRAM access (CPU-DPU / DPU-CPU transfers).
    /// @{
    void hostWriteMram(uint32_t addr, const void* src, uint32_t size);
    void hostReadMram(uint32_t addr, void* dst, uint32_t size) const;
    /// @}

    /// @name Host-side WRAM staging.
    /// Bounds-checked, and — unlike raw `wramData()` pokes — marks the
    /// bytes initialized in an attached sanitizer's shadow, the way a
    /// real host copy to a WRAM symbol legitimately initializes it.
    /// @{
    void hostWriteWram(uint32_t addr, const void* src, uint32_t size);
    void hostReadWram(uint32_t addr, void* dst, uint32_t size) const;
    /// @}

    /**
     * Attach (or, with nullptr, detach) a runtime sanitizer. Off by
     * default; the core does not own the sanitizer. While attached,
     * every simulated WRAM/MRAM access and DMA is checked — purely
     * observationally, so modeled statistics are unchanged. Attaching
     * one privatizes every shared region.
     */
    void setSanitizer(check::Sanitizer* sanitizer);

    /** The attached sanitizer, or nullptr. */
    check::Sanitizer* sanitizer() const { return sanitizer_; }

    /**
     * Attach (or, with nullptr, detach) this core's slice of an armed
     * fault plan. Off by default; the core does not own the state
     * (PimSystem::armFaults does). While attached, launches, tasklet
     * DMA and memory writes consult the plan — with no plan, or a
     * plan whose specs never fire, every modeled statistic is
     * bit-identical to the unfaulted run (tests/fault_test.cc).
     * Attaching a state privatizes every shared region.
     */
    void setFaultState(fault::DpuFaultState* faults);

    /** The attached fault state, or nullptr. */
    fault::DpuFaultState* faultState() const { return faults_; }

    /**
     * Allocate @p size bytes of MRAM (8-byte aligned bump allocator).
     * The end of the allocation is computed in 64 bits, so a request
     * past the bank throws std::bad_alloc rather than wrapping.
     * @return the MRAM address of the allocation.
     */
    uint32_t mramAlloc(uint64_t size);

    /** Allocate WRAM (8-byte aligned bump allocator; throws
     * std::bad_alloc past the scratchpad, like mramAlloc). */
    uint32_t wramAlloc(uint64_t size);

    /** Reset both allocators and drop every shared region (new
     * kernel program; tables attached before must be re-attached). */
    void resetAllocators();

    /** Where mapShared placed a buffer. */
    struct Mapping
    {
        uint32_t addr = 0;   ///< allocated address in the memory
        uint32_t region = 0; ///< index into the region table
    };

    /**
     * Allocate @p size bytes in @p space (wramAlloc/mramAlloc) and map
     * @p bytes there as a shared read-only region instead of copying
     * them. @p owner (non-null unless @p size is 0) keeps the buffer
     * alive for as long as the region is shared. @p bytes must stay readable up to @p size rounded up
     * to 8 bytes, the widest aligned DMA window a read may take. With a
     * sanitizer or fault plan attached the region is privatized at
     * once (an MRAM one then sees the plan's stuck bits, exactly as a
     * hostWriteMram of the bytes would).
     * @throws std::bad_alloc when the memory cannot hold it (no region
     *         is recorded).
     */
    Mapping mapShared(MemSpace space, const uint8_t* bytes,
                      uint32_t size, std::shared_ptr<const void> owner);

    /** Where region @p region's bytes are read from: the shared
     * buffer, or this core's bank once the region is privatized. */
    const uint8_t* regionView(uint32_t region) const
    {
        return regions_[region].view;
    }

    /** Number of regions mapped since the last resetAllocators(). */
    uint32_t regionCount() const
    {
        return static_cast<uint32_t>(regions_.size());
    }

    /** True while region @p region still reads the shared bytes. */
    bool regionShared(uint32_t region) const
    {
        return regions_[region].owner != nullptr;
    }

    /** Allocator tops and region count: what rollback() restores. */
    struct AllocMark
    {
        uint32_t mramTop = 0;
        uint32_t wramTop = 0;
        uint32_t regions = 0;
    };

    AllocMark allocMark() const
    {
        return {mramTop_, wramTop_, regionCount()};
    }

    /** Undo every allocation and region made after @p mark (an
     * all-or-nothing table bind that failed part way). */
    void rollback(const AllocMark& mark);

    /** Bytes of MRAM currently allocated (paper's Figure 7 metric). */
    uint32_t mramAllocated() const { return mramTop_; }

    /** Bytes of WRAM currently allocated. */
    uint32_t wramAllocated() const { return wramTop_; }

    /** Raw WRAM pointer (kernel-side scratchpad accesses). The caller
     * may write anywhere, so this privatizes every WRAM region. */
    uint8_t* wramData()
    {
        privatizeAll(MemSpace::Wram);
        return wram_.data();
    }

    /** Raw MRAM pointer; privatizes every MRAM region. */
    uint8_t* mramData()
    {
        privatizeAll(MemSpace::Mram);
        return mram_.data();
    }

    /**
     * Run @p kernel once per tasklet and update the launch statistics.
     * Tasklets execute sequentially in simulation; the cycle model
     * reconstructs their interleaving analytically. Throws
     * std::invalid_argument unless 1 <= @p numTasklets <=
     * CostModel::maxTasklets.
     */
    LaunchStats launch(uint32_t numTasklets, const Kernel& kernel);

    /** Statistics of the most recent launch. */
    const LaunchStats& lastLaunch() const { return last_; }

  private:
    friend class TaskletContext;

    /** Account a DMA transfer on the engine; returns stall cycles. */
    uint64_t accountDma(uint32_t size);

    /** One mapped buffer; owner is null once privatized (privatize()
     * runs once per region), and view then points into the bank. */
    struct Region
    {
        MemSpace space;
        uint32_t addr;
        uint32_t size;
        const uint8_t* view;
        std::shared_ptr<const void> owner;
    };

    /** Shared (not yet privatized) regions of one memory: how many,
     * and bounds enclosing all of them, so an access outside them is
     * an O(1) check. */
    struct SharedSpan
    {
        uint32_t count = 0;
        uint64_t lo = 0;
        uint64_t hi = 0;

        void
        add(uint64_t addr, uint64_t size)
        {
            lo = count ? std::min(lo, addr) : addr;
            hi = count ? std::max(hi, addr + size) : addr + size;
            ++count;
        }
    };

    ZeroedBank& bank(MemSpace s)
    {
        return s == MemSpace::Wram ? wram_ : mram_;
    }

    bool
    overlapsShared(MemSpace s, uint64_t addr, uint64_t size) const
    {
        const SharedSpan& sp = shared_[static_cast<int>(s)];
        return sp.count != 0 && addr < sp.hi && addr + size > sp.lo;
    }

    /** Copy [addr, addr+size) of @p space into @p dst, shared regions
     * included (bounds already checked). */
    void readThrough(MemSpace space, uint64_t addr, void* dst,
                     uint32_t size) const;

    /** Privatize every shared region of @p space overlapping
     * [addr, addr+size), before a write there. */
    void privatizeRange(MemSpace space, uint64_t addr, uint64_t size)
    {
        if (overlapsShared(space, addr, size))
            privatizeOverlapping(space, addr, size);
    }
    void privatizeOverlapping(MemSpace space, uint64_t addr,
                              uint64_t size);
    void privatizeAll(MemSpace space)
    {
        privatizeRange(space, 0, bank(space).size());
    }
    void privatize(Region& r);

    CostModel model_;
    ZeroedBank mram_;
    ZeroedBank wram_;
    uint32_t mramTop_ = 0;
    uint32_t wramTop_ = 0;
    std::vector<Region> regions_;
    std::array<SharedSpan, 2> shared_{}; ///< indexed by MemSpace
    uint64_t dmaEngineCycles_ = 0; ///< accumulated during a launch
    uint64_t dmaBytes_ = 0;        ///< accumulated during a launch
    check::Sanitizer* sanitizer_ = nullptr; ///< non-owning, opt-in
    fault::DpuFaultState* faults_ = nullptr; ///< non-owning, opt-in
    LaunchStats last_;
};

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_DPU_H
