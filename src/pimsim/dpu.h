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

#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
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
 * Fixed-size zero-initialized byte bank with *lazy* zeroing: backed by
 * calloc, so untouched pages stay untouched OS zero pages instead of
 * being memset at construction. A value-initialized vector would touch
 * all 64 MiB of a modeled MRAM bank up front, which dominates host
 * time for sweeps that build one core per configuration point; with
 * the lazy bank only the pages a run actually uses ever fault in.
 * WRAM uses it too: a 64-KB bank comes from the heap, where calloc
 * still skips zeroing pages the heap has just grown by, so building a
 * few thousand cores does not fault in their scratchpads up front.
 * Reads of never-written bytes still return 0, exactly like the
 * vector this replaces.
 */
class ZeroedBank
{
  public:
    explicit ZeroedBank(size_t size)
        : data_(static_cast<uint8_t*>(
              std::calloc(size ? size : 1, 1))),
          size_(size)
    {
        if (!data_)
            throw std::bad_alloc();
    }

    ~ZeroedBank() { std::free(data_); }

    ZeroedBank(const ZeroedBank&) = delete;
    ZeroedBank& operator=(const ZeroedBank&) = delete;

    uint8_t* data() { return data_; }
    const uint8_t* data() const { return data_; }
    size_t size() const { return size_; }

  private:
    uint8_t* data_;
    size_t size_;
};

/**
 * One simulated DPU: a 64-MB MRAM bank, a 64-KB WRAM scratchpad, bump
 * allocators for both (the allocation totals feed the paper's memory-
 * consumption figure), and the launch/cycle model.
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
     * observationally, so modeled statistics are unchanged.
     */
    void setSanitizer(check::Sanitizer* sanitizer)
    {
        sanitizer_ = sanitizer;
    }

    /** The attached sanitizer, or nullptr. */
    check::Sanitizer* sanitizer() const { return sanitizer_; }

    /**
     * Attach (or, with nullptr, detach) this core's slice of an armed
     * fault plan. Off by default; the core does not own the state
     * (PimSystem::armFaults does). While attached, launches, tasklet
     * DMA and memory writes consult the plan — with no plan, or a
     * plan whose specs never fire, every modeled statistic is
     * bit-identical to the unfaulted run (tests/fault_test.cc).
     */
    void setFaultState(fault::DpuFaultState* faults)
    {
        faults_ = faults;
    }

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

    /** Reset both allocators (new kernel program). */
    void resetAllocators();

    /** Bytes of MRAM currently allocated (paper's Figure 7 metric). */
    uint32_t mramAllocated() const { return mramTop_; }

    /** Bytes of WRAM currently allocated. */
    uint32_t wramAllocated() const { return wramTop_; }

    /** Raw WRAM pointer (kernel-side scratchpad accesses). */
    uint8_t* wramData() { return wram_.data(); }
    const uint8_t* wramData() const { return wram_.data(); }

    /** Raw MRAM pointer (used by the DMA model). */
    uint8_t* mramData() { return mram_.data(); }

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

    CostModel model_;
    ZeroedBank mram_;
    ZeroedBank wram_;
    uint32_t mramTop_ = 0;
    uint32_t wramTop_ = 0;
    uint64_t dmaEngineCycles_ = 0; ///< accumulated during a launch
    uint64_t dmaBytes_ = 0;        ///< accumulated during a launch
    check::Sanitizer* sanitizer_ = nullptr; ///< non-owning, opt-in
    fault::DpuFaultState* faults_ = nullptr; ///< non-owning, opt-in
    LaunchStats last_;
};

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_DPU_H
