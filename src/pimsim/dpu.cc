/**
 * @file
 * Simulated DPU implementation.
 */

#include "pimsim/dpu.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>

#include <sys/mman.h>

#include "pimsim/analysis/sanitizer.h"
#include "pimsim/fault/fault.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"

namespace tpl {
namespace sim {

namespace {

/**
 * Launch-path metric handles, resolved once. Registry handles have
 * stable addresses for the process lifetime, so the per-launch string
 * concatenation + map lookup the report site used to pay is hoisted
 * into this lazily-built table. The per-class counters stay lazy
 * (registered on first non-zero count) so the registry's JSON dump
 * lists exactly the same names as the per-launch lookups did.
 */
struct LaunchMetrics
{
    obs::Counter* launches;
    obs::Counter* cycles;
    obs::Counter* instructions;
    obs::Counter* stallCycles;
    obs::Counter* dmaBytes;
    obs::Counter* dmaEngineCycles;
    obs::RealAccum* energyJoules;
    obs::Histogram* cyclesPerLaunch;
};

const LaunchMetrics&
launchMetrics()
{
    static const LaunchMetrics m = [] {
        obs::Registry& reg = obs::Registry::global();
        LaunchMetrics t;
        t.launches = &reg.counter("pimsim/dpu/launches");
        t.cycles = &reg.counter("pimsim/dpu/cycles");
        t.instructions = &reg.counter("pimsim/dpu/instructions");
        t.stallCycles = &reg.counter("pimsim/dpu/stall_cycles");
        t.dmaBytes = &reg.counter("pimsim/dpu/dma/bytes");
        t.dmaEngineCycles =
            &reg.counter("pimsim/dpu/dma/engine_cycles");
        t.energyJoules = &reg.real("pimsim/dpu/energy_joules");
        t.cyclesPerLaunch =
            &reg.histogram("pimsim/dpu/cycles_per_launch");
        return t;
    }();
    return m;
}

/** Cached "pimsim/dpu/instr/<class>" handle (lazy, race-benign). */
obs::Counter&
instrClassCounter(int c)
{
    static std::atomic<obs::Counter*> cache[numInstrClasses]{};
    obs::Counter* p = cache[c].load(std::memory_order_acquire);
    if (!p) {
        p = &obs::Registry::global().counter(
            std::string("pimsim/dpu/instr/") +
            std::string(instrClassName(static_cast<InstrClass>(c))));
        cache[c].store(p, std::memory_order_release);
    }
    return *p;
}

/** Cached "pimsim/dpu/ops/<op>" handle (lazy, race-benign). */
obs::Counter&
opClassCounter(int o)
{
    static std::atomic<obs::Counter*> cache[numOpClasses]{};
    obs::Counter* p = cache[o].load(std::memory_order_acquire);
    if (!p) {
        p = &obs::Registry::global().counter(
            std::string("pimsim/dpu/ops/") +
            std::string(opClassSlug(static_cast<OpClass>(o))));
        cache[o].store(p, std::memory_order_release);
    }
    return *p;
}

/** "pimsim/dpu/table_privatized_bytes", registered on first use so
 * a run that never privatizes dumps the same metric names as before. */
obs::Counter&
privatizedBytesCounter()
{
    static obs::Counter& c = obs::Registry::global().counter(
        "pimsim/dpu/table_privatized_bytes");
    return c;
}

uint64_t
alignUp8(uint64_t v)
{
    return (v + 7u) & ~uint64_t{7};
}

} // namespace

ZeroedBank::ZeroedBank(size_t size) : size_(size)
{
    void* p = ::mmap(nullptr, size ? size : 1, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<uint8_t*>(p);
}

ZeroedBank::~ZeroedBank()
{
    ::munmap(data_, size_ ? size_ : 1);
}

DpuCore::DpuCore(const CostModel& model)
    : model_(model), mram_(model.mramBytes), wram_(model.wramBytes)
{
}

void
DpuCore::setSanitizer(check::Sanitizer* sanitizer)
{
    sanitizer_ = sanitizer;
    if (sanitizer) {
        privatizeAll(MemSpace::Wram);
        privatizeAll(MemSpace::Mram);
    }
}

void
DpuCore::setFaultState(fault::DpuFaultState* faults)
{
    faults_ = faults;
    if (faults) {
        privatizeAll(MemSpace::Wram);
        privatizeAll(MemSpace::Mram);
    }
}

void
DpuCore::hostWriteMram(uint32_t addr, const void* src, uint32_t size)
{
    if (static_cast<uint64_t>(addr) + size > mram_.size())
        throw std::out_of_range("hostWriteMram beyond MRAM bank");
    privatizeRange(MemSpace::Mram, addr, size);
    std::memcpy(mram_.data() + addr, src, size);
    if (faults_)
        faults_->onMramWritten(addr, size);
}

void
DpuCore::hostReadMram(uint32_t addr, void* dst, uint32_t size) const
{
    if (static_cast<uint64_t>(addr) + size > mram_.size())
        throw std::out_of_range("hostReadMram beyond MRAM bank");
    readThrough(MemSpace::Mram, addr, dst, size);
}

void
DpuCore::hostWriteWram(uint32_t addr, const void* src, uint32_t size)
{
    if (static_cast<uint64_t>(addr) + size > wram_.size())
        throw std::out_of_range("hostWriteWram beyond scratchpad");
    privatizeRange(MemSpace::Wram, addr, size);
    std::memcpy(wram_.data() + addr, src, size);
    if (sanitizer_)
        sanitizer_->markWramInitialized(addr, size);
    if (faults_)
        faults_->onWramWritten(addr, size);
}

void
DpuCore::hostReadWram(uint32_t addr, void* dst, uint32_t size) const
{
    if (static_cast<uint64_t>(addr) + size > wram_.size())
        throw std::out_of_range("hostReadWram beyond scratchpad");
    readThrough(MemSpace::Wram, addr, dst, size);
}

DpuCore::Mapping
DpuCore::mapShared(MemSpace space, const uint8_t* bytes, uint32_t size,
                   std::shared_ptr<const void> owner)
{
    Mapping m;
    m.addr = space == MemSpace::Wram ? wramAlloc(size) : mramAlloc(size);
    m.region = regionCount();
    regions_.push_back(Region{space, m.addr, size, bytes, std::move(owner)});
    shared_[static_cast<int>(space)].add(m.addr, size);
    // An empty region has nothing to share, and no write would ever
    // overlap it to privatize it.
    if (size == 0 || sanitizer_ || faults_) {
        privatize(regions_.back());
        if (faults_ && space == MemSpace::Mram)
            faults_->onMramWritten(m.addr, size);
    }
    return m;
}

void
DpuCore::readThrough(MemSpace space, uint64_t addr, void* dst,
                     uint32_t size) const
{
    const ZeroedBank& b = space == MemSpace::Wram ? wram_ : mram_;
    std::memcpy(dst, b.data() + addr, size);
    if (!overlapsShared(space, addr, size))
        return;
    auto* out = static_cast<uint8_t*>(dst);
    for (const Region& r : regions_) {
        if (!r.owner || r.space != space)
            continue;
        uint64_t lo = std::max<uint64_t>(addr, r.addr);
        uint64_t hi = std::min<uint64_t>(addr + size,
                                         uint64_t{r.addr} + r.size);
        if (lo < hi)
            std::memcpy(out + (lo - addr), r.view + (lo - r.addr),
                        hi - lo);
    }
}

void
DpuCore::privatize(Region& r)
{
    uint8_t* dst = bank(r.space).data() + r.addr;
    if (r.size != 0)
        std::memcpy(dst, r.view, r.size);
    r.view = dst;
    r.owner.reset();
    SharedSpan& sp = shared_[static_cast<int>(r.space)];
    if (--sp.count == 0)
        sp = SharedSpan{};
    if (obs::Registry::global().enabled())
        privatizedBytesCounter().add(r.size);
}

void
DpuCore::privatizeOverlapping(MemSpace space, uint64_t addr,
                              uint64_t size)
{
    for (Region& r : regions_)
        if (r.owner && r.space == space && r.addr < addr + size &&
            uint64_t{r.addr} + r.size > addr)
            privatize(r);
}

void
DpuCore::rollback(const AllocMark& mark)
{
    regions_.erase(regions_.begin() + mark.regions, regions_.end());
    mramTop_ = mark.mramTop;
    wramTop_ = mark.wramTop;
    shared_ = {};
    for (const Region& r : regions_)
        if (r.owner)
            shared_[static_cast<int>(r.space)].add(r.addr, r.size);
}

namespace {

/** WRAM offset of @p p if [p, p+size) lies inside the scratchpad,
 * else -1 (a host buffer standing in for a tasklet's WRAM chunk). */
int64_t
wramOffsetOf(const ZeroedBank& wram, const void* p, uint32_t size)
{
    auto base = reinterpret_cast<uintptr_t>(wram.data());
    auto ptr = reinterpret_cast<uintptr_t>(p);
    if (ptr >= base && ptr + size <= base + wram.size())
        return static_cast<int64_t>(ptr - base);
    return -1;
}

} // namespace

uint32_t
DpuCore::mramAlloc(uint64_t size)
{
    uint32_t addr = mramTop_;
    uint64_t next = alignUp8(uint64_t{mramTop_} + size);
    if (next > mram_.size())
        throw std::bad_alloc();
    mramTop_ = static_cast<uint32_t>(next);
    return addr;
}

uint32_t
DpuCore::wramAlloc(uint64_t size)
{
    uint32_t addr = wramTop_;
    uint64_t next = alignUp8(uint64_t{wramTop_} + size);
    if (next > wram_.size())
        throw std::bad_alloc();
    wramTop_ = static_cast<uint32_t>(next);
    return addr;
}

void
DpuCore::resetAllocators()
{
    mramTop_ = 0;
    wramTop_ = 0;
    regions_.clear();
    shared_ = {};
}

uint64_t
DpuCore::accountDma(uint32_t size)
{
    // Widen the byte count before the multiply and truncate the
    // product explicitly: the streaming term must never wrap for
    // bank-sized transfers, whatever cyclesPerByte the model sweeps.
    uint64_t streaming = static_cast<uint64_t>(
        static_cast<double>(size) * model_.dmaCyclesPerByte);
    uint64_t engine = model_.dmaSetupCycles + streaming;
    dmaEngineCycles_ += engine;
    dmaBytes_ += size;
    return model_.dmaLatencyCycles + engine;
}

const LaunchStats&
DpuCore::launch(uint32_t numTasklets, const Kernel& kernel)
{
    if (numTasklets < 1 || numTasklets > model_.maxTasklets)
        throw std::invalid_argument(
            "DpuCore::launch: " + std::to_string(numTasklets) +
            " tasklets, want 1.." + std::to_string(model_.maxTasklets));
    dmaEngineCycles_ = 0;
    dmaBytes_ = 0;

    // Start from fresh statistics in place, keeping perTasklet's
    // buffer in last_ (moves cannot throw): a steady stream of
    // launches allocates nothing here.
    std::vector<TaskletStats> perTasklet = std::move(last_.perTasklet);
    last_ = LaunchStats{};
    LaunchStats& stats = last_;
    stats.perTasklet = std::move(perTasklet);
    stats.perTasklet.clear();
    stats.tasklets = numTasklets;

    if (faults_ && faults_->onLaunchBegin()) {
        // Hard-failed core: the kernel never runs. Everything but the
        // failure flag stays zero so a masked core contributes nothing
        // to any aggregate.
        stats.failed = true;
        stats.faultEvents = faults_->launchFaultEvents();
        obs::Registry& reg = obs::Registry::global();
        if (reg.enabled())
            reg.counter("fault/launch/failed").add(1);
        return stats;
    }
    if (sanitizer_)
        sanitizer_->beginLaunch(numTasklets);

    // Purely observational: wall-clock slices per tasklet when the
    // tracer is on. Modeled statistics never depend on this branch.
    obs::Tracer& tracer = obs::Tracer::global();
    const bool tracing = tracer.enabled();
    std::vector<std::pair<double, double>> slices;
    if (tracing)
        slices.reserve(numTasklets);

    // Tasklets run one after another, so each one's context lives
    // only for its own body and is folded into the statistics at once.
    stats.perTasklet.reserve(numTasklets);
    for (uint32_t t = 0; t < numTasklets; ++t) {
        TaskletContext ctx(*this, t, numTasklets);
        if (tracing) {
            double t0 = tracer.nowUs();
            kernel(ctx);
            slices.emplace_back(t0, tracer.nowUs() - t0);
        } else {
            kernel(ctx);
        }
        stats.totalInstructions += ctx.instructions();
        uint64_t work = ctx.instructions() * model_.pipelineInterval +
                        ctx.dmaStallCycles();
        stats.maxTaskletWork = std::max(stats.maxTaskletWork, work);
        TaskletStats& ts = stats.perTasklet.emplace_back();
        ts.instructions = ctx.instructions();
        ts.dmaStallCycles = ctx.dmaStallCycles();
        ts.classInstructions = ctx.classInstructions();
        for (int c = 0; c < numInstrClasses; ++c)
            stats.classInstructions[c] += ctx.classInstructions()[c];
        for (int o = 0; o < numOpClasses; ++o)
            stats.opCounts[o] += ctx.opCounts()[o];
    }
    stats.dmaEngineCycles = dmaEngineCycles_;
    stats.cycles = std::max({stats.totalInstructions,
                             stats.maxTaskletWork,
                             stats.dmaEngineCycles});
    if (faults_) {
        // Straggler slowdown stretches the launch; the added cycles
        // land in the stall residual so the partition stays exact.
        stats.cycles = faults_->adjustCycles(stats.cycles);
        stats.faultEvents = faults_->launchFaultEvents();
    }
    // Exact cycle partition: one issue slot per retired instruction,
    // the binding constraint's slack is the stall residual.
    stats.stallCycles = stats.cycles - stats.totalInstructions;
    stats.dmaBytes = dmaBytes_;
    stats.energyJoules =
        (static_cast<double>(stats.totalInstructions) *
             model_.instrEnergyPj +
         static_cast<double>(dmaBytes_) * model_.dmaEnergyPerBytePj) *
        1e-12;

    if (tracing) {
        for (uint32_t t = 0; t < numTasklets; ++t)
            tracer.complete(
                "tasklet " + std::to_string(t), "tasklet",
                slices[t].first, slices[t].second,
                obs::argsObject(
                    {obs::argKv("instructions",
                                stats.perTasklet[t].instructions),
                     obs::argKv("dma_stall_cycles",
                                stats.perTasklet[t].dmaStallCycles)}));
    }

    if (obs::Registry::global().enabled()) {
        const LaunchMetrics& m = launchMetrics();
        m.launches->add(1);
        m.cycles->add(stats.cycles);
        m.instructions->add(stats.totalInstructions);
        m.stallCycles->add(stats.stallCycles);
        m.dmaBytes->add(stats.dmaBytes);
        m.dmaEngineCycles->add(stats.dmaEngineCycles);
        m.energyJoules->add(stats.energyJoules);
        for (int c = 0; c < numInstrClasses; ++c)
            if (stats.classInstructions[c])
                instrClassCounter(c).add(stats.classInstructions[c]);
        for (int o = 0; o < numOpClasses; ++o)
            if (stats.opCounts[o])
                opClassCounter(o).add(stats.opCounts[o]);
        m.cyclesPerLaunch->observe(stats.cycles);
    }
    return stats;
}

void
TaskletContext::mramRead(uint32_t mramAddr, void* dst, uint32_t size)
{
    dmaIn(mramAddr, dst, size, 0, nullptr);
}

void
TaskletContext::mramReadAt(uint32_t mramAddr, void* dst, uint32_t size,
                           uint32_t line)
{
    dmaIn(mramAddr, dst, size, line, nullptr);
}

void
TaskletContext::mramReadRegion(uint32_t region, uint32_t mramAddr,
                               void* dst, uint32_t size)
{
    const DpuCore::Region& r = core_.regions_[region];
    if (r.space != MemSpace::Mram || mramAddr < r.addr ||
        uint64_t{mramAddr} + size > r.addr + alignUp8(r.size))
        throw std::out_of_range("mramReadRegion outside the region");
    dmaIn(mramAddr, dst, size, 0, r.view + (mramAddr - r.addr));
}

void
TaskletContext::dmaIn(uint32_t mramAddr, void* dst, uint32_t size,
                      uint32_t line, const uint8_t* src)
{
    if (check::Sanitizer* san = core_.sanitizer_) {
        int64_t wa = wramOffsetOf(core_.wram_, dst, size);
        san->onDma(id_, mramAddr, wa, size, line);
        if (wa >= 0)
            san->onWramStore(id_, static_cast<uint32_t>(wa), size,
                             line);
    }
    if (static_cast<uint64_t>(mramAddr) + size > core_.mram_.size())
        throw std::out_of_range("mramRead beyond MRAM bank");
    if (src)
        std::memcpy(dst, src, size);
    else
        core_.readThrough(MemSpace::Mram, mramAddr, dst, size);
    dmaStall_ += core_.accountDma(size);
    if (core_.faults_)
        dmaStall_ += core_.faults_->onDmaData(
            static_cast<uint8_t*>(dst), size);
    // Issuing the DMA costs a couple of instructions as well.
    chargeClass(InstrClass::DmaIssue, 2);
}

void
TaskletContext::mramWrite(uint32_t mramAddr, const void* src, uint32_t size)
{
    mramWriteAt(mramAddr, src, size, 0);
}

void
TaskletContext::mramWriteAt(uint32_t mramAddr, const void* src,
                            uint32_t size, uint32_t line)
{
    if (check::Sanitizer* san = core_.sanitizer_) {
        int64_t wa = wramOffsetOf(core_.wram_, src, size);
        san->onDma(id_, mramAddr, wa, size, line);
        if (wa >= 0)
            san->onWramLoad(id_, static_cast<uint32_t>(wa), size, line);
    }
    if (static_cast<uint64_t>(mramAddr) + size > core_.mram_.size())
        throw std::out_of_range("mramWrite beyond MRAM bank");
    core_.privatizeRange(MemSpace::Mram, mramAddr, size);
    std::memcpy(core_.mram_.data() + mramAddr, src, size);
    dmaStall_ += core_.accountDma(size);
    if (core_.faults_) {
        dmaStall_ += core_.faults_->onDmaData(
            core_.mram_.data() + mramAddr, size);
        core_.faults_->onMramWritten(mramAddr, size);
    }
    chargeClass(InstrClass::DmaIssue, 2);
}

void
TaskletContext::barrier()
{
    chargeClass(InstrClass::Barrier, 1);
    if (core_.sanitizer_)
        core_.sanitizer_->onBarrier(id_);
}

void
TaskletContext::chargeWramAccess(uint32_t accesses)
{
    chargeClass(InstrClass::WramAccess,
                accesses * core_.model_.wramAccessCost);
}

} // namespace sim
} // namespace tpl
