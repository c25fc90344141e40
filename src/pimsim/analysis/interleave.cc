/**
 * @file
 * Phase-wise exhaustive-equivalent tasklet-interleaving exploration.
 */

#include "pimsim/analysis/interleave.h"

#include <algorithm>
#include <cstring>

namespace tpl {
namespace sim {
namespace check {

namespace {

/** One recorded memory access (for diagnostics). */
struct Access
{
    uint32_t addr;
    uint32_t size;
    uint32_t line;
    bool write;
};

/** Cap on per-segment recorded events. Past the cap the WRAM bitmap
 * stays exact (only diagnostic line attribution degrades), but MRAM
 * conflict checking and the phase commit depend entirely on the
 * event list — an MRAM overflow therefore forces an Inconclusive
 * verdict instead of a silently incomplete race check. */
constexpr size_t kMaxEvents = 1u << 16;

/** Footprint of one tasklet's phase segment. */
struct SegmentLog
{
    std::vector<uint64_t> wramRead;  ///< byte-granular bitmap
    std::vector<uint64_t> wramWrite; ///< byte-granular bitmap
    std::vector<Access> wramEvents;
    std::vector<Access> mramEvents;
    /** wramEvents dropped entries: line attribution degrades only. */
    bool wramEventsOverflow = false;
    /** mramEvents dropped entries: conflict/commit coverage lost —
     * the explorer must refuse a race-free verdict. */
    bool mramEventsOverflow = false;
    uint32_t barrierLine = 0; ///< line of the barrier reached (if any)

    void reset(uint32_t wramBytes)
    {
        wramRead.assign((wramBytes + 63) / 64, 0);
        wramWrite.assign((wramBytes + 63) / 64, 0);
        wramEvents.clear();
        mramEvents.clear();
        wramEventsOverflow = false;
        mramEventsOverflow = false;
        barrierLine = 0;
    }

    void markWram(uint32_t addr, uint32_t size, uint32_t line,
                  bool write)
    {
        std::vector<uint64_t>& map = write ? wramWrite : wramRead;
        for (uint32_t a = addr; a < addr + size; ++a)
            map[a >> 6] |= 1ull << (a & 63);
        if (wramEvents.size() < kMaxEvents)
            wramEvents.push_back({addr, size, line, write});
        else
            wramEventsOverflow = true;
    }

    void markMram(uint32_t addr, uint32_t size, uint32_t line,
                  bool write)
    {
        if (mramEvents.size() < kMaxEvents)
            mramEvents.push_back({addr, size, line, write});
        else
            mramEventsOverflow = true;
    }
};

/** Why a phase segment stopped. */
enum class SegEnd
{
    Barrier, ///< reached a barrier rendezvous (pc past it)
    Halted,  ///< halt or fell off the end
    Fuel,    ///< instruction budget exhausted
    Error,   ///< invalid memory access
};

/** Persistent per-tasklet machine state (registers survive phases). */
struct TaskletState
{
    Registers regs{};
    uint32_t pc = 0;
    bool halted = false;
};

/**
 * step()'s machine for one phase segment: memory is the tasklet's
 * private images, every access lands in its footprint log, charges
 * are free, and an access outside the images stops the segment with
 * a line-tagged error.
 */
struct SegmentMachine
{
    uint32_t taskletId;
    uint32_t tasklets;
    std::vector<uint8_t>& wram;
    std::vector<uint8_t>& mram;
    SegmentLog& log;
    std::string& error;

    void charge() {}
    void mul(int32_t, int32_t) {}
    uint32_t tid() const { return taskletId; }
    uint32_t ntask() const { return tasklets; }

    bool ldw(uint32_t addr, int32_t& value, uint32_t line)
    {
        if (!inWram(addr, 4, line, "WRAM load out of the explorer image"))
            return false;
        log.markWram(addr, 4, line, false);
        std::memcpy(&value, wram.data() + addr, 4);
        return true;
    }

    bool stw(uint32_t addr, int32_t value, uint32_t line)
    {
        if (!inWram(addr, 4, line, "WRAM store out of the explorer image"))
            return false;
        log.markWram(addr, 4, line, true);
        std::memcpy(wram.data() + addr, &value, 4);
        return true;
    }

    bool ldma(uint32_t wramAddr, uint32_t mramAddr, uint32_t size,
              uint32_t line)
    {
        return dma(wramAddr, mramAddr, size, line, true);
    }

    bool sdma(uint32_t wramAddr, uint32_t mramAddr, uint32_t size,
              uint32_t line)
    {
        return dma(wramAddr, mramAddr, size, line, false);
    }

    void barrier(uint32_t line) { log.barrierLine = line; }

  private:
    bool inWram(uint32_t addr, uint32_t size, uint32_t line,
                const char* what)
    {
        if (static_cast<uint64_t>(addr) + size <= wram.size())
            return true;
        error = "line " + std::to_string(line) + ": " + what;
        return false;
    }

    bool dma(uint32_t wa, uint32_t ma, uint32_t size, uint32_t line,
             bool toWram)
    {
        if (static_cast<uint64_t>(wa) + size > wram.size() ||
            static_cast<uint64_t>(ma) + size > mram.size()) {
            error = "line " + std::to_string(line) +
                    ": DMA range out of the explorer images";
            return false;
        }
        log.markWram(wa, size, line, toWram);
        log.markMram(ma, size, line, !toWram);
        if (toWram)
            std::memcpy(wram.data() + wa, mram.data() + ma, size);
        else
            std::memcpy(mram.data() + ma, wram.data() + wa, size);
        return true;
    }
};

/**
 * Run one tasklet's segment — from its saved pc to the next barrier
 * or halt — against private memory images, recording its footprint.
 */
SegEnd
runSegment(const Program& program, const InterleaveOptions& opt,
           uint32_t tid, TaskletState& ts, std::vector<uint8_t>& wram,
           std::vector<uint8_t>& mram, SegmentLog& log,
           std::string& error)
{
    SegmentMachine machine{tid, opt.tasklets, wram, mram, log, error};
    uint64_t executed = 0;
    while (ts.pc < program.code.size()) {
        if (executed >= opt.maxSegmentInstructions)
            return SegEnd::Fuel;
        ++executed;
        switch (step(program, ts.pc, ts.regs, machine)) {
          case StepEnd::Next:
            break;
          case StepEnd::Barrier:
            return SegEnd::Barrier;
          case StepEnd::Halt:
            ts.halted = true;
            return SegEnd::Halted;
          case StepEnd::Fault:
            return SegEnd::Error;
        }
    }
    ts.halted = true;
    return SegEnd::Halted;
}

/** Line of an event of tasklet @p log covering @p addr. */
uint32_t
eventLine(const SegmentLog& log, uint32_t addr, bool wantWrite)
{
    for (const Access& a : log.wramEvents) {
        if (a.write == wantWrite && addr >= a.addr &&
            addr < a.addr + a.size)
            return a.line;
    }
    return 0;
}

/**
 * First overlapping pair between two address-sorted interval lists
 * (two-pointer sweep, O(|a| + |b|)): at a non-overlapping pair the
 * interval with the smaller end cannot overlap anything later in the
 * other list (starts only grow), so it can be discarded.
 */
bool
firstOverlap(const std::vector<Access>& a, const std::vector<Access>& b,
             const Access*& outA, const Access*& outB)
{
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        uint64_t aEnd = static_cast<uint64_t>(a[i].addr) + a[i].size;
        uint64_t bEnd = static_cast<uint64_t>(b[j].addr) + b[j].size;
        if (a[i].addr < bEnd && b[j].addr < aEnd) {
            outA = &a[i];
            outB = &b[j];
            return true;
        }
        if (aEnd <= bEnd)
            ++i;
        else
            ++j;
    }
    return false;
}

} // namespace

const char*
toString(InterleaveVerdict verdict)
{
    switch (verdict) {
      case InterleaveVerdict::RaceFree: return "race-free";
      case InterleaveVerdict::Race: return "race";
      case InterleaveVerdict::Deadlock: return "deadlock";
      case InterleaveVerdict::Inconclusive: return "inconclusive";
    }
    return "?";
}

InterleaveExplorer::InterleaveExplorer(Program program,
                                       InterleaveOptions options)
    : program_(std::move(program)), options_(options),
      wramInit_(options.wramBytes, 0), mramInit_(options.mramBytes, 0)
{
}

void
InterleaveExplorer::stageWram(uint32_t addr, const void* data,
                              uint32_t size)
{
    if (static_cast<uint64_t>(addr) + size > wramInit_.size())
        throw std::out_of_range("stageWram beyond explorer image");
    std::memcpy(wramInit_.data() + addr, data, size);
}

void
InterleaveExplorer::stageMram(uint32_t addr, const void* data,
                              uint32_t size)
{
    if (static_cast<uint64_t>(addr) + size > mramInit_.size())
        throw std::out_of_range("stageMram beyond explorer image");
    std::memcpy(mramInit_.data() + addr, data, size);
}

InterleaveResult
InterleaveExplorer::explore() const
{
    InterleaveResult res;
    const uint32_t T = options_.tasklets;
    if (T == 0 || program_.code.empty()) {
        res.verdict = InterleaveVerdict::RaceFree;
        return res;
    }

    std::vector<uint8_t> wram = wramInit_;
    std::vector<uint8_t> mram = mramInit_;
    std::vector<TaskletState> states(T);
    std::vector<SegmentLog> logs(T);
    std::vector<std::vector<uint8_t>> privWram(T), privMram(T);
    std::vector<SegEnd> ends(T, SegEnd::Halted);

    while (res.phases < options_.maxPhases) {
        // Run every live tasklet's segment in isolation against the
        // phase-entry snapshot.
        for (uint32_t t = 0; t < T; ++t) {
            if (states[t].halted)
                continue;
            privWram[t] = wram;
            privMram[t] = mram;
            logs[t].reset(options_.wramBytes);
            std::string error;
            ends[t] = runSegment(program_, options_, t, states[t],
                                 privWram[t], privMram[t], logs[t],
                                 error);
            if (ends[t] == SegEnd::Error) {
                res.verdict = InterleaveVerdict::Inconclusive;
                res.note = "tasklet " + std::to_string(t) + ": " +
                           error;
                return res;
            }
            if (ends[t] == SegEnd::Fuel) {
                res.verdict = InterleaveVerdict::Inconclusive;
                res.note = "tasklet " + std::to_string(t) +
                           " exceeded the per-segment instruction "
                           "budget";
                return res;
            }
            if (logs[t].mramEventsOverflow) {
                // MRAM conflict checking and the phase commit depend
                // entirely on the event list (the WRAM bitmap stays
                // exact); dropped events would silently exclude DMA
                // accesses from the race check.
                res.verdict = InterleaveVerdict::Inconclusive;
                res.note = "tasklet " + std::to_string(t) +
                           " issued more than " +
                           std::to_string(kMaxEvents) +
                           " DMA accesses in one phase; MRAM "
                           "conflict checking would be incomplete";
                return res;
            }
        }

        // Address-sorted MRAM read/write interval lists per tasklet
        // (for the pairwise overlap sweeps below).
        std::vector<std::vector<Access>> mramWrites(T), mramReads(T);
        for (uint32_t t = 0; t < T; ++t) {
            for (const Access& a : logs[t].mramEvents)
                (a.write ? mramWrites : mramReads)[t].push_back(a);
            auto byAddr = [](const Access& x, const Access& y) {
                return x.addr < y.addr;
            };
            std::sort(mramWrites[t].begin(), mramWrites[t].end(),
                      byAddr);
            std::sort(mramReads[t].begin(), mramReads[t].end(),
                      byAddr);
        }

        // Pairwise footprint conflicts: a write overlapping another
        // tasklet's access in the same phase is a race under some
        // interleaving (and every interleaving is covered — see the
        // header comment).
        for (uint32_t i = 0; i < T; ++i) {
            if (states[i].halted && logs[i].wramWrite.empty())
                continue;
            for (uint32_t j = i + 1; j < T; ++j) {
                if (logs[i].wramWrite.empty() ||
                    logs[j].wramWrite.empty())
                    continue; // a tasklet that never ran this phase
                for (size_t w = 0; w < logs[i].wramWrite.size();
                     ++w) {
                    uint64_t conflict =
                        (logs[i].wramWrite[w] &
                         (logs[j].wramRead[w] |
                          logs[j].wramWrite[w])) |
                        (logs[j].wramWrite[w] &
                         logs[i].wramRead[w]);
                    if (!conflict)
                        continue;
                    uint32_t addr = static_cast<uint32_t>(
                        w * 64 +
                        __builtin_ctzll(conflict));
                    bool iWrites =
                        (logs[i].wramWrite[w] >>
                         (addr & 63)) & 1;
                    uint32_t wl = eventLine(
                        iWrites ? logs[i] : logs[j], addr, true);
                    uint32_t ol = eventLine(
                        iWrites ? logs[j] : logs[i], addr, true);
                    if (!ol)
                        ol = eventLine(iWrites ? logs[j] : logs[i],
                                       addr, false);
                    res.diags.push_back(
                        {CheckKind::TaskletRace, Severity::Error,
                         wl,
                         "tasklets " + std::to_string(i) + " and " +
                             std::to_string(j) +
                             " conflict on WRAM[" +
                             std::to_string(addr) +
                             "] within one barrier phase (write at "
                             "line " +
                             std::to_string(wl) +
                             ", concurrent access at line " +
                             std::to_string(ol) + ")"});
                    res.verdict = InterleaveVerdict::Race;
                    return res;
                }
                // MRAM: DMA ranges. Three overlap sweeps over the
                // sorted lists (write/write, write/read,
                // read/write) — read-read pairs never conflict.
                auto mramConflict = [&](const Access& wr,
                                        const Access& other) {
                    res.diags.push_back(
                        {CheckKind::TaskletRace, Severity::Error,
                         wr.line,
                         "tasklets " + std::to_string(i) + " and " +
                             std::to_string(j) +
                             " conflict on MRAM[" +
                             std::to_string(
                                 std::max(wr.addr, other.addr)) +
                             "] within one barrier phase "
                             "(DMA write at line " +
                             std::to_string(wr.line) +
                             ", concurrent DMA at line " +
                             std::to_string(other.line) + ")"});
                    res.verdict = InterleaveVerdict::Race;
                };
                const Access* a = nullptr;
                const Access* b = nullptr;
                if (firstOverlap(mramWrites[i], mramWrites[j], a,
                                 b) ||
                    firstOverlap(mramWrites[i], mramReads[j], a,
                                 b)) {
                    mramConflict(*a, *b);
                    return res;
                }
                if (firstOverlap(mramReads[i], mramWrites[j], a,
                                 b)) {
                    mramConflict(*b, *a);
                    return res;
                }
            }
        }

        // Commit the phase: conflict-free writes are pairwise
        // disjoint, so merging them is order-independent.
        uint32_t arrived = 0, halted = 0;
        uint32_t arrivedT = 0, haltedT = 0;
        for (uint32_t t = 0; t < T; ++t) {
            if (logs[t].wramWrite.empty())
                continue; // was already halted before this phase
            for (size_t w = 0; w < logs[t].wramWrite.size(); ++w) {
                uint64_t bits = logs[t].wramWrite[w];
                while (bits) {
                    uint32_t bit = __builtin_ctzll(bits);
                    bits &= bits - 1;
                    uint32_t addr =
                        static_cast<uint32_t>(w * 64 + bit);
                    wram[addr] = privWram[t][addr];
                }
            }
            for (const Access& a : logs[t].mramEvents) {
                if (a.write)
                    std::memcpy(mram.data() + a.addr,
                                privMram[t].data() + a.addr,
                                a.size);
            }
            if (ends[t] == SegEnd::Barrier) {
                ++arrived;
                arrivedT = t;
            } else {
                ++halted;
                haltedT = t;
            }
        }
        ++res.phases;

        if (arrived == 0) {
            res.verdict = InterleaveVerdict::RaceFree;
            return res;
        }
        if (halted > 0) {
            res.diags.push_back(
                {CheckKind::BarrierDeadlock, Severity::Error,
                 logs[arrivedT].barrierLine,
                 "tasklet " + std::to_string(arrivedT) +
                     " waits at this barrier but tasklet " +
                     std::to_string(haltedT) +
                     " has already halted: the rendezvous never "
                     "completes"});
            res.verdict = InterleaveVerdict::Deadlock;
            return res;
        }
        // All tasklets arrived: released together into the next
        // phase (the cleared logs make halted detection exact).
    }
    res.verdict = InterleaveVerdict::Inconclusive;
    res.note = "barrier-phase budget exhausted after " +
               std::to_string(res.phases) + " phases";
    return res;
}

} // namespace check
} // namespace sim
} // namespace tpl
