/**
 * @file
 * Static verifier passes.
 */

#include "pimsim/analysis/verify.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>

#include "pimsim/analysis/cfg.h"
#include "pimsim/analysis/constprop.h"
#include "pimsim/analysis/loops.h"

namespace tpl {
namespace sim {
namespace check {

namespace {

constexpr uint32_t kNumRegs = 24;
constexpr uint32_t kAllRegs = (1u << kNumRegs) - 1;

std::string
regName(uint32_t reg)
{
    return "r" + std::to_string(reg);
}

// ---------------------------------------------------------------------
// Pass: branch-target validity
// ---------------------------------------------------------------------

bool
checkBranchTargets(const Program& program, std::vector<Diagnostic>& diags)
{
    bool ok = true;
    const auto n = static_cast<int64_t>(program.code.size());
    for (uint32_t i = 0; i < program.code.size(); ++i) {
        const Instruction& ins = program.code[i];
        const OpTraits& tr = opTraits(ins.op);
        if (!tr.condBranch && !tr.jump)
            continue;
        // Target == n is the label after the last instruction (a
        // trailing "done:" label): a legal exit.
        if (ins.imm < 0 || ins.imm > n) {
            diags.push_back({CheckKind::InvalidBranchTarget,
                             Severity::Error, program.lineOf(i),
                             "branch target " + std::to_string(ins.imm) +
                                 " outside program of " +
                                 std::to_string(n) + " instructions"});
            ok = false;
        }
    }
    return ok;
}

// ---------------------------------------------------------------------
// Pass: unreachable code
// ---------------------------------------------------------------------

void
checkUnreachable(const Program& program, const Cfg& cfg,
                 const std::vector<bool>& reachable,
                 std::vector<Diagnostic>& diags)
{
    for (uint32_t b = 0; b < cfg.blocks.size(); ++b) {
        if (reachable[b])
            continue;
        const BasicBlock& bb = cfg.blocks[b];
        diags.push_back({CheckKind::UnreachableCode, Severity::Warning,
                         program.lineOf(bb.first),
                         "unreachable code (" +
                             std::to_string(bb.last - bb.first + 1) +
                             " instruction(s) no path reaches)"});
    }
}

// ---------------------------------------------------------------------
// Pass: def-before-use (forward "definitely assigned" dataflow)
// ---------------------------------------------------------------------

void
checkDefBeforeUse(const Program& program, const Cfg& cfg,
                  const std::vector<bool>& reachable,
                  const std::vector<uint32_t>& rpo,
                  std::vector<Diagnostic>& diags)
{
    // OUT[b]: registers definitely written on every path through b.
    // Initialized to "all" (top) so intersection over not-yet-visited
    // loop back-edges is a no-op.
    std::vector<uint32_t> out(cfg.blocks.size(), kAllRegs);
    auto blockIn = [&](uint32_t b) {
        uint32_t in = (b == 0) ? 0u : kAllRegs;
        for (uint32_t pred : cfg.blocks[b].preds) {
            if (reachable[pred])
                in &= out[pred];
        }
        return in;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : rpo) {
            uint32_t defined = blockIn(b);
            const BasicBlock& bb = cfg.blocks[b];
            for (uint32_t i = bb.first; i <= bb.last; ++i)
                defined |= regUse(program.code[i]).writes;
            if (defined != out[b]) {
                out[b] = defined;
                changed = true;
            }
        }
    }

    for (uint32_t b : rpo) {
        uint32_t defined = blockIn(b);
        const BasicBlock& bb = cfg.blocks[b];
        for (uint32_t i = bb.first; i <= bb.last; ++i) {
            RegUse use = regUse(program.code[i]);
            uint32_t undef = use.reads & ~defined;
            for (uint32_t reg = 0; reg < kNumRegs; ++reg) {
                if (undef & (1u << reg)) {
                    diags.push_back(
                        {CheckKind::UninitRegister, Severity::Error,
                         program.lineOf(i),
                         "register " + regName(reg) +
                             " may be read before initialization"});
                }
            }
            defined |= use.writes;
        }
    }
}

// ---------------------------------------------------------------------
// Pass: bounds / DMA legality (over the shared const-prop lattice)
// ---------------------------------------------------------------------

void
checkAccess(const Program& program, uint32_t i, const ConstState& st,
            const VerifyOptions& opt, std::vector<Diagnostic>& diags)
{
    const Instruction& ins = program.code[i];
    uint32_t line = program.lineOf(i);
    auto report = [&](CheckKind kind, const std::string& msg) {
        diags.push_back({kind, Severity::Error, line, msg});
    };

    switch (ins.op) {
      case Opcode::Ldw:
      case Opcode::Stw: {
        if (!st[ins.ra])
            return;
        uint32_t addr = static_cast<uint32_t>(*st[ins.ra]) +
                        static_cast<uint32_t>(ins.imm);
        if (static_cast<uint64_t>(addr) + 4 > opt.wramBytes) {
            report(CheckKind::WramOutOfBounds,
                   std::string(ins.op == Opcode::Ldw ? "ldw" : "stw") +
                       " accesses WRAM[" + std::to_string(addr) +
                       "] beyond the " + std::to_string(opt.wramBytes) +
                       "-byte scratchpad");
        }
        break;
      }
      case Opcode::Ldma:
      case Opcode::Sdma: {
        const char* mn = ins.op == Opcode::Ldma ? "ldma" : "sdma";
        ConstVal wa = st[ins.rd];
        ConstVal ma = st[ins.ra];
        ConstVal sz = st[ins.rb];
        if (sz) {
            uint32_t size = static_cast<uint32_t>(*sz);
            if (size == 0 || size % 8 != 0 || size > opt.maxDmaBytes) {
                report(CheckKind::DmaBadSize,
                       std::string(mn) + " transfer size " +
                           std::to_string(size) +
                           " must be a non-zero multiple of 8 and at"
                           " most " +
                           std::to_string(opt.maxDmaBytes) + " bytes");
            }
        }
        if (wa) {
            uint32_t addr = static_cast<uint32_t>(*wa);
            if (addr % 8 != 0) {
                report(CheckKind::DmaBadAlignment,
                       std::string(mn) + " WRAM address " +
                           std::to_string(addr) +
                           " is not 8-byte aligned");
            }
            uint64_t end = static_cast<uint64_t>(addr) +
                           (sz ? static_cast<uint32_t>(*sz) : 0);
            if (end > opt.wramBytes || addr >= opt.wramBytes) {
                report(CheckKind::WramOutOfBounds,
                       std::string(mn) + " WRAM range [" +
                           std::to_string(addr) + ", " +
                           std::to_string(end) + ") beyond the " +
                           std::to_string(opt.wramBytes) +
                           "-byte scratchpad");
            }
        }
        if (ma) {
            uint32_t addr = static_cast<uint32_t>(*ma);
            if (addr % 8 != 0) {
                report(CheckKind::DmaBadAlignment,
                       std::string(mn) + " MRAM address " +
                           std::to_string(addr) +
                           " is not 8-byte aligned");
            }
            uint64_t end = static_cast<uint64_t>(addr) +
                           (sz ? static_cast<uint32_t>(*sz) : 0);
            if (end > opt.mramBytes || addr >= opt.mramBytes) {
                report(CheckKind::MramOutOfBounds,
                       std::string(mn) + " MRAM range [" +
                           std::to_string(addr) + ", " +
                           std::to_string(end) + ") beyond the " +
                           std::to_string(opt.mramBytes) +
                           "-byte bank");
            }
        }
        break;
      }
      default:
        break;
    }
}

void
checkBoundsAndDma(const Program& program, const Cfg& cfg,
                  const std::vector<bool>& reachable,
                  const std::vector<uint32_t>& rpo,
                  const VerifyOptions& opt,
                  std::vector<Diagnostic>& diags)
{
    ConstFixpoint fp = constFixpoint(program, cfg, reachable, rpo);
    for (uint32_t b : rpo) {
        if (!fp.known[b])
            continue;
        ConstState st = fp.in[b];
        const BasicBlock& bb = cfg.blocks[b];
        for (uint32_t i = bb.first; i <= bb.last; ++i) {
            checkAccess(program, i, st, opt, diags);
            transferConst(program.code[i], st);
        }
    }
}

// ---------------------------------------------------------------------
// Pass: barrier balance (loop-collapsed)
// ---------------------------------------------------------------------
//
// Lattice over barrier counts: kTop (no path seen yet), a
// non-negative count, or kConflict (paths disagree). Loops are
// collapsed innermost-first against the natural-loop forest: a loop
// whose body executes d barriers per iteration contributes
// trip * d + e (e = barriers on the exit path) as a single summary —
// legal whenever the trip count is statically known, since every
// tasklet then runs the same count. A barrier inside a loop with an
// unknown trip stays an error (tasklets may disagree on the count and
// deadlock the rendezvous).

constexpr int64_t kTop = -1;
constexpr int64_t kConflict = -2;

int64_t
meetCount(int64_t a, int64_t b)
{
    if (a == kTop)
        return b;
    if (b == kTop)
        return a;
    if (a == kConflict || b == kConflict || a != b)
        return kConflict;
    return a;
}

int64_t
addCount(int64_t a, int64_t b)
{
    if (a == kTop || b == kTop)
        return kTop;
    if (a == kConflict || b == kConflict)
        return kConflict;
    return a + b;
}

struct BarrierRegion
{
    int64_t latch = kTop; ///< meet over back edges into the header
    int64_t exit = kTop;  ///< meet over edges leaving the region
    bool conflictInside = false; ///< some join inside disagreed
    uint32_t conflictBlock = 0;  ///< a block witnessing the conflict
};

/**
 * Evaluate one region (loop @p regionId, or the whole program when
 * regionId == LoopInfo::kNone) with child loops collapsed to their
 * summaries. @p exitAt collects, per exit-edge source block, the
 * count leaving the region there (top level: exits to Cfg::kExit).
 */
BarrierRegion
evalBarrierRegion(const Program& program, const Cfg& cfg,
                  const std::vector<bool>& reachable,
                  const std::vector<uint32_t>& rpo,
                  const LoopForest& forest,
                  const std::vector<int64_t>& blockBarriers,
                  const std::vector<int64_t>& loopSummary,
                  uint32_t regionId,
                  std::map<uint32_t, int64_t>* exitAt = nullptr)
{
    (void)program;
    const bool isLoop = regionId != LoopInfo::kNone;
    const LoopInfo* loop = isLoop ? &forest.loops[regionId] : nullptr;

    auto inRegion = [&](uint32_t b) {
        if (b == Cfg::kExit || !reachable[b])
            return false;
        return isLoop ? loop->contains(b) : true;
    };
    // Representative of the region node containing block b: b itself
    // when directly in the region, else the header of the immediate
    // child loop containing it.
    auto nodeOf = [&](uint32_t b) {
        uint32_t l = forest.loopOf[b];
        while (l != LoopInfo::kNone && l != regionId &&
               forest.loops[l].parent != regionId)
            l = forest.loops[l].parent;
        if (l == regionId || l == LoopInfo::kNone)
            return b;
        return forest.loops[l].header;
    };
    // Summary of the node represented by block rep.
    auto nodeDelta = [&](uint32_t rep) {
        uint32_t l = forest.loopOf[rep];
        while (l != LoopInfo::kNone &&
               forest.loops[l].parent != regionId)
            l = forest.loops[l].parent;
        if (l != LoopInfo::kNone && l != regionId &&
            forest.loops[l].header == rep)
            return loopSummary[l];
        return blockBarriers[rep];
    };
    // Blocks whose out-edges the node represented by rep owns.
    auto forEachNodeEdge = [&](uint32_t rep, auto&& fn) {
        uint32_t l = forest.loopOf[rep];
        while (l != LoopInfo::kNone &&
               forest.loops[l].parent != regionId)
            l = forest.loops[l].parent;
        if (l != LoopInfo::kNone && l != regionId &&
            forest.loops[l].header == rep) {
            const LoopInfo& child = forest.loops[l];
            for (uint32_t cb : child.blocks) {
                if (!reachable[cb])
                    continue;
                for (uint32_t s : cfg.blocks[cb].succs) {
                    if (s != Cfg::kExit && child.contains(s))
                        continue; // internal to the child
                    fn(cb, s);
                }
            }
        } else {
            for (uint32_t s : cfg.blocks[rep].succs)
                fn(rep, s);
        }
    };

    const uint32_t entry = isLoop ? loop->header : 0;
    std::map<uint32_t, int64_t> in;
    in[nodeOf(entry)] = 0;

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : rpo) {
            if (!inRegion(b) || nodeOf(b) != b)
                continue;
            auto it = in.find(b);
            if (it == in.end())
                continue;
            int64_t out = addCount(it->second, nodeDelta(b));
            forEachNodeEdge(b, [&](uint32_t, uint32_t s) {
                if (s == Cfg::kExit || !inRegion(s))
                    return;
                if (isLoop && s == loop->header)
                    return; // back edge: collected below, not met in
                uint32_t rep = nodeOf(s);
                auto sit = in.find(rep);
                if (sit == in.end()) {
                    in[rep] = out;
                    changed = true;
                } else {
                    int64_t met = meetCount(sit->second, out);
                    if (met != sit->second) {
                        sit->second = met;
                        changed = true;
                    }
                }
            });
        }
    }

    BarrierRegion res;
    for (const auto& kv : in) {
        if (kv.second == kConflict && !res.conflictInside) {
            res.conflictInside = true;
            res.conflictBlock = kv.first;
        }
    }
    for (const auto& kv : in) {
        int64_t out = addCount(kv.second, nodeDelta(kv.first));
        forEachNodeEdge(kv.first, [&](uint32_t src, uint32_t s) {
            if (isLoop && s == loop->header) {
                res.latch = meetCount(res.latch, out);
            } else if (s == Cfg::kExit || !inRegion(s)) {
                res.exit = meetCount(res.exit, out);
                if (exitAt)
                    (*exitAt)[src] = out;
            }
        });
    }
    return res;
}

void
checkBarrierBalance(const Program& program, const Cfg& cfg,
                    const std::vector<bool>& reachable,
                    const std::vector<uint32_t>& rpo,
                    const VerifyOptions& opt,
                    std::vector<Diagnostic>& diags)
{
    std::vector<int64_t> blockBarriers(cfg.blocks.size(), 0);
    bool anyBarrier = false;
    for (uint32_t b = 0; b < cfg.blocks.size(); ++b) {
        const BasicBlock& bb = cfg.blocks[b];
        for (uint32_t i = bb.first; i <= bb.last; ++i) {
            if (program.code[i].op == Opcode::Barrier) {
                ++blockBarriers[b];
                anyBarrier = true;
            }
        }
    }
    if (!anyBarrier)
        return;

    auto firstBarrierLine = [&](const std::vector<uint32_t>& blocks) {
        for (uint32_t b : blocks) {
            const BasicBlock& bb = cfg.blocks[b];
            for (uint32_t i = bb.first; i <= bb.last; ++i) {
                if (program.code[i].op == Opcode::Barrier)
                    return program.lineOf(i);
            }
        }
        return 0u;
    };

    LoopForest forest = findLoops(program, cfg, opt.tripAnnotations);
    if (forest.irreducible) {
        // No loop structure to collapse against: any barrier that is
        // part of a cycle is suspect.
        std::vector<uint32_t> all;
        for (uint32_t b = 0; b < cfg.blocks.size(); ++b)
            if (blockBarriers[b] > 0)
                all.push_back(b);
        diags.push_back(
            {CheckKind::BarrierImbalance, Severity::Error,
             firstBarrierLine(all),
             "barrier in irreducible control flow: the per-tasklet "
             "barrier count cannot be proven equal"});
        return;
    }

    // Collapse loops innermost-first into barrier-count summaries.
    std::vector<int64_t> loopSummary(forest.loops.size(), 0);
    for (uint32_t id = 0; id < forest.loops.size(); ++id) {
        const LoopInfo& loop = forest.loops[id];
        if (!reachable[loop.header])
            continue;
        bool hasBarrier = false;
        for (uint32_t b : loop.blocks)
            hasBarrier |= blockBarriers[b] > 0;
        if (!hasBarrier)
            continue; // trivially balanced whatever the trip count

        BarrierRegion rv =
            evalBarrierRegion(program, cfg, reachable, rpo, forest,
                              blockBarriers, loopSummary, id);
        uint32_t headerLine =
            program.lineOf(cfg.blocks[loop.header].first);
        if (rv.conflictInside || rv.latch == kConflict ||
            rv.exit == kConflict) {
            diags.push_back(
                {CheckKind::BarrierImbalance, Severity::Error,
                 headerLine,
                 "paths through this loop execute differing numbers "
                 "of barriers per iteration (tasklets would deadlock "
                 "at the rendezvous)"});
            return;
        }
        int64_t latch = rv.latch == kTop ? 0 : rv.latch;
        int64_t exit = rv.exit == kTop ? 0 : rv.exit;
        if (latch > 0 && !loop.tripKnown) {
            // Only an *exact* trip makes the summary sound: an upper
            // bound (loop with a break) still lets tasklets leave at
            // different iterations with differing barrier counts.
            std::string why =
                loop.headerOnlyExit
                    ? "barrier inside a loop whose trip count is not "
                      "statically known (tasklets may disagree on "
                      "the barrier count and deadlock; a constant "
                      "bound or a # @trip(N) annotation makes it "
                      "checkable)"
                    : "barrier inside a loop with a secondary "
                      "(break) exit: tasklets may leave at "
                      "different iterations and execute differing "
                      "barrier counts, deadlocking the rendezvous "
                      "(restructure so the loop exits only at its "
                      "header test)";
            diags.push_back({CheckKind::BarrierImbalance,
                             Severity::Error,
                             firstBarrierLine(loop.blocks),
                             std::move(why)});
            return;
        }
        loopSummary[id] =
            static_cast<int64_t>(loop.tripCount) * latch + exit;
    }

    // Top-level DAG with loops collapsed: joins and exits must agree.
    std::map<uint32_t, int64_t> exitAt;
    BarrierRegion top =
        evalBarrierRegion(program, cfg, reachable, rpo, forest,
                          blockBarriers, loopSummary, LoopInfo::kNone,
                          &exitAt);
    if (top.conflictInside) {
        diags.push_back(
            {CheckKind::BarrierImbalance, Severity::Error,
             program.lineOf(cfg.blocks[top.conflictBlock].first),
             "paths reach this point having executed differing "
             "numbers of barriers (tasklets would deadlock at the "
             "rendezvous)"});
        return;
    }
    int64_t exitCount = kTop;
    for (const auto& kv : exitAt) {
        if (kv.second < 0)
            continue;
        if (exitCount == kTop) {
            exitCount = kv.second;
        } else if (kv.second != exitCount) {
            diags.push_back(
                {CheckKind::BarrierImbalance, Severity::Error,
                 program.lineOf(cfg.blocks[kv.first].last),
                 "program exits with " + std::to_string(kv.second) +
                     " barrier(s) on this path but " +
                     std::to_string(exitCount) +
                     " on another (tasklets would deadlock)"});
        }
    }
}

} // namespace

RegUse
regUse(const Instruction& ins)
{
    const OpTraits& tr = opTraits(ins.op);
    RegUse use;
    if (tr.readsRa)
        use.reads |= 1u << ins.ra;
    if (tr.readsRb)
        use.reads |= 1u << ins.rb;
    if (tr.readsRd)
        use.reads |= 1u << ins.rd;
    if (tr.writesRd)
        use.writes |= 1u << ins.rd;
    return use;
}

std::vector<Diagnostic>
verify(const Program& program, const VerifyOptions& options)
{
    std::vector<Diagnostic> diags;
    if (program.code.empty())
        return diags;

    if (!checkBranchTargets(program, diags))
        return diags; // CFG over wild targets would be meaningless

    Cfg cfg = buildCfg(program);
    std::vector<bool> reachable = reachableBlocks(cfg);
    std::vector<uint32_t> rpo = reversePostOrder(cfg);

    checkUnreachable(program, cfg, reachable, diags);
    checkDefBeforeUse(program, cfg, reachable, rpo, diags);
    checkBoundsAndDma(program, cfg, reachable, rpo, options, diags);
    checkBarrierBalance(program, cfg, reachable, rpo, options, diags);

    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         return a.line < b.line;
                     });
    return diags;
}

} // namespace check
} // namespace sim
} // namespace tpl
