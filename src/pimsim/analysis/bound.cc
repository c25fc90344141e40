/**
 * @file
 * Static cycle-bound computation over the natural-loop forest.
 */

#include "pimsim/analysis/bound.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/emu_int.h"
#include "pimsim/analysis/constprop.h"
#include "pimsim/analysis/loops.h"

namespace tpl {
namespace sim {
namespace check {

namespace {

/** Per-tasklet cost interval of a program region (all fields are
 * [min over paths, max over paths]). */
struct Interval
{
    uint64_t instrMin = 0, instrMax = 0;
    uint64_t stallMin = 0, stallMax = 0;
    uint64_t engineMin = 0, engineMax = 0;
    uint64_t bytesMin = 0, bytesMax = 0;
    std::array<uint64_t, numInstrClasses> clsMin{};
    std::array<uint64_t, numInstrClasses> clsMax{};

    bool operator==(const Interval& o) const
    {
        return instrMin == o.instrMin && instrMax == o.instrMax &&
               stallMin == o.stallMin && stallMax == o.stallMax &&
               engineMin == o.engineMin && engineMax == o.engineMax &&
               bytesMin == o.bytesMin && bytesMax == o.bytesMax &&
               clsMin == o.clsMin && clsMax == o.clsMax;
    }
};

/** Sequential composition: both segments execute. */
Interval
seq(const Interval& a, const Interval& b)
{
    Interval r;
    r.instrMin = a.instrMin + b.instrMin;
    r.instrMax = a.instrMax + b.instrMax;
    r.stallMin = a.stallMin + b.stallMin;
    r.stallMax = a.stallMax + b.stallMax;
    r.engineMin = a.engineMin + b.engineMin;
    r.engineMax = a.engineMax + b.engineMax;
    r.bytesMin = a.bytesMin + b.bytesMin;
    r.bytesMax = a.bytesMax + b.bytesMax;
    for (int c = 0; c < numInstrClasses; ++c) {
        r.clsMin[c] = a.clsMin[c] + b.clsMin[c];
        r.clsMax[c] = a.clsMax[c] + b.clsMax[c];
    }
    return r;
}

/** Alternative composition: one of the two paths executes. */
Interval
alt(const Interval& a, const Interval& b)
{
    Interval r;
    r.instrMin = std::min(a.instrMin, b.instrMin);
    r.instrMax = std::max(a.instrMax, b.instrMax);
    r.stallMin = std::min(a.stallMin, b.stallMin);
    r.stallMax = std::max(a.stallMax, b.stallMax);
    r.engineMin = std::min(a.engineMin, b.engineMin);
    r.engineMax = std::max(a.engineMax, b.engineMax);
    r.bytesMin = std::min(a.bytesMin, b.bytesMin);
    r.bytesMax = std::max(a.bytesMax, b.bytesMax);
    for (int c = 0; c < numInstrClasses; ++c) {
        r.clsMin[c] = std::min(a.clsMin[c], b.clsMin[c]);
        r.clsMax[c] = std::max(a.clsMax[c], b.clsMax[c]);
    }
    return r;
}

/** The segment repeated @p n times. */
Interval
scale(const Interval& a, uint64_t n)
{
    Interval r;
    r.instrMin = a.instrMin * n;
    r.instrMax = a.instrMax * n;
    r.stallMin = a.stallMin * n;
    r.stallMax = a.stallMax * n;
    r.engineMin = a.engineMin * n;
    r.engineMax = a.engineMax * n;
    r.bytesMin = a.bytesMin * n;
    r.bytesMax = a.bytesMax * n;
    for (int c = 0; c < numInstrClasses; ++c) {
        r.clsMin[c] = a.clsMin[c] * n;
        r.clsMax[c] = a.clsMax[c] * n;
    }
    return r;
}

/** The segment repeated anywhere between 0 and @p n times (counted
 * loop with a secondary break exit: the header test caps iterations
 * at n, a break can leave after any earlier iteration). */
Interval
scaleUpper(const Interval& a, uint64_t n)
{
    Interval r; // min side: the loop may exit before any iteration
    r.instrMax = a.instrMax * n;
    r.stallMax = a.stallMax * n;
    r.engineMax = a.engineMax * n;
    r.bytesMax = a.bytesMax * n;
    for (int c = 0; c < numInstrClasses; ++c)
        r.clsMax[c] = a.clsMax[c] * n;
    return r;
}

/** Magnitude the emulated multiply's row scan sees. */
uint32_t
magOf(int32_t v)
{
    return v < 0 ? static_cast<uint32_t>(-static_cast<int64_t>(v))
                 : static_cast<uint32_t>(v);
}

/** Add a fixed charge in one class to both interval sides. */
void
chargeExact(Interval& iv, InstrClass cls, uint64_t n)
{
    int c = static_cast<int>(cls);
    iv.instrMin += n;
    iv.instrMax += n;
    iv.clsMin[c] += n;
    iv.clsMax[c] += n;
}

/** Add a [lo, hi] charge in one class. */
void
chargeRange(Interval& iv, InstrClass cls, uint64_t lo, uint64_t hi)
{
    int c = static_cast<int>(cls);
    iv.instrMin += lo;
    iv.instrMax += hi;
    iv.clsMin[c] += lo;
    iv.clsMax[c] += hi;
}

/**
 * Charge one instruction into @p iv, mirroring exactly what the
 * interpreter (isa.cc) and TaskletContext (dpu.cc) charge at runtime.
 * @return false (setting @p reason) when no finite bound exists.
 */
bool
instrCost(const Instruction& ins, uint32_t line, const ConstState& st,
          const CostModel& m, Interval& iv, std::string& reason)
{
    switch (ins.op) {
      case Opcode::Mul:
      case Opcode::Mulh: {
        // emuMulS32: 4 (sign handling) + mulBaseCost + rows *
        // mulRowCost, rows = min(nonZeroBytes(|a|), nonZeroBytes(|b|))
        // in [0, 4]. Constant operands pin or cap the row count.
        uint64_t base = 4 + emu::mulBaseCost;
        if (st[ins.ra] && st[ins.rb]) {
            uint32_t rows =
                std::min(emu::nonZeroBytes(magOf(*st[ins.ra])),
                         emu::nonZeroBytes(magOf(*st[ins.rb])));
            chargeExact(iv, InstrClass::IntMulDiv,
                        base + rows * emu::mulRowCost);
        } else if (st[ins.ra] || st[ins.rb]) {
            uint32_t cap = emu::nonZeroBytes(
                magOf(st[ins.ra] ? *st[ins.ra] : *st[ins.rb]));
            chargeRange(iv, InstrClass::IntMulDiv, base,
                        base + cap * emu::mulRowCost);
        } else {
            chargeRange(iv, InstrClass::IntMulDiv, base,
                        base + 4 * emu::mulRowCost);
        }
        return true;
      }
      case Opcode::Ldma:
      case Opcode::Sdma: {
        if (!st[ins.rb]) {
            reason = "line " + std::to_string(line) + ": " +
                     std::string(ins.op == Opcode::Ldma ? "ldma"
                                                        : "sdma") +
                     " size register r" + std::to_string(ins.rb) +
                     " is not statically constant";
            return false;
        }
        uint32_t size = static_cast<uint32_t>(*st[ins.rb]);
        // accountDma(): engine = setup + trunc(size * cyclesPerByte);
        // the tasklet stalls for latency + engine on top.
        uint64_t engine =
            m.dmaSetupCycles +
            static_cast<uint64_t>(static_cast<double>(size) *
                                  m.dmaCyclesPerByte);
        iv.engineMin += engine;
        iv.engineMax += engine;
        iv.stallMin += m.dmaLatencyCycles + engine;
        iv.stallMax += m.dmaLatencyCycles + engine;
        iv.bytesMin += size;
        iv.bytesMax += size;
        chargeExact(iv, InstrClass::DmaIssue, 2);
        return true;
      }
      case Opcode::Barrier:
        chargeExact(iv, InstrClass::Barrier, 1);
        return true;
      default:
        // Every other opcode (ALU, loads/stores, branches, movi,
        // tid/ntask, halt) charges exactly one IntAlu slot.
        chargeExact(iv, InstrClass::IntAlu, 1);
        return true;
    }
}

/** Result of evaluating a region (loop body or whole program). */
struct RegionValue
{
    bool hasLatch = false;
    Interval latch; ///< header -> back edge (one full iteration)
    bool hasExit = false;
    Interval exit; ///< header -> first edge leaving the region
};

/**
 * Propagate cost intervals through one region of the loop forest:
 * either the body of loop @p regionId or, with LoopInfo::kNone, the
 * whole program. Child loops are collapsed super-nodes whose value
 * (@p loopVal) was computed innermost-first by the caller.
 */
RegionValue
evalRegion(const Program& program, const Cfg& cfg,
           const std::vector<bool>& reachable,
           const std::vector<uint32_t>& rpo, const LoopForest& forest,
           const std::vector<Interval>& blockCost,
           const std::vector<Interval>& loopVal, uint32_t regionId)
{
    (void)program;
    const bool top = regionId == LoopInfo::kNone;
    const LoopInfo* region = top ? nullptr : &forest.loops[regionId];

    auto inRegion = [&](uint32_t b) {
        if (top)
            return reachable[b];
        return region->contains(b);
    };
    // Representative node of block b: the block itself when it sits
    // directly in this region, else the child loop (walked up to an
    // immediate child) it belongs to, keyed by that loop's header.
    auto nodeOf = [&](uint32_t b) -> std::pair<uint32_t, uint32_t> {
        uint32_t c = forest.loopOf[b];
        if (c == regionId)
            return {b, LoopInfo::kNone};
        while (forest.loops[c].parent != regionId)
            c = forest.loops[c].parent;
        return {forest.loops[c].header, c};
    };

    // Region nodes in (reverse post) order.
    std::vector<std::pair<uint32_t, uint32_t>> nodes;
    std::set<uint32_t> seen;
    for (uint32_t b : rpo) {
        if (!inRegion(b))
            continue;
        auto node = nodeOf(b);
        if (seen.insert(node.first).second)
            nodes.push_back(node);
    }

    std::map<uint32_t, Interval> in;
    std::set<uint32_t> known;
    uint32_t entryRep =
        top ? (cfg.blocks.empty() ? 0 : nodeOf(0).first)
            : region->header;
    in[entryRep] = Interval{};
    known.insert(entryRep);

    // Outgoing edges of a node: a block's successors, or every edge
    // leaving a collapsed child loop.
    auto forEachEdge = [&](const std::pair<uint32_t, uint32_t>& node,
                           const Interval& out, auto&& visit) {
        if (node.second == LoopInfo::kNone) {
            for (uint32_t s : cfg.blocks[node.first].succs)
                visit(s, out);
        } else {
            const LoopInfo& child = forest.loops[node.second];
            for (uint32_t b : child.blocks) {
                for (uint32_t s : cfg.blocks[b].succs) {
                    if (s == Cfg::kExit || !child.contains(s))
                        visit(s, out);
                }
            }
        }
    };

    auto costOf = [&](const std::pair<uint32_t, uint32_t>& node) {
        return node.second == LoopInfo::kNone
                   ? blockCost[node.first]
                   : loopVal[node.second];
    };

    // Forward fixpoint (converges fast: the collapsed region graph
    // of a reducible CFG is acyclic and nodes are in RPO).
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto& node : nodes) {
            if (!known.count(node.first))
                continue;
            Interval out = seq(in[node.first], costOf(node));
            forEachEdge(node, out, [&](uint32_t s, const Interval& o) {
                if (s == Cfg::kExit || !inRegion(s))
                    return; // exit edge: collected after convergence
                if (!top && s == region->header)
                    return; // back edge: collected after convergence
                uint32_t rep = nodeOf(s).first;
                if (!known.count(rep)) {
                    in[rep] = o;
                    known.insert(rep);
                    changed = true;
                } else {
                    Interval met = alt(in[rep], o);
                    if (!(met == in[rep])) {
                        in[rep] = met;
                        changed = true;
                    }
                }
            });
        }
    }

    RegionValue rv;
    for (const auto& node : nodes) {
        if (!known.count(node.first))
            continue;
        Interval out = seq(in[node.first], costOf(node));
        forEachEdge(node, out, [&](uint32_t s, const Interval& o) {
            if (s == Cfg::kExit || !inRegion(s)) {
                rv.exit = rv.hasExit ? alt(rv.exit, o) : o;
                rv.hasExit = true;
            } else if (!top && s == region->header) {
                rv.latch = rv.hasLatch ? alt(rv.latch, o) : o;
                rv.hasLatch = true;
            }
        });
    }
    return rv;
}

} // namespace

CycleBound
computeBound(const Program& program, const BoundOptions& options)
{
    CycleBound bound;
    bound.tasklets = options.tasklets;
    if (program.code.empty()) {
        bound.bounded = true;
        return bound;
    }

    Cfg cfg = buildCfg(program);
    std::vector<bool> reachable = reachableBlocks(cfg);
    std::vector<uint32_t> rpo = reversePostOrder(cfg);
    LoopForest forest =
        findLoops(program, cfg, options.tripAnnotations);
    if (forest.irreducible) {
        bound.reason = "irreducible control flow: loop structure "
                       "(and any trip count) is undefined";
        return bound;
    }

    ConstFixpoint fp = constFixpoint(program, cfg, reachable, rpo);

    // Per-block cost intervals from the per-point constant states.
    std::vector<Interval> blockCost(cfg.blocks.size());
    for (uint32_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!reachable[b] || !fp.known[b])
            continue;
        ConstState st = fp.in[b];
        const BasicBlock& bb = cfg.blocks[b];
        for (uint32_t i = bb.first; i <= bb.last; ++i) {
            if (!instrCost(program.code[i], program.lineOf(i), st,
                           options.model, blockCost[b],
                           bound.reason))
                return bound;
            transferConst(program.code[i], st);
        }
    }

    // Collapse loops innermost-first (the forest is sorted that way).
    std::vector<Interval> loopVal(forest.loops.size());
    for (uint32_t id = 0; id < forest.loops.size(); ++id) {
        const LoopInfo& loop = forest.loops[id];
        if (!reachable[loop.header])
            continue;
        if (!loop.tripKnown && !loop.tripUpperKnown) {
            bound.reason =
                "line " +
                std::to_string(
                    program.lineOf(cfg.blocks[loop.header].last)) +
                ": loop trip count is not statically known "
                "(data-dependent bound; annotate with # @trip(N))";
            return bound;
        }
        bound.usedAnnotation |= loop.annotated;
        bound.usedTripUpper |= !loop.tripKnown;
        RegionValue rv =
            evalRegion(program, cfg, reachable, rpo, forest,
                       blockCost, loopVal, id);
        if (!rv.hasExit) {
            bound.reason =
                "line " +
                std::to_string(
                    program.lineOf(cfg.blocks[loop.header].first)) +
                ": loop has no exit edge (never terminates)";
            return bound;
        }
        // Trip iterations around the back edge, then the exit path
        // (which runs the header's final test). With only an upper
        // bound (secondary break exit) the iteration count is
        // [0, tripUpper]; the exit interval already spans every exit
        // edge, break paths included.
        Interval val = rv.exit;
        if (rv.hasLatch) {
            val = loop.tripKnown
                      ? seq(scale(rv.latch, loop.tripCount), val)
                      : seq(scaleUpper(rv.latch, loop.tripUpper),
                            val);
        }
        loopVal[id] = val;
    }

    RegionValue total =
        evalRegion(program, cfg, reachable, rpo, forest, blockCost,
                   loopVal, LoopInfo::kNone);
    if (!total.hasExit) {
        bound.reason = "no path reaches the program exit";
        return bound;
    }

    const Interval& t = total.exit;
    bound.instrMin = t.instrMin;
    bound.instrMax = t.instrMax;
    bound.stallMin = t.stallMin;
    bound.stallMax = t.stallMax;
    bound.engineMin = t.engineMin;
    bound.engineMax = t.engineMax;
    bound.bytesMin = t.bytesMin;
    bound.bytesMax = t.bytesMax;
    bound.classMin = t.clsMin;
    bound.classMax = t.clsMax;

    // Launch reconstruction (dpu.cc): cycles = max(total
    // instructions, max per-tasklet work, DMA engine occupancy),
    // with every tasklet's path independently inside the interval.
    const uint64_t T = options.tasklets;
    const uint64_t I = options.model.pipelineInterval;
    bound.bcet = std::max({T * t.instrMin,
                           t.instrMin * I + t.stallMin,
                           T * t.engineMin});
    bound.wcet = std::max({T * t.instrMax,
                           t.instrMax * I + t.stallMax,
                           T * t.engineMax});
    for (int c = 0; c < numInstrClasses; ++c)
        bound.classWorst[c] = T * t.clsMax[c];
    bound.bounded = true;
    return bound;
}

} // namespace check
} // namespace sim
} // namespace tpl
