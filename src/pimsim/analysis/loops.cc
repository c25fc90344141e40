/**
 * @file
 * Natural-loop detection and trip-count inference.
 */

#include "pimsim/analysis/loops.h"

#include <algorithm>
#include <deque>

#include "pimsim/analysis/constprop.h"

namespace tpl {
namespace sim {
namespace check {

namespace {

/** Inference gives up past this many simulated header tests. */
constexpr uint64_t kMaxTrip = 1ull << 22;

constexpr uint32_t kUndef = 0xffffffffu;

/** True when block @p a dominates block @p b (both reachable). */
bool
dominates(const std::vector<uint32_t>& idom, uint32_t a, uint32_t b)
{
    // Walk b's dominator chain up to the entry (its own idom).
    uint32_t cur = b;
    while (true) {
        if (cur == a)
            return true;
        uint32_t up = idom[cur];
        if (up == cur || up == kUndef)
            return false;
        cur = up;
    }
}

/** Const state at the *exit* of block @p b (replays the block). */
ConstState
outState(const Program& program, const Cfg& cfg,
         const ConstFixpoint& fp, uint32_t b)
{
    ConstState st = fp.in[b];
    const BasicBlock& bb = cfg.blocks[b];
    for (uint32_t i = bb.first; i <= bb.last; ++i)
        transferConst(program.code[i], st);
    return st;
}

/**
 * Try to infer @p loop's trip count from the counted-loop shape:
 * header-tested conditional branch over one induction register
 * (updated by a single addi/subi that dominates every latch) and one
 * loop-invariant constant bound. Simulates the exact 32-bit branch
 * semantics, so wraparound behaves as the interpreter would.
 */
void
inferTrip(const Program& program, const Cfg& cfg,
          const std::vector<uint32_t>& idom, const ConstFixpoint& fp,
          const std::vector<uint32_t>& loopOf, uint32_t loopId,
          LoopInfo& loop)
{
    const BasicBlock& hb = cfg.blocks[loop.header];
    const Instruction& br = program.code[hb.last];
    if (!opTraits(br.op).condBranch)
        return; // not header-tested
    if (br.ra == br.rb)
        return;

    const uint32_t n = static_cast<uint32_t>(program.code.size());
    auto blockOrExit = [&](uint32_t instr) {
        return instr < n ? cfg.blockOf[instr] : Cfg::kExit;
    };
    uint32_t takenBlock = blockOrExit(static_cast<uint32_t>(br.imm));
    uint32_t fallBlock = blockOrExit(hb.last + 1);
    bool takenIn =
        takenBlock != Cfg::kExit && loop.contains(takenBlock);
    bool fallIn = fallBlock != Cfg::kExit && loop.contains(fallBlock);
    if (takenIn == fallIn)
        return; // both continue or both exit: not a counted header

    // Classify the two branch operands: exactly one induction
    // register (written in the loop), one invariant bound.
    auto writersOf = [&](uint8_t reg) {
        std::vector<uint32_t> writers;
        for (uint32_t b : loop.blocks) {
            const BasicBlock& bb = cfg.blocks[b];
            for (uint32_t i = bb.first; i <= bb.last; ++i) {
                const Instruction& ins = program.code[i];
                if (opTraits(ins.op).writesRd && ins.rd == reg)
                    writers.push_back(i);
            }
        }
        return writers;
    };
    std::vector<uint32_t> wa = writersOf(br.ra);
    std::vector<uint32_t> wb = writersOf(br.rb);
    uint8_t var, bound;
    std::vector<uint32_t>* varWriters;
    if (!wa.empty() && wb.empty()) {
        var = br.ra;
        bound = br.rb;
        varWriters = &wa;
    } else if (wa.empty() && !wb.empty()) {
        var = br.rb;
        bound = br.ra;
        varWriters = &wb;
    } else {
        return;
    }

    // Single addi/subi step, i = i +/- imm, executing exactly once
    // per iteration: its block dominates every latch and is not
    // buried in a nested loop.
    if (varWriters->size() != 1)
        return;
    const uint32_t incIdx = (*varWriters)[0];
    const Instruction& inc = program.code[incIdx];
    if ((inc.op != Opcode::Addi && inc.op != Opcode::Subi) ||
        inc.ra != var)
        return;
    uint32_t incBlock = cfg.blockOf[incIdx];
    if (loopOf[incBlock] != loopId)
        return;
    for (uint32_t latch : loop.latches) {
        if (!dominates(idom, incBlock, latch))
            return;
    }

    // Initial induction value and the bound: constants at the loop
    // preheader (meet over the non-latch predecessors of the header;
    // the header's own in-state already meets the back edge, which
    // destroys the induction register's constancy).
    bool haveInit = false;
    bool initKnown = false, boundKnown = false;
    int32_t initVal = 0, boundVal = 0;
    for (uint32_t pred : cfg.blocks[loop.header].preds) {
        if (std::find(loop.latches.begin(), loop.latches.end(),
                      pred) != loop.latches.end())
            continue;
        if (!fp.known[pred])
            continue;
        ConstState st = outState(program, cfg, fp, pred);
        if (!haveInit) {
            initKnown = st[var].has_value();
            initVal = initKnown ? *st[var] : 0;
            boundKnown = st[bound].has_value();
            boundVal = boundKnown ? *st[bound] : 0;
            haveInit = true;
        } else {
            initKnown &= st[var] && *st[var] == initVal;
            boundKnown &= st[bound] && *st[bound] == boundVal;
        }
    }
    if (!haveInit || !initKnown || !boundKnown)
        return;

    uint32_t step = static_cast<uint32_t>(inc.imm);
    if (inc.op == Opcode::Subi)
        step = 0u - step;
    // If the step sits in the header block it has already executed
    // when the branch tests (block instructions precede the
    // terminator); account for that before the first test.
    uint32_t val = static_cast<uint32_t>(initVal);
    if (incBlock == loop.header)
        val += step;

    uint64_t trips = 0;
    while (trips <= kMaxTrip) {
        int32_t sv = static_cast<int32_t>(val);
        int32_t a = (br.ra == var) ? sv : boundVal;
        int32_t b = (br.rb == var) ? sv : boundVal;
        bool continues = branchTaken(br.op, a, b) ? takenIn : fallIn;
        if (!continues) {
            // Exact only when the header test is the loop's sole
            // exit; a secondary (break) edge in the body can leave
            // earlier, making the header count an upper bound on
            // completed iterations.
            if (loop.headerOnlyExit) {
                loop.tripKnown = true;
                loop.tripCount = trips;
            } else {
                loop.tripUpperKnown = true;
                loop.tripUpper = trips;
            }
            return;
        }
        ++trips;
        val += step;
    }
    // Never exited within the cap: leave unknown.
}

} // namespace

bool
LoopInfo::contains(uint32_t block) const
{
    return std::binary_search(blocks.begin(), blocks.end(), block);
}

std::vector<uint32_t>
dominators(const Cfg& cfg)
{
    std::vector<uint32_t> idom(cfg.blocks.size(), kUndef);
    if (cfg.blocks.empty())
        return idom;
    std::vector<uint32_t> rpo = reversePostOrder(cfg);
    std::vector<uint32_t> rpoIndex(cfg.blocks.size(), kUndef);
    for (uint32_t i = 0; i < rpo.size(); ++i)
        rpoIndex[rpo[i]] = i;

    idom[0] = 0;
    auto intersect = [&](uint32_t a, uint32_t b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = idom[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = idom[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : rpo) {
            if (b == 0)
                continue;
            uint32_t newIdom = kUndef;
            for (uint32_t pred : cfg.blocks[b].preds) {
                if (rpoIndex[pred] == kUndef || idom[pred] == kUndef)
                    continue; // unreachable or not yet processed
                newIdom = (newIdom == kUndef)
                              ? pred
                              : intersect(pred, newIdom);
            }
            if (newIdom != kUndef && idom[b] != newIdom) {
                idom[b] = newIdom;
                changed = true;
            }
        }
    }
    return idom;
}

LoopForest
findLoops(const Program& program, const Cfg& cfg,
          const std::map<uint32_t, uint64_t>& tripAnnotations)
{
    LoopForest forest;
    forest.loopOf.assign(cfg.blocks.size(), LoopInfo::kNone);
    if (cfg.blocks.empty())
        return forest;

    std::vector<bool> reachable = reachableBlocks(cfg);
    std::vector<uint32_t> rpo = reversePostOrder(cfg);
    std::vector<uint32_t> idom = dominators(cfg);

    // Dominance back edges u -> h; natural loop of h = union over
    // its back edges of everything that reaches u without passing h.
    std::map<uint32_t, std::vector<uint32_t>> latchesOf;
    for (uint32_t u = 0; u < cfg.blocks.size(); ++u) {
        if (!reachable[u])
            continue;
        for (uint32_t v : cfg.blocks[u].succs) {
            if (v == Cfg::kExit || !reachable[v])
                continue;
            if (dominates(idom, v, u))
                latchesOf[v].push_back(u);
        }
    }

    for (auto& [header, latches] : latchesOf) {
        LoopInfo loop;
        loop.header = header;
        loop.latches = latches;
        std::vector<bool> inLoop(cfg.blocks.size(), false);
        inLoop[header] = true;
        std::deque<uint32_t> work(latches.begin(), latches.end());
        while (!work.empty()) {
            uint32_t b = work.front();
            work.pop_front();
            if (inLoop[b])
                continue;
            inLoop[b] = true;
            for (uint32_t pred : cfg.blocks[b].preds) {
                if (reachable[pred] && !inLoop[pred])
                    work.push_back(pred);
            }
        }
        for (uint32_t b = 0; b < cfg.blocks.size(); ++b) {
            if (inLoop[b])
                loop.blocks.push_back(b);
        }
        loop.headerOnlyExit = true;
        for (uint32_t b : loop.blocks) {
            if (b == header)
                continue;
            for (uint32_t s : cfg.blocks[b].succs) {
                if (s == Cfg::kExit || !inLoop[s])
                    loop.headerOnlyExit = false;
            }
        }
        forest.loops.push_back(std::move(loop));
    }

    // Irreducibility: with every dominance back edge cut, a reducible
    // CFG is acyclic. Kahn's algorithm over the reachable remainder.
    {
        std::vector<uint32_t> indeg(cfg.blocks.size(), 0);
        auto isBackEdge = [&](uint32_t u, uint32_t v) {
            auto it = latchesOf.find(v);
            if (it == latchesOf.end())
                return false;
            return std::find(it->second.begin(), it->second.end(),
                             u) != it->second.end();
        };
        uint32_t live = 0;
        for (uint32_t u = 0; u < cfg.blocks.size(); ++u) {
            if (!reachable[u])
                continue;
            ++live;
            for (uint32_t v : cfg.blocks[u].succs) {
                if (v != Cfg::kExit && reachable[v] &&
                    !isBackEdge(u, v))
                    ++indeg[v];
            }
        }
        std::deque<uint32_t> ready;
        for (uint32_t b = 0; b < cfg.blocks.size(); ++b) {
            if (reachable[b] && indeg[b] == 0)
                ready.push_back(b);
        }
        uint32_t popped = 0;
        while (!ready.empty()) {
            uint32_t u = ready.front();
            ready.pop_front();
            ++popped;
            for (uint32_t v : cfg.blocks[u].succs) {
                if (v == Cfg::kExit || !reachable[v] ||
                    isBackEdge(u, v))
                    continue;
                if (--indeg[v] == 0)
                    ready.push_back(v);
            }
        }
        forest.irreducible = (popped != live);
    }

    // Innermost-first order: sort by member count so iterating the
    // vector front-to-back visits children before parents.
    std::sort(forest.loops.begin(), forest.loops.end(),
              [](const LoopInfo& a, const LoopInfo& b) {
                  if (a.blocks.size() != b.blocks.size())
                      return a.blocks.size() < b.blocks.size();
                  return a.header < b.header;
              });

    for (uint32_t id = 0; id < forest.loops.size(); ++id) {
        for (uint32_t b : forest.loops[id].blocks) {
            if (forest.loopOf[b] == LoopInfo::kNone)
                forest.loopOf[b] = id; // smallest loop wins
        }
    }
    for (uint32_t id = 0; id < forest.loops.size(); ++id) {
        for (uint32_t outer = id + 1; outer < forest.loops.size();
             ++outer) {
            if (forest.loops[outer].contains(
                    forest.loops[id].header)) {
                forest.loops[id].parent = outer;
                forest.loops[outer].children.push_back(id);
                break;
            }
        }
    }
    for (uint32_t id = forest.loops.size(); id-- > 0;) {
        uint32_t parent = forest.loops[id].parent;
        forest.loops[id].depth =
            parent == LoopInfo::kNone
                ? 1
                : forest.loops[parent].depth + 1;
    }

    if (forest.irreducible)
        return forest; // trip inference over undefined structure: no

    ConstFixpoint fp = constFixpoint(program, cfg, reachable, rpo);
    for (uint32_t id = 0; id < forest.loops.size(); ++id) {
        inferTrip(program, cfg, idom, fp, forest.loopOf, id,
                  forest.loops[id]);
    }

    // Annotation fallback: map each @trip(N) line to the innermost
    // loop containing an instruction on that line.
    for (const auto& [line, trip] : tripAnnotations) {
        for (uint32_t i = 0; i < program.lines.size(); ++i) {
            if (program.lines[i] != line)
                continue;
            uint32_t loopId = forest.loopOf[cfg.blockOf[i]];
            if (loopId == LoopInfo::kNone)
                continue;
            LoopInfo& loop = forest.loops[loopId];
            if (!loop.tripKnown && !loop.tripUpperKnown) {
                // An annotation on a multi-exit loop is only an
                // upper bound: a break can still leave earlier, and
                // different tasklets may break at different
                // iterations, so the count must not be treated as
                // exact (barrier balance would be unsound).
                if (loop.headerOnlyExit) {
                    loop.tripKnown = true;
                    loop.tripCount = trip;
                } else {
                    loop.tripUpperKnown = true;
                    loop.tripUpper = trip;
                }
                loop.annotated = true;
            }
            break;
        }
    }
    return forest;
}

std::map<uint32_t, uint64_t>
parseTripAnnotations(const std::string& source)
{
    std::map<uint32_t, uint64_t> out;
    uint32_t lineNo = 1;
    size_t pos = 0;
    while (pos <= source.size()) {
        size_t eol = source.find('\n', pos);
        std::string line = source.substr(
            pos, eol == std::string::npos ? std::string::npos
                                          : eol - pos);
        size_t at = line.find("@trip(");
        if (at != std::string::npos) {
            size_t p = at + 6;
            uint64_t value = 0;
            bool any = false;
            while (p < line.size() && line[p] >= '0' &&
                   line[p] <= '9') {
                value = value * 10 + (line[p] - '0');
                any = true;
                ++p;
            }
            if (any && p < line.size() && line[p] == ')')
                out[lineNo] = value;
        }
        if (eol == std::string::npos)
            break;
        pos = eol + 1;
        ++lineNo;
    }
    return out;
}

} // namespace check
} // namespace sim
} // namespace tpl
