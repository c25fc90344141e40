/**
 * @file
 * Constant-propagation lattice over mini-ISA programs, shared by the
 * verifier's bounds/DMA pass (verify.cc), the natural-loop pass's
 * trip-count inference (loops.cc) and the static cycle-bound pass
 * (bound.cc).
 *
 * The lattice value of one register is either "unknown" or a known
 * 32-bit constant; the meet of two states keeps a register only when
 * both sides agree. `constFixpoint()` runs the standard forward
 * fixpoint over a CFG and returns the state *entering* each block;
 * callers replay `transferConst()` instruction by instruction to get
 * the state at any program point.
 */

#ifndef TPL_PIMSIM_ANALYSIS_CONSTPROP_H
#define TPL_PIMSIM_ANALYSIS_CONSTPROP_H

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "pimsim/analysis/cfg.h"
#include "pimsim/isa.h"

namespace tpl {
namespace sim {
namespace check {

/** Lattice value of one register: unknown or a known 32-bit constant. */
using ConstVal = std::optional<int32_t>;

/** One lattice state: a value per register r0..r23. */
using ConstState = std::array<ConstVal, 24>;

/** Meet: keep a register constant only when both sides agree. */
inline ConstState
meetStates(const ConstState& a, const ConstState& b)
{
    ConstState out;
    for (uint32_t r = 0; r < out.size(); ++r) {
        if (a[r] && b[r] && *a[r] == *b[r])
            out[r] = a[r];
        else
            out[r] = std::nullopt;
    }
    return out;
}

/**
 * Fold one instruction: the new value of rd when it is an ALU opcode
 * and every register OpTraits says it reads is known, computed by the
 * interpreter's own aluResult().
 */
inline ConstVal
foldValue(const Instruction& ins, const ConstState& st)
{
    const OpTraits& tr = opTraits(ins.op);
    if (!isAlu(ins.op) || (tr.readsRa && !st[ins.ra]) ||
        (tr.readsRb && !st[ins.rb]))
        return std::nullopt;
    return aluResult(ins, st[ins.ra].value_or(0), st[ins.rb].value_or(0));
}

/** Apply one instruction's effect to the state (kill or fold rd). */
inline void
transferConst(const Instruction& ins, ConstState& st)
{
    if (!opTraits(ins.op).writesRd)
        return;
    st[ins.rd] = foldValue(ins, st);
}

/**
 * Result of the forward constant-propagation fixpoint: the lattice
 * state entering each block. `known[b]` is false for blocks the
 * propagation never reached (unreachable code).
 */
struct ConstFixpoint
{
    std::vector<ConstState> in;
    std::vector<bool> known;
};

/** Run the forward fixpoint over @p cfg (reachable blocks only). */
inline ConstFixpoint
constFixpoint(const Program& program, const Cfg& cfg,
              const std::vector<bool>& reachable,
              const std::vector<uint32_t>& rpo)
{
    ConstFixpoint fp;
    fp.in.resize(cfg.blocks.size());
    fp.known.assign(cfg.blocks.size(), false);
    if (cfg.blocks.empty())
        return fp;
    fp.in[0] = ConstState{}; // nothing constant at entry
    fp.known[0] = true;

    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : rpo) {
            if (!fp.known[b])
                continue;
            ConstState st = fp.in[b];
            const BasicBlock& bb = cfg.blocks[b];
            for (uint32_t i = bb.first; i <= bb.last; ++i)
                transferConst(program.code[i], st);
            for (uint32_t succ : cfg.blocks[b].succs) {
                if (succ == Cfg::kExit || !reachable[succ])
                    continue;
                if (!fp.known[succ]) {
                    fp.in[succ] = st;
                    fp.known[succ] = true;
                    changed = true;
                } else {
                    ConstState met = meetStates(fp.in[succ], st);
                    if (met != fp.in[succ]) {
                        fp.in[succ] = met;
                        changed = true;
                    }
                }
            }
        }
    }
    return fp;
}

} // namespace check
} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_ANALYSIS_CONSTPROP_H
