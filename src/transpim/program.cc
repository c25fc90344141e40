/**
 * @file
 * PimProgram implementation.
 */

#include "transpim/program.h"

#include <stdexcept>

namespace tpl {
namespace transpim {

void
PimProgram::add(const std::string& name, FunctionEvaluator evaluator)
{
    if (evaluators_.count(name))
        throw std::invalid_argument("PimProgram: duplicate name '" +
                                    name + "'");
    uint32_t wramUsed = wramTableBytes();
    uint32_t requested = evaluator.spec().placement == Placement::Wram
                             ? evaluator.memoryBytes()
                             : 0;
    if (wramUsed + requested > wramBudget_) {
        uint32_t remaining =
            wramBudget_ > wramUsed ? wramBudget_ - wramUsed : 0;
        throw std::length_error(
            "PimProgram: WRAM table budget exceeded adding '" + name +
            "': requested " + std::to_string(requested) +
            " bytes but only " + std::to_string(remaining) +
            " of " + std::to_string(wramBudget_) +
            " remain (" + std::to_string(wramUsed) +
            " already committed)");
    }
    evaluators_.emplace(name, std::move(evaluator));
}

const FunctionEvaluator&
PimProgram::get(const std::string& name) const
{
    auto it = evaluators_.find(name);
    if (it == evaluators_.end())
        throw std::out_of_range("PimProgram: no evaluator '" + name +
                                "'");
    return it->second;
}

uint32_t
PimProgram::totalTableBytes() const
{
    uint32_t total = 0;
    for (const auto& [name, eval] : evaluators_)
        total += eval.memoryBytes();
    return total;
}

uint32_t
PimProgram::wramTableBytes() const
{
    uint32_t total = 0;
    for (const auto& [name, eval] : evaluators_) {
        if (eval.spec().placement == Placement::Wram)
            total += eval.memoryBytes();
    }
    return total;
}

double
PimProgram::totalSetupSeconds() const
{
    double total = 0.0;
    for (const auto& [name, eval] : evaluators_)
        total += eval.setupSeconds();
    return total;
}

void
PimProgram::attach(sim::DpuCore& core)
{
    for (auto& [name, eval] : evaluators_)
        eval.attach(core);
}

double
PimProgram::attachAll(sim::PimSystem& system)
{
    for (uint32_t d = 0; d < system.numDpus(); ++d)
        attach(system.dpu(d));
    const sim::CostModel& model = system.model();
    return model.parallelTransferSeconds(
        totalTableBytes(), model.ranksEngaged(system.numDpus()));
}

} // namespace transpim
} // namespace tpl
