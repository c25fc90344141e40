/**
 * @file
 * The benchmark's workloads: three batch replays of the serve stack,
 * each a request trace drawn from a seed. README.md in this directory
 * says why each exists and which layer it stresses.
 */

#ifndef TPL_PERFBENCH_WORKLOADS_H
#define TPL_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pimsim/serve/auto_tuner.h"
#include "pimsim/topology.h"
#include "transpim/evaluator.h"

namespace perfbench {

/** One request of a trace: evaluate @c function with @c spec on
 * @c elements inputs on behalf of @c tenant. */
struct TraceRequest
{
    tpl::transpim::Function function = tpl::transpim::Function::Sin;
    tpl::transpim::MethodSpec spec;
    uint32_t elements = 0;
    uint64_t tenant = 0;
};

/** A named workload: the serving system it runs on and its trace. */
struct Workload
{
    std::string name;
    uint32_t dpus = 64;
    /** Set: serve through the FleetScheduler over this topology. */
    std::optional<tpl::sim::Topology> topology;
    uint32_t perDpuElements = 512;
    /** Non-empty: serve with the OnlineAutoTuner under these tenant
     * SLAs, and check each tenant's RMSE against its SLA instead of
     * checking outputs bit for bit. */
    std::map<uint64_t, tpl::sim::serve::TenantSla> slas;
    uint64_t exploreElements = 512;
    std::vector<TraceRequest> trace;

    bool tuned() const { return !slas.empty(); }

    /** Element budget of one wave, as the serve loops compute it
     * with every DPU healthy: per-DPU capacity times the DPUs of one
     * rank (fleet) or of the whole system (flat). */
    uint64_t
    waveBudget() const
    {
        return static_cast<uint64_t>(perDpuElements) *
               (topology ? topology->dpusPerRank : dpus);
    }
};

/** Workload @p name with its trace drawn from @p seed; nullopt for an
 * unknown name. */
std::optional<Workload> makeWorkload(const std::string& name,
                                     uint64_t seed);

/** The inputs of every request of @p trace, concatenated in trace
 * order, uniform over each function's domain. Drawn from one stream
 * seeded by @p seed, so a prefix of a trace gets a prefix of the
 * inputs of the whole trace. */
std::vector<float> makeInputs(std::span<const TraceRequest> trace,
                              uint64_t seed);

/** Total elements of @p trace. */
uint64_t totalElements(std::span<const TraceRequest> trace);

} // namespace perfbench

#endif // TPL_PERFBENCH_WORKLOADS_H
