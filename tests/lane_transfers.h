/**
 * @file
 * Equal-size per-DPU transfer slices for the tests that move one
 * same-size buffer slice to or from every DPU of a system (the
 * pimsim, obs, fault and concurrency suites) through the lane legs
 * PimSystem::scatterAsync / gatherAsync.
 */

#ifndef TPL_TESTS_LANE_TRANSFERS_H
#define TPL_TESTS_LANE_TRANSFERS_H

#include <cstdint>
#include <vector>

#include "pimsim/system.h"

namespace tpl {
namespace sim {
namespace testxfer {

/** Slice d of @p data (@p bytesPerDpu bytes) to @p mramAddr of DPU
 * d, for every DPU of @p sys. */
inline std::vector<ScatterSlice>
equalScatter(const PimSystem& sys, uint32_t mramAddr, const void* data,
             uint32_t bytesPerDpu)
{
    std::vector<ScatterSlice> slices;
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    for (uint32_t d = 0; d < sys.numDpus(); ++d)
        slices.push_back({d, mramAddr,
                          bytes + static_cast<uint64_t>(d) * bytesPerDpu,
                          bytesPerDpu});
    return slices;
}

/** @p bytesPerDpu bytes at @p mramAddr of DPU d into slice d of
 * @p data, for every DPU of @p sys. */
inline std::vector<GatherSlice>
equalGather(const PimSystem& sys, uint32_t mramAddr, void* data,
            uint32_t bytesPerDpu)
{
    std::vector<GatherSlice> slices;
    uint8_t* bytes = static_cast<uint8_t*>(data);
    for (uint32_t d = 0; d < sys.numDpus(); ++d)
        slices.push_back({d, mramAddr,
                          bytes + static_cast<uint64_t>(d) * bytesPerDpu,
                          bytesPerDpu});
    return slices;
}

} // namespace testxfer
} // namespace sim
} // namespace tpl

#endif // TPL_TESTS_LANE_TRANSFERS_H
