/**
 * @file
 * Fleet topology: how a PIM machine's DPUs are organized into ranks
 * and DIMMs, and how that organization shapes host-transfer
 * parallelism.
 *
 * The paper's UPMEM results come from a 2545-DPU machine organized as
 * 20 DIMMs x 2 ranks x 64 DPUs. The benchmarking studies of that
 * machine (Gomez-Luna et al., PAPERS.md) characterize transfer
 * bandwidth as scaling with the number of *ranks* engaged in
 * parallel, not with DPU count: each rank streams at the per-rank
 * host bandwidth, ranks on distinct DIMMs (distinct memory channels)
 * overlap, and the two ranks of one DIMM share a channel and
 * serialize against each other.
 *
 * Topology is a plain description; the modeled consequences live in
 * PipelineTimeline's per-rank transfer lanes (system.h) and in the serve
 * layer's ServePipeline (serve/pipeline.h), which places each wave
 * on one rank when PipelineOptions::topology is set.
 */

#ifndef TPL_PIMSIM_TOPOLOGY_H
#define TPL_PIMSIM_TOPOLOGY_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tpl {
namespace sim {

/**
 * Shape of a PIM fleet: @c dimms DIMMs, each carrying
 * @c ranksPerDimm ranks of @c dpusPerRank DPUs. Ranks are numbered
 * DIMM-major (rank r lives on DIMM r / ranksPerDimm) and DPUs
 * rank-major (DPU d lives on rank d / dpusPerRank). A
 * Topology{1, 1, N} is exactly the flat N-DPU pool while
 * N <= CostModel::dpusPerRank: a flat transfer lane over more DPUs
 * broadcasts at the rate of N / dpusPerRank model ranks, a rank lane
 * at the rate of one.
 *
 * One memory channel per DIMM: ranks on different DIMMs transfer in
 * parallel; the ranks of one DIMM serialize on their shared channel.
 */
struct Topology
{
    uint32_t dimms = 1;        ///< number of DIMMs in the fleet
    uint32_t ranksPerDimm = 1; ///< ranks per DIMM (UPMEM: 2)
    uint32_t dpusPerRank = 64; ///< DPUs per rank (UPMEM: 64)

    /** Total ranks in the fleet. */
    uint32_t numRanks() const { return dimms * ranksPerDimm; }

    /** Total DPUs in the fleet. */
    uint32_t numDpus() const { return numRanks() * dpusPerRank; }

    /** All three extents positive. */
    bool valid() const
    {
        return dimms > 0 && ranksPerDimm > 0 && dpusPerRank > 0;
    }

    /** Rank holding global DPU index @p dpu. */
    uint32_t rankOfDpu(uint32_t dpu) const { return dpu / dpusPerRank; }

    /** Global index of the first DPU on @p rank. */
    uint32_t firstDpuOfRank(uint32_t rank) const
    {
        return rank * dpusPerRank;
    }

    /**
     * Memory channel carrying @p rank's transfers. One channel per
     * DIMM: the ranks of a DIMM share it and serialize.
     */
    uint32_t channelOfRank(uint32_t rank) const
    {
        return rank / ranksPerDimm;
    }

    /** Per-rank channel map, indexed by rank; see channelOfRank. */
    std::vector<uint32_t> channelMap() const;

    /** Render as the "DxRxP" grammar parse() accepts, e.g. "20x2x64". */
    std::string toText() const;

    /**
     * Parse "DIMMSxRANKSxDPUS" (e.g. "20x2x64" = 20 DIMMs, 2 ranks
     * per DIMM, 64 DPUs per rank). Returns std::nullopt on anything
     * malformed: wrong field count, non-digits, zero extents, or
     * values that overflow the uint32 DPU count.
     */
    static std::optional<Topology> parse(const std::string& text);
};

/** Structural equality (same extents). */
bool operator==(const Topology& a, const Topology& b);

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_TOPOLOGY_H
