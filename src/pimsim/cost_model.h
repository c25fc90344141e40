/**
 * @file
 * Cost-model parameters of the simulated PIM system.
 *
 * Calibration follows the published characterization of the UPMEM PIM
 * architecture (Gómez-Luna et al., "Benchmarking a New Paradigm" / the
 * PrIM suite) and the UPMEM documentation:
 *
 *  - The DPU pipeline is 14 stages; a tasklet may dispatch one
 *    instruction every 11 cycles, so at least 11 ready tasklets are
 *    needed to reach the peak of one retired instruction per cycle.
 *  - MRAM<->WRAM DMA moves ~2 bytes/cycle once streaming, with a fixed
 *    engine setup cost; the latency visible to the issuing tasklet is
 *    higher but overlaps with other tasklets' execution.
 *  - Host transfers reach ~6-7 GB/s per rank when parallel across DPUs
 *    and a few hundred MB/s when serialized.
 *
 * All values are plain data so experiments can sweep them (e.g. the
 * frequency ablation); defaults reproduce the paper's 350 MHz system.
 */

#ifndef TPL_PIMSIM_COST_MODEL_H
#define TPL_PIMSIM_COST_MODEL_H

#include <algorithm>
#include <cstdint>

namespace tpl {
namespace sim {

/** Tunable cost parameters of the simulated PIM system. */
struct CostModel
{
    /** Dispatch interval of a single tasklet, in cycles. */
    uint32_t pipelineInterval = 11;

    /** DPU clock frequency in Hz (paper system: 350 MHz). */
    double frequencyHz = 350e6;

    /** DMA engine occupancy: fixed setup cycles per transfer. */
    uint32_t dmaSetupCycles = 8;

    /** DMA engine occupancy: cycles per byte once streaming (1/2). */
    double dmaCyclesPerByte = 0.5;

    /** Latency the issuing tasklet observes on top of streaming. */
    uint32_t dmaLatencyCycles = 40;

    /** WRAM load/store cost in instructions (fully pipelined). */
    uint32_t wramAccessCost = 1;

    /** Host->PIM / PIM->host bandwidth with parallel transfers (B/s). */
    double hostParallelBandwidth = 6.7e9;

    /** Host->PIM / PIM->host bandwidth with serial transfers (B/s). */
    double hostSerialBandwidth = 0.35e9;

    /** Aggregate cap across many ranks (host memory bandwidth, B/s). */
    double hostAggregateBandwidthCap = 20e9;

    /** DPUs per rank (parallel-transfer granularity). */
    uint32_t dpusPerRank = 64;

    /** WRAM size in bytes (UPMEM: 64 KB). */
    uint32_t wramBytes = 64 * 1024;

    /** MRAM size in bytes (UPMEM: 64 MB). */
    uint32_t mramBytes = 64u * 1024 * 1024;

    /** Maximum number of hardware tasklets per DPU. */
    uint32_t maxTasklets = 24;

    /// @name Energy parameters.
    /// Rough magnitudes from the UPMEM energy characterizations: a DPU
    /// draws on the order of 150-300 mW at 350 MHz (~0.5 nJ/cycle,
    /// attributed here per retired instruction), in-bank DMA costs a
    /// few tens of pJ/byte, and host<->PIM transfers cross the DDR bus
    /// at ~100 pJ/byte. These feed the energy ablation bench; the
    /// paper itself reports no energy numbers.
    /// @{

    /** Energy per retired DPU instruction (picojoules). */
    double instrEnergyPj = 500.0;

    /** MRAM<->WRAM DMA energy per byte (picojoules). */
    double dmaEnergyPerBytePj = 30.0;

    /** Host<->PIM transfer energy per byte (picojoules). */
    double hostTransferEnergyPerBytePj = 100.0;

    /// @}

    /// @name Host-transfer rates (modeled seconds).
    /// @{

    /** Model ranks a parallel transfer over @p dpus DPUs engages:
     * max(1, dpus / dpusPerRank), or 1 when dpusPerRank is 0. */
    uint32_t
    ranksEngaged(uint32_t dpus) const
    {
        return dpusPerRank ? std::max(1u, dpus / dpusPerRank) : 1u;
    }

    /**
     * Seconds to stream @p bytes in parallel mode (same-size buffer
     * per DPU) over @p ranks model ranks: each rank adds its
     * per-rank bandwidth, capped by host memory bandwidth. 0 when
     * the bandwidth parameters are not positive.
     */
    double
    parallelTransferSeconds(uint64_t bytes, uint32_t ranks) const
    {
        double bw = std::min(hostParallelBandwidth * ranks,
                             hostAggregateBandwidthCap);
        if (bw <= 0.0)
            return 0.0;
        return static_cast<double>(bytes) / bw;
    }

    /** Seconds to stream @p bytes serialized on the host interface
     * (distinct buffer sizes). 0 when the serial bandwidth is not
     * positive. */
    double
    serialTransferSeconds(uint64_t bytes) const
    {
        if (hostSerialBandwidth <= 0.0)
            return 0.0;
        return static_cast<double>(bytes) / hostSerialBandwidth;
    }

    /// @}
};

} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_COST_MODEL_H
