/**
 * @file
 * Blackscholes option-pricing workload (paper Section 4.1.2).
 *
 * Prices a portfolio of European options with the Black-Scholes
 * closed-form solution, which exercises four TransPimLib functions per
 * option: logarithm, square root, exponentiation, and the cumulative
 * normal distribution function (CNDF). Variants:
 *
 *  - CPU 1T / CPU 32T: float libm on the host (measured).
 *  - PIM poly: polynomial approximation for all four functions (the
 *    paper's PIM baseline; CNDF uses the Abramowitz-Stegun polynomial
 *    of the original benchmark).
 *  - PIM M-LUT / L-LUT: interpolated fuzzy LUTs.
 *  - PIM fixed L-LUT: Q3.28 tables for the four functions, with
 *    domain-tuned tables for log and sqrt (their generic domains do
 *    not fit Q3.28; the option-parameter ranges do).
 */

#ifndef TPL_WORKLOADS_BLACKSCHOLES_H
#define TPL_WORKLOADS_BLACKSCHOLES_H

#include <vector>

#include "workloads/common.h"

namespace tpl {
namespace work {

/** Option portfolio in structure-of-arrays layout. */
struct OptionBatch
{
    std::vector<float> spot;     ///< S
    std::vector<float> strike;   ///< K
    std::vector<float> rate;     ///< r
    std::vector<float> vol;      ///< v
    std::vector<float> expiry;   ///< T

    size_t size() const { return spot.size(); }
};

/** Generate a deterministic option portfolio. */
OptionBatch generateOptions(size_t n, uint64_t seed);

/** Call/put prices. */
struct OptionPrices
{
    std::vector<float> call;
    std::vector<float> put;
};

/** Double-precision reference pricing (accuracy oracle). */
OptionPrices priceReference(const OptionBatch& batch);

/** The rows of the Blackscholes group of Figure 9. */
inline constexpr Variant kBlackscholesRows[] = {
    Variant::CpuSingle, Variant::CpuMulti, Variant::PimPoly,
    Variant::PimMLut,   Variant::PimLLut,  Variant::PimFixedLLut,
};

/** Run one variant and report its Figure 9 row. */
WorkloadResult runBlackscholes(Variant variant, const WorkloadConfig& cfg);

} // namespace work
} // namespace tpl

#endif // TPL_WORKLOADS_BLACKSCHOLES_H
