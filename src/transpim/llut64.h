/**
 * @file
 * Double-precision LDEXP-based fuzzy lookup table (extension).
 *
 * Probes the paper's observation 5: the accuracy of all binary32
 * methods floors around RMSE 1e-8 because of the output format, not
 * the methods themselves. LLut64 stores binary64 entries and
 * interpolates with the emulated binary64 arithmetic tier, pushing the
 * floor toward the double grid at roughly 2-4x the per-query cost and
 * exactly 2x the memory (the ablation_precision bench quantifies all
 * three axes).
 */

#ifndef TPL_TRANSPIM_LLUT64_H
#define TPL_TRANSPIM_LLUT64_H

#include "softfloat/softfloat64.h"
#include "transpim/fuzzy_lut.h"
#include "transpim/placement.h"

namespace tpl {
namespace transpim {

/** Binary64 L-LUT with ldexp addressing and linear interpolation. */
class LLut64
{
  public:
    LLut64(const TableFn& f, double lo, double hi, uint32_t maxEntries,
           bool interpolated, Placement placement);

    /** Approximate f(x) in emulated binary64. */
    double eval(double x, InstrSink* sink) const;

    uint32_t memoryBytes() const { return table_.bytes(); }

    void attach(sim::DpuCore& core) { table_.attach(core); }

    int densityLog2() const { return e_; }

    uint32_t entries() const { return table_.size(); }

  private:
    LutStore<double> table_;
    double p_;
    int e_;
    bool interpolated_;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_LLUT64_H
