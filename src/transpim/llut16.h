/**
 * @file
 * Half-precision (binary16) LDEXP-based fuzzy lookup table.
 *
 * The other end of the precision ladder from LLut64: FP16 is the
 * native format of HBM-PIM-class processing elements, and half tables
 * halve the memory footprint of every entry. Addressing runs in
 * binary32 (indices must be exact); entries are stored and
 * interpolated in binary16, flooring the accuracy near the 2^-11 half
 * grid. ablation_precision quantifies the ladder.
 */

#ifndef TPL_TRANSPIM_LLUT16_H
#define TPL_TRANSPIM_LLUT16_H

#include "softfloat/softfloat16.h"
#include "transpim/fuzzy_lut.h"
#include "transpim/placement.h"

namespace tpl {
namespace transpim {

/** Binary16 L-LUT with ldexp addressing and linear interpolation. */
class LLut16
{
  public:
    LLut16(const TableFn& f, double lo, double hi, uint32_t maxEntries,
           bool interpolated, Placement placement);

    /** Approximate f(x); interpolation arithmetic in binary16. */
    float eval(float x, InstrSink* sink) const;

    uint32_t memoryBytes() const { return table_.bytes(); }

    void attach(sim::DpuCore& core) { table_.attach(core); }

    int densityLog2() const { return e_; }

    uint32_t entries() const { return table_.size(); }

  private:
    LutStore<uint16_t> table_;
    float p_;
    int e_;
    bool interpolated_;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_LLUT16_H
