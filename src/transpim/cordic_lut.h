/**
 * @file
 * Combined CORDIC + LUT method (Section 3.3.2 of the paper).
 *
 * The first iterations of CORDIC are replaced by one lookup: the table
 * maps the leading bits of the input angle to a pre-rotated vector
 * (x, y) - with the gain of the *remaining* iterations already folded
 * in - plus the grid angle, so the engine only runs the tail
 * iterations on the residual z. This buys a flexible tradeoff between
 * computing cost, table size, and precision within the bounds of the
 * pure CORDIC and pure LUT approaches. The address generation is
 * L-LUT-style (ldexp + round), so the lookup adds no multiplication.
 */

#ifndef TPL_TRANSPIM_CORDIC_LUT_H
#define TPL_TRANSPIM_CORDIC_LUT_H

#include "transpim/cordic.h"
#include "transpim/placement.h"

namespace tpl {
namespace transpim {

/**
 * CORDIC engine whose first iterations are a table lookup.
 */
class CordicLutEngine
{
  public:
    /** One pre-rotated table entry. */
    struct Entry
    {
        float x; ///< cos/cosh of the grid angle, tail-gain folded in
        float y; ///< sin/sinh of the grid angle, tail-gain folded in
        float a; ///< the grid angle itself (subtracted from z)
    };

    using Result = CordicEngine::Result;

    /**
     * @param mode rotation family.
     * @param iterations total equivalent iterations n (accuracy ~2^-n).
     * @param gridBits g: table grid spacing 2^-g radians; iterations
     *        with shift index < g are replaced by the lookup.
     * @param lo smallest angle the table covers.
     * @param hi largest angle the table covers.
     */
    CordicLutEngine(CordicMode mode, uint32_t iterations,
                    uint32_t gridBits, double lo, double hi,
                    Placement placement);

    /** Rotation with LUT head + CORDIC tail; z0 must be in [lo, hi]. */
    Result rotate(float z0, InstrSink* sink) const;

    /** Sink-template body of rotate() (batch path inlines it). */
    template <class S>
    Result
    rotateT(float z0, S& sink) const
    {
        return cordic_detail::iterateT<false>(
            mode_, tailSchedule_, angleTable_,
            startT(CordicRotation<float>{z0}, sink), sink);
    }

    /** rotateT's prologue, the LUT head: the pre-rotated entry nearest
     * @p in.z0 as the tail's start vector. */
    template <class S>
    CordicVector
    startT(CordicRotation<float> in, S& sink) const
    {
        // L-LUT-style head: ldexp + round, no multiplication.
        const float z0 = in.z0;
        float t = z0;
        if (lo_ != 0.0f)
            t = sf::subT(z0, lo_, sink);
        t = pimLdexpT(t, static_cast<int>(gridBits_), sink);
        int32_t j = sf::toI32RoundT(t, sink);
        sink.charge(2);
        int32_t limit = static_cast<int32_t>(entryTable_.size()) - 1;
        if (j < 0)
            j = 0;
        if (j > limit)
            j = limit;
        Entry e = entryTable_.readT(static_cast<uint32_t>(j), sink);

        float z = sf::subT(z0, e.a, sink);
        return {e.x, e.y, z};
    }

    /** The tail angle table's view for @p sink; see CordicEngine. The
     * entry table shares its placement, so a head with a view never
     * DMAs either. */
    template <class S>
    LutView<float>
    angleViewT(S& sink) const
    {
        return angleTable_.viewT(sink);
    }

    /** The tail iterations of the @p Vectors * simdLanes start vectors
     * @p v, in the block lane (cordic_detail::iterateLanesT). */
    template <bool Vectoring, int Vectors, class S>
    void
    iterateBlockT(LutView<float> view, CordicVector* v, S& sink) const
    {
        static_assert(!Vectoring, "CordicLutEngine only rotates");
        cordic_detail::iterateLanesT<false, Vectors * sf::simdLanes>(
            mode_, tailSchedule_, angleTable_, view, v, sink);
    }

    /** Tail iterations actually executed. */
    uint32_t tailIterations() const
    {
        return static_cast<uint32_t>(tailSchedule_.size());
    }

    uint32_t memoryBytes() const
    {
        return entryTable_.bytes() + angleTable_.bytes();
    }

    void
    attach(sim::DpuCore& core)
    {
        entryTable_.attach(core);
        angleTable_.attach(core);
    }

  private:
    CordicMode mode_;
    uint32_t gridBits_;
    float lo_;
    std::vector<uint32_t> tailSchedule_;
    LutStore<Entry> entryTable_;
    LutStore<float> angleTable_; ///< tail iteration angles
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_CORDIC_LUT_H
