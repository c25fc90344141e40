/**
 * @file
 * Half-precision L-LUT implementation.
 */

#include "transpim/llut16.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "softfloat/softfloat.h"
#include "transpim/ldexp.h"

namespace tpl {
namespace transpim {

LLut16::LLut16(const TableFn& f, double lo, double hi,
               uint32_t maxEntries, bool interpolated,
               Placement placement)
    : p_(static_cast<float>(lo)), interpolated_(interpolated)
{
    if (maxEntries < 2)
        throw std::invalid_argument("LLut16 needs at least 2 entries");
    double span = hi - lo;
    e_ = static_cast<int>(
        std::floor(std::log2((maxEntries - 1) / span)));
    double spacing = std::ldexp(1.0, -e_);
    uint32_t entries =
        static_cast<uint32_t>(std::ceil(span / spacing)) + 1;
    std::vector<uint16_t> table(entries);
    for (uint32_t i = 0; i < entries; ++i) {
        table[i] =
            sf::toF16(static_cast<float>(f(lo + i * spacing)), nullptr)
                .bits;
    }
    table_ = LutStore<uint16_t>(std::move(table), placement);
}

float
LLut16::eval(float x, InstrSink* sink) const
{
    // Addressing in binary32 (indices must be exact integers); the
    // interpolation arithmetic runs in the binary16 tier.
    SinkRef s(sink);
    float t = x;
    if (p_ != 0.0f)
        t = sf::subT(x, p_, s);
    t = pimLdexpT(t, e_, s);
    int32_t limit = static_cast<int32_t>(table_.size()) -
                    (interpolated_ ? 2 : 1);
    if (!interpolated_) {
        int32_t i = sf::toI32RoundT(t, s);
        s.charge(2);
        i = std::clamp(i, 0, limit);
        sf::Half h{table_.readT(static_cast<uint32_t>(i), s)};
        return sf::fromF16(h, sink);
    }
    int32_t i = sf::toI32FloorT(t, s);
    s.charge(2);
    i = std::clamp(i, 0, limit);
    float fi = sf::fromI32T(i, s);
    // Delta quantized to binary16, the PE's native operand format.
    sf::Half delta = sf::toF16(sf::subT(t, fi, s), sink);
    sf::Half l0{table_.readT(static_cast<uint32_t>(i), s)};
    sf::Half l1{table_.readT(static_cast<uint32_t>(i) + 1, s)};
    sf::Half d = sf::sub16(l1, l0, sink);
    sf::Half y = sf::add16(l0, sf::mul16(d, delta, sink), sink);
    return sf::fromF16(y, sink);
}

} // namespace transpim
} // namespace tpl
