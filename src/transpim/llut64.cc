/**
 * @file
 * Double-precision L-LUT implementation.
 */

#include "transpim/llut64.h"

#include <cmath>
#include <stdexcept>

#include "softfloat/softfloat64.h"
#include "transpim/ldexp.h"

namespace tpl {
namespace transpim {

LLut64::LLut64(const TableFn& f, double lo, double hi,
               uint32_t maxEntries, bool interpolated,
               Placement placement)
    : p_(lo), interpolated_(interpolated)
{
    if (maxEntries < 2)
        throw std::invalid_argument("LLut64 needs at least 2 entries");
    double span = hi - lo;
    e_ = static_cast<int>(
        std::floor(std::log2((maxEntries - 1) / span)));
    double spacing = std::ldexp(1.0, -e_);
    uint32_t entries =
        static_cast<uint32_t>(std::ceil(span / spacing)) + 1;
    std::vector<double> table(entries);
    for (uint32_t i = 0; i < entries; ++i)
        table[i] = f(lo + i * spacing);
    table_ = LutStore<double>(std::move(table), placement);
}

double
LLut64::eval(double x, InstrSink* sink) const
{
    SinkRef s(sink);
    double t = x;
    if (p_ != 0.0)
        t = sf::sub64(x, p_, sink);
    t = pimLdexp64T(t, e_, s);
    int32_t i = sf::f64ToI32Floor(t, sink);
    s.charge(2); // clamp
    int32_t limit = static_cast<int32_t>(table_.size()) -
                    (interpolated_ ? 2 : 1);
    if (i < 0)
        i = 0;
    if (i > limit)
        i = limit;
    if (!interpolated_)
        return table_.readT(static_cast<uint32_t>(i), s);
    double fi = sf::fromI32asF64(i, sink);
    double delta = sf::sub64(t, fi, sink);
    double l0 = table_.readT(static_cast<uint32_t>(i), s);
    double l1 = table_.readT(static_cast<uint32_t>(i) + 1, s);
    double d = sf::sub64(l1, l0, sink);
    return sf::add64(l0, sf::mul64(d, delta, sink), sink);
}

} // namespace transpim
} // namespace tpl
