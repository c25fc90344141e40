/**
 * @file
 * M-LUT / L-LUT implementations.
 */

#include "transpim/fuzzy_lut.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/emu_int.h"
#include "softfloat/softfloat.h"
#include "transpim/ldexp.h"

namespace tpl {
namespace transpim {

namespace {

std::vector<float>
buildFloatTable(const TableFn& f, double p, double spacing,
                uint32_t entries)
{
    std::vector<float> table(LutStore<float>::checkSize(entries));
    for (uint32_t i = 0; i < entries; ++i)
        table[i] = static_cast<float>(f(p + i * spacing));
    return table;
}

} // namespace

MLut::MLut(const TableFn& f, double lo, double hi, uint32_t entries,
           bool interpolated, Placement placement)
    : p_(static_cast<float>(lo)), interpolated_(interpolated)
{
    if (entries < 2)
        throw std::invalid_argument("MLut needs at least 2 entries");
    double k = (entries - 1) / (hi - lo);
    k_ = static_cast<float>(k);
    table_ = LutStore<float>(buildFloatTable(f, lo, 1.0 / k, entries),
                             placement);
}

float
MLut::eval(float x, InstrSink* sink) const
{
    SinkRef s(sink);
    return evalT(x, s);
}

LLut::LLut(const TableFn& f, double lo, double hi, uint32_t maxEntries,
           bool interpolated, Placement placement)
    : p_(static_cast<float>(lo)), interpolated_(interpolated)
{
    if (maxEntries < 2)
        throw std::invalid_argument("LLut needs at least 2 entries");
    // Largest power-of-two density whose grid fits in maxEntries.
    double span = hi - lo;
    e_ = static_cast<int>(
        std::floor(std::log2((maxEntries - 1) / span)));
    double spacing = std::ldexp(1.0, -e_);
    uint32_t entries =
        static_cast<uint32_t>(std::ceil(span / spacing)) + 1;
    table_ = LutStore<float>(buildFloatTable(f, lo, spacing, entries),
                             placement);
}

float
LLut::eval(float x, InstrSink* sink) const
{
    SinkRef s(sink);
    return evalT(x, s);
}

LLutFixed::LLutFixed(const TableFn& f, double lo, double hi,
                     uint32_t maxEntries, bool interpolated,
                     Placement placement)
    : pRaw_(Fixed::fromDouble(lo).raw()), interpolated_(interpolated)
{
    if (maxEntries < 2)
        throw std::invalid_argument("LLutFixed needs at least 2 entries");
    double span = hi - lo;
    e_ = static_cast<int>(
        std::floor(std::log2((maxEntries - 1) / span)));
    // The address shift must stay within the fractional bits (and at
    // least one bit of shift so the rounding half-constant exists).
    e_ = std::min(e_, Fixed::fracBits - 1);
    shift_ = Fixed::fracBits - e_;
    double spacing = std::ldexp(1.0, -e_);
    uint32_t entries =
        static_cast<uint32_t>(std::ceil(span / spacing)) + 1;
    std::vector<int32_t> table(LutStore<int32_t>::checkSize(entries));
    for (uint32_t i = 0; i < entries; ++i)
        table[i] = saturatingFromDouble(f(lo + i * spacing)).raw();
    table_ = LutStore<int32_t>(std::move(table), placement);
}

Fixed
LLutFixed::evalFixed(Fixed x, InstrSink* sink) const
{
    SinkRef s(sink);
    return evalFixedT(x, s);
}

float
LLutFixed::eval(float x, InstrSink* sink) const
{
    SinkRef s(sink);
    return evalT(x, s);
}

} // namespace transpim
} // namespace tpl
