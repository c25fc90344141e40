/**
 * @file
 * CORDIC engine implementations.
 */

#include "transpim/cordic.h"

#include <cmath>

#include "common/bitops.h"
#include "softfloat/softfloat.h"
#include "transpim/ldexp.h"

namespace tpl {
namespace transpim {

std::vector<uint32_t>
cordicSchedule(CordicMode mode, uint32_t iterations)
{
    std::vector<uint32_t> schedule;
    schedule.reserve(LutStore<float>::checkSize(iterations));
    if (mode == CordicMode::Circular) {
        for (uint32_t i = 0; i < iterations; ++i)
            schedule.push_back(i);
        return schedule;
    }
    // Hyperbolic: indices start at 1 and repeat at 4, 13, 40, ... to
    // guarantee convergence (each repeat index r satisfies
    // r_next = 3r + 1).
    uint32_t nextRepeat = 4;
    uint32_t i = 1;
    while (schedule.size() < iterations) {
        schedule.push_back(i);
        if (i == nextRepeat && schedule.size() < iterations) {
            schedule.push_back(i);
            nextRepeat = 3 * nextRepeat + 1;
        }
        ++i;
    }
    return schedule;
}

namespace {

double
scheduleGain(CordicMode mode, const std::vector<uint32_t>& schedule)
{
    double g = 1.0;
    for (uint32_t i : schedule) {
        double t = std::ldexp(1.0, -2 * static_cast<int>(i));
        g *= mode == CordicMode::Circular ? std::sqrt(1.0 + t)
                                          : std::sqrt(1.0 - t);
    }
    return g;
}

std::vector<float>
angleTable(CordicMode mode, const std::vector<uint32_t>& schedule)
{
    std::vector<float> table;
    table.reserve(schedule.size());
    for (uint32_t i : schedule) {
        double t = std::ldexp(1.0, -static_cast<int>(i));
        double a = mode == CordicMode::Circular ? std::atan(t)
                                                : std::atanh(t);
        table.push_back(static_cast<float>(a));
    }
    return table;
}

} // namespace

CordicEngine::CordicEngine(CordicMode mode, uint32_t iterations,
                           Placement placement)
    : mode_(mode), iterations_(iterations),
      schedule_(cordicSchedule(mode, iterations)),
      table_(angleTable(mode, schedule_), placement)
{
    double g = scheduleGain(mode, schedule_);
    gain_ = static_cast<float>(g);
    invGain_ = static_cast<float>(1.0 / g);
}

CordicEngine::Result
CordicEngine::rotate(float z0, InstrSink* sink) const
{
    SinkRef s(sink);
    return rotateT(z0, s);
}

CordicEngine::Result
CordicEngine::vector(float x0, float y0, InstrSink* sink) const
{
    SinkRef s(sink);
    return vectorT(x0, y0, s);
}

namespace {

std::vector<int32_t>
fixedAngleTable(CordicMode mode, const std::vector<uint32_t>& schedule)
{
    std::vector<int32_t> table;
    table.reserve(schedule.size());
    for (uint32_t i : schedule) {
        double t = std::ldexp(1.0, -static_cast<int>(i));
        double a = mode == CordicMode::Circular ? std::atan(t)
                                                : std::atanh(t);
        table.push_back(Fixed::fromDouble(a).raw());
    }
    return table;
}

} // namespace

CordicFixedEngine::CordicFixedEngine(CordicMode mode, uint32_t iterations,
                                     Placement placement)
    : mode_(mode), iterations_(iterations),
      schedule_(cordicSchedule(mode, iterations)),
      table_(fixedAngleTable(mode, schedule_), placement)
{
    invGain_ = Fixed::fromDouble(1.0 / scheduleGain(mode, schedule_));
}

CordicFixedEngine::Result
CordicFixedEngine::rotate(Fixed z0, InstrSink* sink) const
{
    SinkRef s(sink);
    return rotateT(z0, s);
}

CordicFixedEngine::Result
CordicFixedEngine::vector(Fixed x0, Fixed y0, InstrSink* sink) const
{
    SinkRef s(sink);
    return vectorT(x0, y0, s);
}

} // namespace transpim
} // namespace tpl
