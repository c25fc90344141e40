/**
 * @file
 * Unit tests for the common module: bit utilities, Q3.28 fixed point,
 * error metrics, emulated integer arithmetic, the RNG helpers, and
 * the label pool.
 */

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/emu_int.h"
#include "common/error_metrics.h"
#include "common/fixed_point.h"
#include "common/label.h"
#include "common/rng.h"

namespace tpl {
namespace {

TEST(BitOps, FloatRoundTrip)
{
    EXPECT_EQ(0x3f800000u, floatBits(1.0f));
    EXPECT_EQ(1.0f, bitsToFloat(0x3f800000u));
    EXPECT_EQ(0x80000000u, floatBits(-0.0f));
}

TEST(BitOps, LeadingZeros)
{
    EXPECT_EQ(32, countLeadingZeros32(0));
    EXPECT_EQ(31, countLeadingZeros32(1));
    EXPECT_EQ(0, countLeadingZeros32(0x80000000u));
    EXPECT_EQ(8, countLeadingZeros32(0x00800000u));
    EXPECT_EQ(64, countLeadingZeros64(0));
    EXPECT_EQ(0, countLeadingZeros64(1ull << 63));
}

TEST(BitOps, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_EQ(10, log2Exact(1024));
}

TEST(BitOps, IeeeFields)
{
    uint32_t bits = floatBits(-6.5f);
    EXPECT_EQ(1u, ieeeSign(bits));
    EXPECT_EQ(bits, ieeePack(ieeeSign(bits), ieeeExponent(bits),
                             ieeeMantissa(bits)));
}

TEST(FixedPoint, ConversionRoundTrip)
{
    for (double v : {0.0, 1.0, -1.0, 3.14159, -6.28, 7.9, -7.9, 1e-8}) {
        Fixed f = Fixed::fromDouble(v);
        EXPECT_NEAR(v, f.toDouble(), Fixed::resolution) << v;
    }
}

TEST(FixedPoint, Resolution)
{
    Fixed one = Fixed::fromDouble(1.0);
    EXPECT_EQ(1 << Fixed::fracBits, one.raw());
    Fixed eps = Fixed::fromRaw(1);
    EXPECT_DOUBLE_EQ(Fixed::resolution, eps.toDouble());
}

TEST(FixedPoint, Arithmetic)
{
    Fixed a = Fixed::fromDouble(1.5);
    Fixed b = Fixed::fromDouble(2.25);
    EXPECT_DOUBLE_EQ(3.75, (a + b).toDouble());
    EXPECT_DOUBLE_EQ(-0.75, (a - b).toDouble());
    EXPECT_DOUBLE_EQ(-1.5, (-a).toDouble());
    EXPECT_NEAR(3.375, (a * b).toDouble(), 2 * Fixed::resolution);
}

TEST(FixedPoint, MultiplyNegative)
{
    Fixed a = Fixed::fromDouble(-1.5);
    Fixed b = Fixed::fromDouble(2.0);
    EXPECT_NEAR(-3.0, (a * b).toDouble(), 2 * Fixed::resolution);
    EXPECT_NEAR(3.0, ((-a) * b).toDouble(), 2 * Fixed::resolution);
}

TEST(FixedPoint, Shifts)
{
    Fixed a = Fixed::fromDouble(2.0);
    EXPECT_DOUBLE_EQ(1.0, a.shiftRight(1).toDouble());
    EXPECT_DOUBLE_EQ(4.0, a.shiftLeft(1).toDouble());
    Fixed neg = Fixed::fromDouble(-2.0);
    EXPECT_DOUBLE_EQ(-1.0, neg.shiftRight(1).toDouble());
}

TEST(FixedPoint, Saturation)
{
    EXPECT_EQ(INT32_MAX, saturatingFromDouble(100.0).raw());
    EXPECT_EQ(INT32_MIN, saturatingFromDouble(-100.0).raw());
    EXPECT_EQ(Fixed::fromDouble(1.0).raw(),
              saturatingFromDouble(1.0).raw());
}

TEST(FixedPoint, Constants)
{
    EXPECT_NEAR(M_PI, fixedPi().toDouble(), Fixed::resolution);
    EXPECT_NEAR(M_PI / 2, fixedHalfPi().toDouble(), Fixed::resolution);
    EXPECT_NEAR(2 * M_PI, fixedTwoPi().toDouble(), Fixed::resolution);
}

TEST(FixedPoint, Comparisons)
{
    Fixed a = Fixed::fromDouble(1.0);
    Fixed b = Fixed::fromDouble(2.0);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(b > a);
    EXPECT_TRUE(a <= a);
    EXPECT_TRUE(a == Fixed::fromDouble(1.0));
}

TEST(ErrorMetrics, UlpDistance)
{
    EXPECT_EQ(0.0, ulpDistance(1.0f, 1.0f));
    EXPECT_EQ(1.0, ulpDistance(1.0f, std::nextafter(1.0f, 2.0f)));
    EXPECT_EQ(2.0, ulpDistance(-1.0f,
                  std::nextafter(std::nextafter(-1.0f, 0.f), 0.f)));
    // Across zero: +den and -den are two ULPs apart via zero.
    float den = std::numeric_limits<float>::denorm_min();
    EXPECT_EQ(2.0, ulpDistance(den, -den));
    EXPECT_TRUE(std::isinf(
        ulpDistance(std::numeric_limits<float>::quiet_NaN(), 1.0f)));
}

TEST(ErrorMetrics, Accumulator)
{
    ErrorAccumulator acc;
    acc.add(1.0, 1.0);
    acc.add(2.0, 1.0);
    acc.add(1.0, 2.0);
    ErrorStats s = acc.stats();
    EXPECT_EQ(3u, s.count);
    EXPECT_DOUBLE_EQ(1.0, s.maxAbs);
    EXPECT_NEAR(std::sqrt(2.0 / 3.0), s.rmse, 1e-12);
    EXPECT_NEAR(2.0 / 3.0, s.meanAbs, 1e-12);
}

TEST(ErrorMetrics, EmptyStats)
{
    ErrorAccumulator acc;
    ErrorStats s = acc.stats();
    EXPECT_EQ(0u, s.count);
    EXPECT_EQ(0.0, s.rmse);
}

TEST(ErrorMetrics, SpanOverload)
{
    std::vector<float> a{1.0f, 2.0f};
    std::vector<float> b{1.0f, 2.5f};
    ErrorStats s = computeErrorStats(a, b);
    EXPECT_EQ(2u, s.count);
    EXPECT_FLOAT_EQ(0.5f, static_cast<float>(s.maxAbs));
}

TEST(EmuInt, MulMatchesHost)
{
    SplitMix64 rng(21);
    CountingSink sink;
    for (int i = 0; i < 100000; ++i) {
        uint32_t a = static_cast<uint32_t>(rng.next());
        uint32_t b = static_cast<uint32_t>(rng.next());
        ASSERT_EQ(static_cast<uint64_t>(a) * b, emuMul32(a, b, &sink));
    }
    EXPECT_GT(sink.total(), 0u);
}

TEST(EmuInt, MulSigned)
{
    CountingSink sink;
    EXPECT_EQ(-6, emuMulS32(2, -3, &sink));
    EXPECT_EQ(6, emuMulS32(-2, -3, &sink));
    EXPECT_EQ(static_cast<int64_t>(INT32_MIN) * INT32_MIN,
              emuMulS32(INT32_MIN, INT32_MIN, &sink));
}

TEST(EmuInt, MulCostDependsOnOperandBytes)
{
    CountingSink cheap, costly;
    emuMul32(0x000000ffu, 0xffffffffu, &cheap);
    emuMul32(0xffffffffu, 0xffffffffu, &costly);
    EXPECT_LT(cheap.total(), costly.total());
}

TEST(EmuInt, DivMatchesHost)
{
    SplitMix64 rng(22);
    CountingSink sink;
    for (int i = 0; i < 100000; ++i) {
        uint32_t a = static_cast<uint32_t>(rng.next());
        uint32_t b = static_cast<uint32_t>(rng.next());
        if (b == 0)
            continue;
        uint32_t rem = 0;
        ASSERT_EQ(a / b, emuDiv32(a, b, &sink, &rem));
        ASSERT_EQ(a % b, rem);
    }
}

TEST(EmuInt, DivSigned)
{
    CountingSink sink;
    EXPECT_EQ(-2, emuDivS32(7, -3, &sink));
    EXPECT_EQ(2, emuDivS32(-7, -3, &sink));
    EXPECT_EQ(-2, emuDivS32(-7, 3, &sink));
}

TEST(Rng, Deterministic)
{
    auto a = uniformFloats(100, 0.0f, 1.0f, 42);
    auto b = uniformFloats(100, 0.0f, 1.0f, 42);
    EXPECT_EQ(a, b);
    auto c = uniformFloats(100, 0.0f, 1.0f, 43);
    EXPECT_NE(a, c);
}

TEST(Rng, Range)
{
    auto v = uniformFloats(10000, -2.0f, 5.0f);
    for (float x : v) {
        EXPECT_GE(x, -2.0f);
        EXPECT_LT(x, 5.0f);
    }
}

TEST(LabelPool, EqualTextSharesOneAddress)
{
    const std::string a = "sin/L-LUT interp. (WRAM, 2^12)";
    const std::string b = a; // equal text, distinct storage
    ASSERT_NE(a.data(), b.data());
    const Label la(a), lb(b.c_str()), lc{std::string_view(b)};
    EXPECT_EQ(la.view().data(), lb.view().data());
    EXPECT_EQ(&la.str(), &lc.str());
    EXPECT_EQ(la, lb);
    EXPECT_EQ(la.str(), a);
    EXPECT_FALSE(la == Label("cos/L-LUT interp. (WRAM, 2^12)"));

    // The empty label equals any empty text.
    EXPECT_EQ(Label(), Label(""));
    EXPECT_EQ(Label().str(), "");
}

TEST(LabelPool, LabelOutlivesItsSourceString)
{
    Label label;
    std::string_view view;
    {
        // Longer than any small-string buffer, so the source owns a
        // heap block that dies with it (a dangling read trips ASan).
        auto source = std::make_unique<std::string>(
            "exp/M-LUT interp. (MRAM, 2^16) built on the heap");
        label = *source;
        view = Label(*source).view();
        source->assign(source->size(), 'x');
    }
    EXPECT_EQ(label.str(),
              "exp/M-LUT interp. (MRAM, 2^16) built on the heap");
    EXPECT_EQ(view, label.view());
}

TEST(LabelPool, EightThreadsInternConcurrently)
{
    constexpr int kThreads = 8;
    constexpr int kTexts = 64;
    constexpr int kRounds = 50;
    // Every thread interns the same texts, starting at a different
    // offset so first sightings race.
    std::vector<std::vector<const char*>> seen(
        kThreads, std::vector<const char*>(kTexts));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t, &seen] {
            for (int round = 0; round < kRounds; ++round)
                for (int i = 0; i < kTexts; ++i) {
                    const int k = (i + t * 8) % kTexts;
                    const Label label(
                        "concurrent/label " + std::to_string(k));
                    if (round == 0)
                        seen[t][k] = label.view().data();
                    else
                        ASSERT_EQ(seen[t][k], label.view().data());
                }
        });
    for (std::thread& th : threads)
        th.join();
    for (int k = 0; k < kTexts; ++k) {
        EXPECT_EQ(std::string(seen[0][k]),
                  "concurrent/label " + std::to_string(k));
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[t][k], seen[0][k]) << "text " << k;
    }
}

} // namespace
} // namespace tpl
