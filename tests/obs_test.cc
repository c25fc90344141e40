/**
 * @file
 * Observability layer tests: the exact cycle-attribution partition of
 * LaunchStats, the Chrome trace export's structural invariants, the
 * metrics registry and its JSON dump, the per-direction x per-mode
 * transfer split, and the sanitizer-to-registry wiring.
 *
 * The JSON consumers use a deliberately small recursive-descent parser
 * (no external dependency): strict enough to reject the malformations
 * that would break Perfetto or `python -m json.tool`, small enough to
 * audit.
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/emu_int.h"
#include "lane_transfers.h"
#include "pimsim/analysis/sanitizer.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"
#include "pimsim/system.h"
#include "softfloat/softfloat.h"
#include "transpim/evaluator.h"

namespace tpl {
namespace {

// ------------------------------------------------ mini JSON parser

struct Json
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    bool has(const std::string& key) const
    {
        return type == Type::Object && object.count(key) > 0;
    }

    const Json& at(const std::string& key) const
    {
        return object.at(key);
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    /** Parse the full document; fails the test on any malformation. */
    Json parse()
    {
        Json v = parseValue();
        skipWs();
        EXPECT_EQ(pos_, text_.size())
            << "trailing garbage after JSON document";
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            ADD_FAILURE() << "unexpected end of JSON at " << pos_;
            return '\0';
        }
        return text_[pos_];
    }

    void expect(char c)
    {
        char got = peek();
        ASSERT_EQ(c, got) << "at offset " << pos_;
        ++pos_;
    }

    Json parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't':
          case 'f': return parseBool();
          case 'n': return parseNull();
          default:  return parseNumber();
        }
    }

    Json parseObject()
    {
        Json v;
        v.type = Json::Type::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            Json key = parseString();
            expect(':');
            v.object[key.str] = parseValue();
            char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',') {
                ADD_FAILURE() << "expected ',' at offset " << pos_;
                return v;
            }
        }
    }

    Json parseArray()
    {
        Json v;
        v.type = Json::Type::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',') {
                ADD_FAILURE() << "expected ',' at offset " << pos_;
                return v;
            }
        }
    }

    Json parseString()
    {
        Json v;
        v.type = Json::Type::String;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    ADD_FAILURE() << "dangling escape";
                    return v;
                }
                char e = text_[pos_++];
                switch (e) {
                  case '"':  v.str += '"';  break;
                  case '\\': v.str += '\\'; break;
                  case '/':  v.str += '/';  break;
                  case 'b':  v.str += '\b'; break;
                  case 'f':  v.str += '\f'; break;
                  case 'n':  v.str += '\n'; break;
                  case 'r':  v.str += '\r'; break;
                  case 't':  v.str += '\t'; break;
                  case 'u': {
                      if (pos_ + 4 > text_.size()) {
                          ADD_FAILURE() << "truncated \\u escape";
                          return v;
                      }
                      v.str += text_.substr(pos_, 4); // opaque
                      pos_ += 4;
                      break;
                  }
                  default:
                      ADD_FAILURE()
                          << "bad escape '\\" << e << "'";
                }
            } else {
                EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
                    << "unescaped control character in string";
                v.str += c;
            }
        }
        expect('"');
        return v;
    }

    Json parseBool()
    {
        Json v;
        v.type = Json::Type::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            v.boolean = false;
            pos_ += 5;
        } else {
            ADD_FAILURE() << "bad literal at " << pos_;
        }
        return v;
    }

    Json parseNull()
    {
        Json v;
        EXPECT_EQ(0, text_.compare(pos_, 4, "null")) << "at " << pos_;
        pos_ += 4;
        return v;
    }

    Json parseNumber()
    {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        Json v;
        v.type = Json::Type::Number;
        if (pos_ == start) {
            ADD_FAILURE() << "expected a number at offset " << start;
            return v;
        }
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
    }

    const std::string& text_;
    size_t pos_ = 0;
};

Json
parseJson(const std::string& text)
{
    return JsonParser(text).parse();
}

// ------------------------------------- LaunchStats cycle attribution

/**
 * A kernel touching every InstrClass: IntAlu (charge), IntMulDiv
 * (emuMul32/emuDiv32), SoftFloat (sf::add/mul), WramAccess
 * (chargeWramAccess), DmaIssue (mramRead/mramWrite) and Barrier.
 */
sim::LaunchStats
runAllClassKernel(sim::DpuCore& dpu, uint32_t tasklets,
                  uint32_t elements)
{
    uint32_t bytes = elements * sizeof(float);
    uint32_t inAddr = dpu.mramAlloc(bytes);
    uint32_t outAddr = dpu.mramAlloc(bytes);
    std::vector<float> init(elements);
    for (uint32_t i = 0; i < elements; ++i)
        init[i] = 0.25f * static_cast<float>(i % 97);
    dpu.hostWriteMram(inAddr, init.data(), bytes);

    return dpu.launch(tasklets, [&](sim::TaskletContext& ctx) {
        constexpr uint32_t chunk = 64;
        float buf[chunk];
        uint32_t chunks = (elements + chunk - 1) / chunk;
        for (uint32_t c = ctx.taskletId(); c < chunks;
             c += ctx.numTasklets()) {
            uint32_t beg = c * chunk;
            uint32_t cnt = std::min(chunk, elements - beg);
            ctx.mramRead(inAddr + beg * sizeof(float), buf,
                         cnt * sizeof(float));
            for (uint32_t i = 0; i < cnt; ++i) {
                ctx.charge(3);
                ctx.chargeWramAccess(2);
                uint32_t scaled = static_cast<uint32_t>(
                    emuMul32(beg + i, 2654435761u, &ctx));
                (void)emuDiv32(scaled | 1u, 97u, &ctx);
                buf[i] = sf::mul(sf::add(buf[i], 0.5f, &ctx), 1.5f,
                                 &ctx);
            }
            ctx.mramWrite(outAddr + beg * sizeof(float), buf,
                          cnt * sizeof(float));
        }
        ctx.barrier();
    });
}

class LaunchBreakdown : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(LaunchBreakdown, ClassPartitionSumsExactlyToCycles)
{
    const uint32_t tasklets = GetParam();
    sim::DpuCore dpu;
    sim::LaunchStats stats = runAllClassKernel(dpu, tasklets, 1024);

    // Every class the kernel exercises shows up.
    using C = InstrClass;
    EXPECT_GT(stats.classInstructions[static_cast<int>(C::IntAlu)], 0u);
    EXPECT_GT(stats.classInstructions[static_cast<int>(C::IntMulDiv)],
              0u);
    EXPECT_GT(stats.classInstructions[static_cast<int>(C::SoftFloat)],
              0u);
    EXPECT_GT(stats.classInstructions[static_cast<int>(C::WramAccess)],
              0u);
    EXPECT_GT(stats.classInstructions[static_cast<int>(C::DmaIssue)],
              0u);

    // Exactly one barrier instruction per tasklet.
    EXPECT_EQ(tasklets,
              stats.classInstructions[static_cast<int>(C::Barrier)]);

    // The partition is exact: classes sum to the instruction total,
    // and adding the stall residual reaches the cycle total with no
    // cycle double-counted or lost.
    uint64_t classSum = std::accumulate(
        stats.classInstructions.begin(), stats.classInstructions.end(),
        uint64_t{0});
    EXPECT_EQ(stats.totalInstructions, classSum);
    EXPECT_EQ(stats.cycles, classSum + stats.stallCycles);

    // Per-tasklet attribution: right shape, same partition per
    // tasklet, and tasklet slices sum to the launch totals.
    ASSERT_EQ(tasklets, stats.perTasklet.size());
    uint64_t taskletInstrSum = 0;
    std::array<uint64_t, numInstrClasses> classFromTasklets{};
    for (const sim::TaskletStats& ts : stats.perTasklet) {
        uint64_t perClassSum = std::accumulate(
            ts.classInstructions.begin(), ts.classInstructions.end(),
            uint64_t{0});
        EXPECT_EQ(ts.instructions, perClassSum);
        taskletInstrSum += ts.instructions;
        for (int c = 0; c < numInstrClasses; ++c)
            classFromTasklets[c] += ts.classInstructions[c];
    }
    EXPECT_EQ(stats.totalInstructions, taskletInstrSum);
    EXPECT_EQ(stats.classInstructions, classFromTasklets);

    // Operation tallies flow through: the softfloat helpers noted
    // one FloatAdd and one FloatMul per element.
    EXPECT_EQ(1024u,
              stats.opCounts[static_cast<int>(OpClass::FloatAdd)]);
    EXPECT_EQ(1024u,
              stats.opCounts[static_cast<int>(OpClass::FloatMul)]);
}

INSTANTIATE_TEST_SUITE_P(TaskletCounts, LaunchBreakdown,
                         ::testing::Values(1u, 2u, 11u, 16u));

// ----------------------------------------------------- metrics registry

TEST(Metrics, RegistryAccumulatesAndDumpsValidJson)
{
    obs::Registry reg;
    reg.setEnabled(true);

    reg.counter("pimsim/dpu/cycles").add(100);
    reg.counter("pimsim/dpu/cycles").add(23);
    reg.counter("pimsim/dpu/launches").add(1);
    reg.real("pimsim/system/modeled_seconds").add(0.5);
    reg.real("pimsim/system/modeled_seconds").add(0.25);
    reg.histogram("pimsim/dpu/cycles_per_launch").observe(0);
    reg.histogram("pimsim/dpu/cycles_per_launch").observe(7);
    reg.histogram("pimsim/dpu/cycles_per_launch").observe(1u << 20);

    EXPECT_EQ(123u, reg.counter("pimsim/dpu/cycles").value());

    Json doc = parseJson(reg.toJson());
    ASSERT_EQ(Json::Type::Object, doc.type);
    ASSERT_TRUE(doc.has("counters"));
    ASSERT_TRUE(doc.has("reals"));
    ASSERT_TRUE(doc.has("histograms"));

    EXPECT_EQ(123.0,
              doc.at("counters").at("pimsim/dpu/cycles").number);
    EXPECT_EQ(1.0,
              doc.at("counters").at("pimsim/dpu/launches").number);
    EXPECT_DOUBLE_EQ(
        0.75,
        doc.at("reals").at("pimsim/system/modeled_seconds").number);

    const Json& hist =
        doc.at("histograms").at("pimsim/dpu/cycles_per_launch");
    EXPECT_EQ(3.0, hist.at("count").number);
    EXPECT_EQ(0.0 + 7.0 + (1u << 20), hist.at("sum").number);
    EXPECT_EQ(0.0, hist.at("min").number);
    EXPECT_EQ(static_cast<double>(1u << 20), hist.at("max").number);
    EXPECT_EQ(static_cast<double>(
                  obs::Histogram::kDefaultSubBucketBits),
              hist.at("sub_bucket_bits").number);
    // Quantile keys ride along for any non-empty histogram.
    EXPECT_TRUE(hist.has("p50"));
    EXPECT_TRUE(hist.has("p99"));
    // Log-linear buckets: small samples land exactly, large ones in
    // the sub-bucket the index math names.
    const uint32_t bits = obs::Histogram::kDefaultSubBucketBits;
    const Json& buckets = hist.at("buckets");
    ASSERT_EQ(Json::Type::Array, buckets.type);
    EXPECT_EQ(1.0,
              buckets.array.at(obs::Histogram::bucketIndex(0, bits))
                  .number);
    EXPECT_EQ(1.0,
              buckets.array.at(obs::Histogram::bucketIndex(7, bits))
                  .number);
    EXPECT_EQ(
        1.0,
        buckets.array
            .at(obs::Histogram::bucketIndex(uint64_t{1} << 20, bits))
            .number);

    // reset() zeroes values but keeps the registrations.
    reg.reset();
    EXPECT_EQ(0u, reg.counter("pimsim/dpu/cycles").value());
    Json cleared = parseJson(reg.toJson());
    EXPECT_TRUE(cleared.at("counters").has("pimsim/dpu/cycles"));
}

TEST(Metrics, DisabledRegistryStillSafeToUse)
{
    obs::Registry reg;
    EXPECT_FALSE(reg.enabled());
    // Report sites check enabled() themselves; direct use must still
    // be safe (handles are real regardless of the gate).
    reg.counter("x").add(1);
    EXPECT_EQ(1u, reg.counter("x").value());
}

TEST(Metrics, NamesAreSanitizedIntoValidJson)
{
    obs::Registry reg;
    reg.setEnabled(true);
    reg.counter("weird\"name\\with\nstuff").add(1);
    reg.histogram("hist\"with\\escapes").observe(42);
    Json doc = parseJson(reg.toJson()); // must not blow up the parser
    ASSERT_EQ(1u, doc.at("counters").object.size());
    // The sanitized name round-trips: what toJson emitted is the key
    // the consumer reads back, with no quote/backslash survivors.
    const std::string key = doc.at("counters").object.begin()->first;
    EXPECT_EQ(std::string::npos, key.find('"'));
    EXPECT_EQ(std::string::npos, key.find('\\'));
    EXPECT_EQ(1.0, doc.at("counters").at(key).number);
    ASSERT_EQ(1u, doc.at("histograms").object.size());
    EXPECT_EQ(
        1.0,
        doc.at("histograms").object.begin()->second.at("count").number);
}

TEST(Metrics, HistogramEdgeSamples)
{
    obs::Histogram h;
    h.observe(0);
    h.observe(1);
    h.observe(UINT64_MAX);

    EXPECT_EQ(3u, h.count());
    EXPECT_EQ(0u, h.minValue());
    EXPECT_EQ(UINT64_MAX, h.maxValue());
    // sum wraps mod 2^64: 0 + 1 + (2^64 - 1) == 0.
    EXPECT_EQ(0u, h.sum());

    const uint32_t bits = h.subBucketBits();
    EXPECT_EQ(0u, obs::Histogram::bucketIndex(0, bits));
    EXPECT_EQ(1u, obs::Histogram::bucketIndex(1, bits));
    // UINT64_MAX lands in the very last bucket, whose upper edge is
    // exactly UINT64_MAX — no sample can overflow the array.
    const uint32_t last = h.numBuckets() - 1;
    EXPECT_EQ(last, obs::Histogram::bucketIndex(UINT64_MAX, bits));
    EXPECT_EQ(UINT64_MAX, h.bucketHigh(last));
    EXPECT_EQ(1u, h.bucket(0));
    EXPECT_EQ(1u, h.bucket(1));
    EXPECT_EQ(1u, h.bucket(last));

    // Quantiles: exact at the small end, clamped to max at the top.
    EXPECT_EQ(0u, h.quantile(0.0));
    EXPECT_EQ(1u, h.quantile(0.5));
    EXPECT_EQ(UINT64_MAX, h.quantile(1.0));
}

TEST(Metrics, HistogramBucketEdgesTileTheDomain)
{
    obs::Histogram h(4);
    // Every bucket's range is [low, high], high(i) + 1 == low(i + 1),
    // and the index math maps both edges back to the bucket.
    for (uint32_t i = 0; i < h.numBuckets(); ++i) {
        const uint64_t lo = h.bucketLow(i);
        const uint64_t hi = h.bucketHigh(i);
        ASSERT_LE(lo, hi);
        ASSERT_EQ(i, obs::Histogram::bucketIndex(lo, 4));
        ASSERT_EQ(i, obs::Histogram::bucketIndex(hi, 4));
        if (i + 1 < h.numBuckets()) {
            ASSERT_EQ(hi + 1, h.bucketLow(i + 1));
        }
    }
}

TEST(Metrics, HistogramQuantileRelativeErrorBound)
{
    // Property test against the documented guarantee: for any sample
    // multiset, quantile(q) >= the true nearest-rank quantile and
    // <= true * (1 + 2^-B); exact below 2^(B+1).
    const uint32_t bits = obs::Histogram::kDefaultSubBucketBits;
    obs::Histogram h(bits);
    std::vector<uint64_t> samples;
    uint64_t x = 0x9e3779b97f4a7c15ull; // deterministic xorshift
    for (int i = 0; i < 5000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Mix magnitudes: spread samples across ~48 octaves.
        uint64_t s = x >> (x % 48);
        samples.push_back(s);
        h.observe(s);
    }
    std::sort(samples.begin(), samples.end());
    const double relBound = 1.0 / static_cast<double>(1u << bits);
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
        uint64_t rank = static_cast<uint64_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        rank = std::max<uint64_t>(1, std::min<uint64_t>(
                                         rank, samples.size()));
        const uint64_t exact = samples[rank - 1];
        const uint64_t approx = h.quantile(q);
        ASSERT_GE(approx, exact) << "q=" << q;
        if (exact < (uint64_t{1} << (bits + 1)))
            ASSERT_EQ(approx, exact) << "q=" << q;
        else
            ASSERT_LE(static_cast<double>(approx),
                      static_cast<double>(exact) * (1.0 + relBound))
                << "q=" << q;
    }
}

TEST(Metrics, HistogramNamesAndFindHistogram)
{
    obs::Registry reg;
    reg.counter("serve/waves").add(3);
    reg.histogram("serve/latency").observe(100);
    reg.histogram("fault/stall").observe(7);

    // histogramNames covers every registered family, sorted.
    const std::vector<std::string> names = reg.histogramNames();
    ASSERT_EQ(2u, names.size());
    EXPECT_EQ("fault/stall", names[0]);
    EXPECT_EQ("serve/latency", names[1]);
    const obs::Histogram* h = reg.findHistogram("serve/latency");
    ASSERT_NE(nullptr, h);
    EXPECT_EQ(1u, h->count());
    EXPECT_EQ(nullptr, reg.findHistogram("no/such/family"));
    EXPECT_EQ(nullptr, reg.findHistogram("serve/waves"));
}

TEST(Metrics, ResetUnderConcurrentObserveIsSafe)
{
    // reset() racing observe() must stay memory-safe (ASan/TSan
    // clean): counts may land on either side of the reset, but no
    // torn state and no out-of-bounds bucket writes.
    obs::Registry reg;
    reg.setEnabled(true);
    obs::Histogram& h = reg.histogram("race/hist");
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&h, &stop, t] {
            uint64_t x = 0x243f6a8885a308d3ull + t;
            while (!stop.load(std::memory_order_relaxed)) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.observe(x >> (x % 60));
            }
        });
    for (int i = 0; i < 200; ++i) {
        reg.reset();
        (void)h.quantile(0.99);
        (void)reg.toJson();
    }
    stop.store(true);
    for (std::thread& w : writers)
        w.join();
    SUCCEED();
}

// -------------------------------------------------------- trace export

TEST(Trace, ChromeExportIsWellFormedAndProperlyNested)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);

    {
        // A real multi-DPU workload: transfers + launchAll, with the
        // thread pool emitting per-DPU and per-tasklet events from
        // worker threads.
        sim::PimSystem sys(3);
        uint32_t perDpu = 512;
        uint32_t addr = 0;
        for (uint32_t d = 0; d < sys.numDpus(); ++d)
            addr = sys.dpu(d).mramAlloc(perDpu * sizeof(float));
        std::vector<float> data(perDpu * sys.numDpus(), 1.0f);
        sim::PipelineTimeline tl(sys.numDpus(), sys.model());
        sys.scatterAsync(tl, 0, 0.0,
                         sim::testxfer::equalScatter(
                             sys, addr, data.data(),
                             perDpu * sizeof(float)));
        sys.launchAll(4, [&](sim::TaskletContext& ctx) {
            float buf[64];
            ctx.mramRead(addr, buf, sizeof buf);
            for (int i = 0; i < 64; ++i) {
                ctx.charge(2);
                buf[i] = sf::add(buf[i], 1.0f, &ctx);
            }
            ctx.mramWrite(addr, buf, sizeof buf);
            ctx.barrier();
        });
        sys.gatherAsync(tl, 0, 0.0,
                        sim::testxfer::equalGather(
                            sys, addr, data.data(),
                            perDpu * sizeof(float)));
    }

    tracer.setEnabled(false);
    ASSERT_GT(tracer.eventCount(), 0u);
    std::string json = tracer.toChromeJson();
    tracer.clear();

    Json doc = parseJson(json);
    ASSERT_EQ(Json::Type::Object, doc.type);
    ASSERT_TRUE(doc.has("traceEvents"));
    const std::vector<Json>& events = doc.at("traceEvents").array;
    ASSERT_GT(events.size(), 0u);

    std::map<double, std::vector<std::string>> stacks; // tid -> names
    std::vector<std::string> seenCats;
    double lastTs = -1.0;
    for (const Json& ev : events) {
        ASSERT_EQ(Json::Type::Object, ev.type);
        ASSERT_TRUE(ev.has("ph"));
        ASSERT_TRUE(ev.has("ts"));
        ASSERT_TRUE(ev.has("pid"));
        ASSERT_TRUE(ev.has("tid"));
        const std::string& ph = ev.at("ph").str;
        double ts = ev.at("ts").number;
        double tid = ev.at("tid").number;

        // The export contract: globally sorted by timestamp.
        EXPECT_GE(ts, lastTs);
        lastTs = ts;

        if (ph == "B") {
            ASSERT_TRUE(ev.has("name"));
            EXPECT_FALSE(ev.at("name").str.empty());
            seenCats.push_back(ev.at("cat").str);
            stacks[tid].push_back(ev.at("name").str);
        } else if (ph == "E") {
            // E must close an open B on the same thread: stack-
            // disciplined nesting per tid.
            ASSERT_FALSE(stacks[tid].empty())
                << "E event with no open span on tid " << tid;
            stacks[tid].pop_back();
        } else if (ph == "X") {
            ASSERT_TRUE(ev.has("dur"));
            EXPECT_GE(ev.at("dur").number, 0.0);
            ASSERT_TRUE(ev.has("name"));
            seenCats.push_back(ev.at("cat").str);
        } else {
            ASSERT_EQ("i", ph) << "unexpected phase " << ph;
        }
    }
    // Every span opened was closed.
    for (const auto& [tid, stack] : stacks)
        EXPECT_TRUE(stack.empty())
            << "unclosed span '" << stack.back() << "' on tid " << tid;

    // The taxonomy made it through: transfers, the launchAll phase,
    // per-DPU slices and per-tasklet slices are all present.
    auto sawCat = [&](const char* cat) {
        return std::find(seenCats.begin(), seenCats.end(), cat) !=
               seenCats.end();
    };
    EXPECT_TRUE(sawCat("xfer"));
    EXPECT_TRUE(sawCat("sim"));
    EXPECT_TRUE(sawCat("dpu"));
    EXPECT_TRUE(sawCat("tasklet"));
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.begin("nope", "host");
    tracer.end();
    tracer.instant("nope", "host");
    tracer.flowBegin("nope", "serve", 1);
    EXPECT_EQ(0u, tracer.eventCount());
    Json doc = parseJson(tracer.toChromeJson());
    EXPECT_EQ(0u, doc.at("traceEvents").array.size());
}

TEST(Trace, FlowEventsCarryIdAndBindingPoint)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.begin("wave 0", "serve");
    tracer.flowBegin("req 17", "serve", 17);
    tracer.end();
    tracer.begin("wave 1", "serve");
    tracer.flowStep("req 17", "serve", 17);
    tracer.flowEnd("req 17", "serve", 17);
    tracer.end();

    Json doc = parseJson(tracer.toChromeJson());
    const auto& events = doc.at("traceEvents").array;
    int sSeen = 0, tSeen = 0, fSeen = 0;
    for (const Json& ev : events) {
        const std::string& ph = ev.at("ph").str;
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        ASSERT_TRUE(ev.has("id"));
        EXPECT_EQ(17.0, ev.at("id").number);
        EXPECT_EQ("req 17", ev.at("name").str);
        if (ph == "s")
            ++sSeen;
        if (ph == "t")
            ++tSeen;
        if (ph == "f") {
            ++fSeen;
            // Terminal flow points bind to the enclosing slice's end.
            ASSERT_TRUE(ev.has("bp"));
            EXPECT_EQ("e", ev.at("bp").str);
        }
    }
    EXPECT_EQ(1, sSeen);
    EXPECT_EQ(1, tSeen);
    EXPECT_EQ(1, fSeen);
}

// ------------------------------------------------ transfer-split lock

TEST(TransferSplit, CellsMatchTheOldCombinedTotals)
{
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.setEnabled(true);

    sim::PimSystem sys(4);
    constexpr uint32_t kBytes = 64 * 1024;
    std::vector<uint8_t> buf(kBytes * sys.numDpus(), 0x5a);
    uint32_t addr = 0;
    for (uint32_t d = 0; d < sys.numDpus(); ++d)
        addr = sys.dpu(d).mramAlloc(kBytes);

    sim::PipelineTimeline tl(sys.numDpus(), sys.model());
    double b1 = sys.broadcastAsync(tl, 0, 0.0, kBytes).seconds();
    double b2 = sys.broadcastAsync(tl, 0, 0.0, kBytes).seconds();
    double s = sys.scatterAsync(tl, 0, 0.0,
                                sim::testxfer::equalScatter(
                                    sys, addr, buf.data(), kBytes))
                   .seconds();
    double g = sys.gatherAsync(tl, 0, 0.0,
                               sim::testxfer::equalGather(
                                   sys, addr, buf.data(), kBytes))
                   .seconds();
    reg.setEnabled(false);

    // Each direction has its fixed mode: a broadcast streams its
    // buffer once at the parallel rate of the lane's model ranks;
    // scatter and gather serialize the full aggregate.
    const sim::CostModel& model = sys.model();
    uint64_t aggregate = uint64_t{kBytes} * sys.numDpus();
    EXPECT_DOUBLE_EQ(model.parallelTransferSeconds(kBytes, 1), b1);
    EXPECT_DOUBLE_EQ(b1, b2);
    EXPECT_DOUBLE_EQ(model.serialTransferSeconds(aggregate), s);
    EXPECT_DOUBLE_EQ(model.serialTransferSeconds(aggregate), g);

    // One cell per direction, with nothing leaking across cells.
    const sim::TransferStats& ts = sys.transferStats();
    EXPECT_EQ(2u, ts.broadcast.transfers);
    EXPECT_EQ(2 * uint64_t{kBytes}, ts.broadcast.bytes);
    EXPECT_DOUBLE_EQ(b1 + b2, ts.broadcast.seconds);
    EXPECT_EQ(1u, ts.scatter.transfers);
    EXPECT_EQ(aggregate, ts.scatter.bytes);
    EXPECT_DOUBLE_EQ(s, ts.scatter.seconds);
    EXPECT_EQ(1u, ts.gather.transfers);
    EXPECT_EQ(aggregate, ts.gather.bytes);
    EXPECT_DOUBLE_EQ(g, ts.gather.seconds);

    // And the cells sum exactly to the combined view.
    EXPECT_DOUBLE_EQ(b1 + b2 + s + g, ts.totalSeconds());
    EXPECT_EQ(2 * uint64_t{kBytes} + 2 * aggregate, ts.totalBytes());

    // The registry carries the same cells under their production
    // names, one <direction>/<mode> prefix per direction.
    auto cell = [&](const char* name) {
        return std::string("pimsim/host/") + name;
    };
    EXPECT_EQ(2u, reg.counter(cell("broadcast/parallel/transfers"))
                      .value());
    EXPECT_EQ(2 * uint64_t{kBytes},
              reg.counter(cell("broadcast/parallel/bytes")).value());
    EXPECT_DOUBLE_EQ(
        b1 + b2,
        reg.real(cell("broadcast/parallel/modeled_seconds")).value());
    EXPECT_EQ(1u,
              reg.counter(cell("scatter/serial/transfers")).value());
    EXPECT_EQ(aggregate,
              reg.counter(cell("scatter/serial/bytes")).value());
    EXPECT_EQ(1u, reg.counter(cell("gather/serial/transfers")).value());
    EXPECT_DOUBLE_EQ(
        g, reg.real(cell("gather/serial/modeled_seconds")).value());
    reg.reset();
}

// ------------------------------------------- sanitizer-to-registry

TEST(SanitizerMetrics, DiagnosticCountsReachTheRegistry)
{
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.setEnabled(true);

    sim::check::Sanitizer san(1024, 1u << 20);
    san.beginLaunch(2);
    // One bad-size DMA (12 bytes, not a multiple of 8) and one WRAM
    // bounds violation.
    san.onDma(0, 0, 0, 12, 1);
    san.onWramLoad(0, 2048, 8, 2);

    reg.setEnabled(false);

    using sim::check::CheckKind;
    EXPECT_EQ(
        countOf(san.diagnostics(), CheckKind::DmaBadSize),
        reg.counter(std::string("pimcheck/sanitizer/") +
                    toString(CheckKind::DmaBadSize))
            .value());
    EXPECT_EQ(
        countOf(san.diagnostics(), CheckKind::WramOutOfBounds),
        reg.counter(std::string("pimcheck/sanitizer/") +
                    toString(CheckKind::WramOutOfBounds))
            .value());
    EXPECT_GT(san.diagnostics().size(), 0u);
    reg.reset();
}

TEST(SanitizerMetrics, DisabledRegistryCostsNothing)
{
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    ASSERT_FALSE(reg.enabled());

    sim::check::Sanitizer san(1024, 1u << 20);
    san.beginLaunch(1);
    san.onDma(0, 0, 0, 12, 1);

    // The diagnostic fires either way; the counter stays untouched.
    EXPECT_EQ(1u, san.diagnostics().size());
    EXPECT_EQ(0u, reg.counter("pimcheck/sanitizer/dma-bad-size")
                      .value());
}

// ------------------------------------- registry wiring from the DPU

TEST(DpuMetrics, LaunchReportsIntoTheGlobalRegistry)
{
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.setEnabled(true);

    sim::DpuCore dpu;
    sim::LaunchStats stats = runAllClassKernel(dpu, 4, 512);

    reg.setEnabled(false);

    EXPECT_EQ(1u, reg.counter("pimsim/dpu/launches").value());
    EXPECT_EQ(stats.cycles, reg.counter("pimsim/dpu/cycles").value());
    EXPECT_EQ(stats.totalInstructions,
              reg.counter("pimsim/dpu/instructions").value());
    EXPECT_EQ(stats.dmaBytes,
              reg.counter("pimsim/dpu/dma/bytes").value());
    for (int c = 0; c < numInstrClasses; ++c) {
        EXPECT_EQ(stats.classInstructions[c],
                  reg.counter(std::string("pimsim/dpu/instr/") +
                              instrClassName(
                                  static_cast<InstrClass>(c)))
                      .value())
            << instrClassName(static_cast<InstrClass>(c));
    }
    EXPECT_EQ(1u,
              reg.histogram("pimsim/dpu/cycles_per_launch").count());
    reg.reset();
}

TEST(DpuMetrics, CachedCounterHandlesMatchPerLaunchLookups)
{
    // The launch report site resolves its metric handles once and
    // reuses them; the registry totals must stay exactly what
    // per-launch name lookups would have produced, across repeated
    // launches (first launch builds the cache, second reuses it).
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.setEnabled(true);

    sim::DpuCore dpu;
    sim::LaunchStats a = runAllClassKernel(dpu, 4, 512);
    dpu.resetAllocators();
    sim::LaunchStats b = runAllClassKernel(dpu, 8, 512);

    reg.setEnabled(false);

    EXPECT_EQ(2u, reg.counter("pimsim/dpu/launches").value());
    EXPECT_EQ(a.cycles + b.cycles,
              reg.counter("pimsim/dpu/cycles").value());
    EXPECT_EQ(a.totalInstructions + b.totalInstructions,
              reg.counter("pimsim/dpu/instructions").value());
    EXPECT_EQ(a.stallCycles + b.stallCycles,
              reg.counter("pimsim/dpu/stall_cycles").value());
    EXPECT_EQ(a.dmaBytes + b.dmaBytes,
              reg.counter("pimsim/dpu/dma/bytes").value());
    EXPECT_EQ(a.dmaEngineCycles + b.dmaEngineCycles,
              reg.counter("pimsim/dpu/dma/engine_cycles").value());
    for (int c = 0; c < numInstrClasses; ++c) {
        EXPECT_EQ(a.classInstructions[c] + b.classInstructions[c],
                  reg.counter(std::string("pimsim/dpu/instr/") +
                              instrClassName(
                                  static_cast<InstrClass>(c)))
                      .value())
            << instrClassName(static_cast<InstrClass>(c));
    }
    for (int o = 0; o < numOpClasses; ++o) {
        EXPECT_EQ(a.opCounts[o] + b.opCounts[o],
                  reg.counter(std::string("pimsim/dpu/ops/") +
                              opClassSlug(static_cast<OpClass>(o)))
                      .value())
            << opClassSlug(static_cast<OpClass>(o));
    }
    EXPECT_EQ(2u,
              reg.histogram("pimsim/dpu/cycles_per_launch").count());
    reg.reset();
}

} // namespace
} // namespace tpl
