/**
 * @file
 * FunctionEvaluator construction: the (function x method) dispatch.
 *
 * Each builder assembles the kernel-side pipeline the paper describes
 * for that combination - range reduction/extension where the function
 * needs it, the core method over its native interval, and the output
 * fixups (quadrant signs, ldexp rescaling, identities).
 */

#include "transpim/evaluator.h"

#include <chrono>
#include <cmath>
#include <type_traits>

#include "common/bitops.h"
#include "pimsim/obs/trace.h"
#include "softfloat/softfloat.h"
#include "transpim/cordic.h"
#include "transpim/cordic_lut.h"
#include "transpim/direct_lut.h"
#include "transpim/fuzzy_lut.h"
#include "transpim/ldexp.h"
#include "transpim/poly.h"
#include "transpim/range.h"

namespace tpl {
namespace transpim {

namespace {

constexpr double dTwoPi = 6.28318530717958647692;
constexpr double dLn2 = 0.69314718055994530942;
constexpr float fLn2 = 0.69314718055994530942f;

using Eval = std::function<float(float, InstrSink*)>;
using BatchEval = std::function<void(std::span<const float>,
                                     std::span<float>, InstrSink*,
                                     BatchStats*)>;
using Attach = std::function<void(sim::DpuCore&)>;

/** The carry of a staged body whose post stage needs nothing from its
 * pre stage. */
struct NoCarry
{};

/**
 * What a staged body's pre stage returns: the input of its one engine
 * call (CordicRotation or CordicVectoring) and the values its post
 * stage needs.
 */
template <class In, class Carry>
struct Staged
{
    In in;
    Carry carry;
};

/** A pre stage's result for a rotation-mode engine call. */
template <class T, class Carry = NoCarry>
Staged<CordicRotation<T>, Carry>
rotating(T z0, Carry carry = {})
{
    return {{z0}, carry};
}

/** A pre stage's result for a vectoring-mode engine call. */
template <class T, class Carry = NoCarry>
Staged<CordicVectoring<T>, Carry>
vectoring(T x0, T y0, Carry carry = {})
{
    return {{x0, y0}, carry};
}

/**
 * A CORDIC body that makes exactly one unconditional engine call, in
 * stages: pre(x, sink) returns a Staged, the engine runs, and
 * post(carry, result, sink) returns the output. Calling it runs
 * pre → rotateT/vectorT → post: the scalar path and the batch path's
 * per-element lane. Its block lane runs whole blocks of it through the
 * engine's block lane; this one definition serves both.
 */
template <class Engine, class Pre, class Post>
struct StagedBody
{
    std::shared_ptr<const Engine> engine;
    Pre pre;
    Post post;

    template <class S>
    float
    operator()(float x, S& sink) const
    {
        auto [in, carry] = pre(x, sink);
        if constexpr (decltype(in)::vectoring)
            return post(carry, engine->vectorT(in.x0, in.y0, sink), sink);
        else
            return post(carry, engine->rotateT(in.z0, sink), sink);
    }

    /** What the block lane needs: the angle table's host or WRAM view.
     * An MRAM table has none, so its reads stay one DMA per step. */
    auto
    blockView(BatchSink& sink) const
    {
        return engine->angleViewT(sink);
    }

    /**
     * One block of @p Vectors * simdLanes elements in the engine's
     * block lane: every element's pre stage and engine prologue, then
     * the iterations of all of them together, then every post stage.
     * All inputs are read before any output is written, so @p in may
     * alias @p out.
     */
    template <int Vectors, class View>
    void
    block(View view, const float* in, float* out, BatchSink& sink) const
    {
        constexpr int n = Vectors * sf::simdLanes;
        using Stage = decltype(pre(0.0f, sink));
        Stage stages[n]{};
        typename Engine::Result v[n]{};
        for (int j = 0; j < n; ++j) {
            stages[j] = pre(in[j], sink);
            v[j] = engine->startT(stages[j].in, sink);
        }
        constexpr bool vectoring = decltype(Stage::in)::vectoring;
        engine->template iterateBlockT<vectoring, Vectors>(view, v, sink);
        for (int j = 0; j < n; ++j)
            out[j] = post(stages[j].carry, v[j], sink);
    }
};

/** The StagedBody of @p pre and @p post around @p engine. */
template <class Engine, class Pre, class Post>
StagedBody<std::remove_const_t<Engine>, Pre, Post>
staged(std::shared_ptr<Engine> engine, Pre pre, Post post)
{
    return {std::move(engine), std::move(pre), std::move(post)};
}

/**
 * A body around one PolyCndf call, in stages like a StagedBody:
 * pre(x, sink) returns the cndf input and post(x, c, sink) the output
 * from x and the cndf value c. Calling it runs pre → cndf → post: the
 * scalar path and the batch path's per-element lane. Its block lane
 * runs blocks of it with the cndf in the vector lane.
 */
template <class Pre, class Post>
struct CndfBody
{
    PolyCndf cndf;
    Pre pre;
    Post post;

    template <class S>
    float
    operator()(float x, S& sink) const
    {
        return post(x, cndf(pre(x, sink), sink), sink);
    }

    /** The cndf reads no table: its block lane is always open. */
    std::true_type blockView(BatchSink&) const { return {}; }

    /**
     * One block of @p Vectors * simdLanes elements: every pre stage,
     * the cndf of all of them in the vector lane (per element when a
     * lane leaves a fast path), then every post stage. All inputs are
     * read before any output is written, so @p in may alias @p out.
     */
    template <int Vectors>
    void
    block(std::true_type, const float* in, float* out,
          BatchSink& sink) const
    {
        constexpr int n = Vectors * sf::simdLanes;
        float x[n], c[n];
        for (int j = 0; j < n; ++j) {
            x[j] = in[j];
            c[j] = pre(x[j], sink);
        }
        if (!cndf.template block<Vectors>(c, c, sink))
            for (float& v : c)
                v = cndf(v, sink);
        for (int j = 0; j < n; ++j)
            out[j] = post(x[j], c[j], sink);
    }
};

/** The CndfBody of @p pre and @p post around @p cndf. */
template <class Pre, class Post>
CndfBody<Pre, Post>
cndfBody(PolyCndf cndf, Pre pre, Post post)
{
    return {std::move(cndf), std::move(pre), std::move(post)};
}

/**
 * The batched loop over one evaluation body. A body with a block lane
 * (blockView and block: StagedBody, CndfBody) runs blocks of four
 * vectors, then of one vector, through it whenever blockView(sink)
 * opens it, and the remainder per element; any other body runs per
 * element. Reordering work within a block changes no total: the
 * batch's charges and notes are sums, and a block does no DMA.
 * Flattened so the body, its engines and the softfloat cores they
 * call inline into the loop; only out-of-line calls (MRAM DMA reads)
 * remain calls.
 */
template <class Body>
[[gnu::flatten]] void
runBatch(const Body& body, std::span<const float> in,
         std::span<float> out, BatchSink& sink)
{
    std::size_t i = 0;
    if constexpr (requires { body.blockView(sink); }) {
        constexpr std::size_t lanes = sf::simdLanes;
        if (in.size() >= lanes) {
            if (auto view = body.blockView(sink)) {
                for (; in.size() - i >= 4 * lanes; i += 4 * lanes)
                    body.template block<4>(view, &in[i], &out[i], sink);
                for (; in.size() - i >= lanes; i += lanes)
                    body.template block<1>(view, &in[i], &out[i], sink);
            }
        }
    }
    for (; i < in.size(); ++i)
        out[i] = body(in[i], sink);
}

/**
 * Both materializations of one evaluation body. The builders assign a
 * generic `(float x, auto& sink)` lambda or a StagedBody once; the
 * templated operator= instantiates it twice — with SinkRef for the
 * scalar std::function and with BatchSink for the batched loop — so
 * the two paths share one body and cannot diverge in values or
 * charges.
 */
struct EvalPair
{
    Eval scalar;
    BatchEval batch;

    template <class Body>
    EvalPair&
    operator=(Body body)
    {
        scalar = [body](float x, InstrSink* sink) {
            SinkRef s(sink);
            return body(x, s);
        };
        batch = [body](std::span<const float> in, std::span<float> out,
                       InstrSink* sink, BatchStats* stats) {
            BatchSink bs(sink);
            runBatch(body, in, out, bs);
            if (stats)
                stats->elements += in.size();
            bs.flush(stats);
        };
        return *this;
    }
};

/** Builder result before it is wrapped into a FunctionEvaluator. */
struct Built
{
    EvalPair eval;
    Attach attach;
    uint32_t memoryBytes = 0;
};

/**
 * Bind @p tables (LUTs or CORDIC engines) to @p out: attach transfers
 * each to a core, in argument order, and the evaluator's footprint is
 * the sum of their bytes.
 */
template <class... Tables>
void
bindTables(Built& out, std::shared_ptr<Tables>... tables)
{
    out.attach = [tables...](sim::DpuCore& c) { (tables->attach(c), ...); };
    out.memoryBytes = (tables->memoryBytes() + ...);
}

TableFn
refFn(Function f)
{
    return [f](double x) { return referenceValue(f, x); };
}

/** Quadrant output selection for sine. */
template <class S>
float
selectSin(const CordicEngine::Result& r, int q, S& sink)
{
    sink.charge(2);
    switch (q & 3) {
      case 0: return r.y;
      case 1: return r.x;
      case 2: return sf::negT(r.y, sink);
      default: return sf::negT(r.x, sink);
    }
}

/** Quadrant output selection for cosine. */
template <class S>
float
selectCos(const CordicEngine::Result& r, int q, S& sink)
{
    sink.charge(2);
    switch (q & 3) {
      case 0: return r.x;
      case 1: return sf::negT(r.y, sink);
      case 2: return sf::negT(r.x, sink);
      default: return r.y;
    }
}

/** The square roots' zero guard: true for +0 and -0 (sqrt(+-0) = 0). */
template <class S>
bool
isZero(float x, S& sink)
{
    sink.charge(2);
    return floatBits(x) == 0 || floatBits(x) == 0x80000000u;
}

// ---------------------------------------------------------------------
// Compositions shared by the CORDIC, CORDIC+LUT and Poly builders: each
// identity once, generic over the e^x or log body it wraps.
// ---------------------------------------------------------------------

/**
 * sinh, cosh or tanh over the e^x body @p exp:
 * sinh/cosh x = (e^x -/+ 1/e^x) / 2, tanh x = 1 - 2 / (e^(2x) + 1).
 */
template <class Exp>
auto
hyperbolicFromExp(Exp exp, Function f)
{
    return [exp, f](float x, auto& sink) {
        if (f == Function::Tanh) {
            float e2 = exp(pimLdexpT(x, 1, sink), sink);
            float d = sf::addT(e2, 1.0f, sink);
            return sf::subT(1.0f, sf::divT(2.0f, d, sink), sink);
        }
        float e = exp(x, sink);
        float ei = sf::divT(1.0f, e, sink);
        float t = f == Function::Sinh ? sf::subT(e, ei, sink)
                                      : sf::addT(e, ei, sink);
        return pimLdexpT(t, -1, sink);
    };
}

/** softplus x = ln(1 + e^x) over the bodies @p exp and @p log. */
template <class Exp, class Log>
auto
softplusFrom(Exp exp, Log log)
{
    return [exp, log](float x, auto& sink) {
        float e = exp(x, sink);
        return log(sf::addT(1.0f, e, sink), sink);
    };
}

/** atanh x = ln((1 + x) / (1 - x)) / 2 over the log body @p log. */
template <class Log>
auto
atanhFromLog(Log log)
{
    return [log](float x, auto& sink) {
        float u = sf::divT(sf::addT(1.0f, x, sink),
                          sf::subT(1.0f, x, sink), sink);
        return pimLdexpT(log(u, sink), -1, sink);
    };
}

// ---------------------------------------------------------------------
// LUT-family builders (M-LUT, L-LUT, fixed L-LUT, D-LUT, DL-LUT)
// ---------------------------------------------------------------------

/** Uniform handle over the five table types. */
struct AnyLut
{
    std::shared_ptr<MLut> m;
    std::shared_ptr<LLut> l;
    std::shared_ptr<LLutFixed> lf;
    std::shared_ptr<DLut> d;
    std::shared_ptr<DlLut> dl;

    template <class S>
    float
    evalT(float x, S& sink) const
    {
        if (m) return m->evalT(x, sink);
        if (l) return l->evalT(x, sink);
        if (lf) return lf->evalT(x, sink);
        if (d) return d->evalT(x, sink);
        return dl->evalT(x, sink);
    }

    uint32_t
    memoryBytes() const
    {
        if (m) return m->memoryBytes();
        if (l) return l->memoryBytes();
        if (lf) return lf->memoryBytes();
        if (d) return d->memoryBytes();
        return dl->memoryBytes();
    }

    void
    attach(sim::DpuCore& core) const
    {
        if (m) m->attach(core);
        if (l) l->attach(core);
        if (lf) lf->attach(core);
        if (d) d->attach(core);
        if (dl) dl->attach(core);
    }
};

/**
 * Build the configured table type for @p f over [lo, hi] (fuzzy LUTs)
 * or @p dspec (direct LUTs).
 */
AnyLut
makeLut(const MethodSpec& spec, const TableFn& f, double lo, double hi,
        const DLutSpec& dspec)
{
    AnyLut lut;
    if (spec.log2Entries >= 32)
        throw std::invalid_argument("log2Entries must be below 32");
    uint32_t n = 1u << spec.log2Entries;
    switch (spec.method) {
      case Method::MLut:
        lut.m = std::make_shared<MLut>(f, lo, hi, n, spec.interpolated,
                                       spec.placement);
        break;
      case Method::LLut:
        lut.l = std::make_shared<LLut>(f, lo, hi, n, spec.interpolated,
                                       spec.placement);
        break;
      case Method::LLutFixed:
        lut.lf = std::make_shared<LLutFixed>(f, lo, hi, n,
                                             spec.interpolated,
                                             spec.placement);
        break;
      case Method::DLut:
        lut.d = std::make_shared<DLut>(f, dspec, spec.interpolated,
                                       spec.placement);
        break;
      case Method::DlLut:
        lut.dl = std::make_shared<DlLut>(f, dspec, n, spec.interpolated,
                                         spec.placement);
        break;
      default:
        throw std::logic_error("makeLut: not a LUT method");
    }
    return lut;
}

/** D-LUT coverage for each function's direct table. */
DLutSpec
dlutSpecFor(Function f, const MethodSpec& spec)
{
    DLutSpec d;
    d.mantBits = spec.dlutMantBits;
    d.minExp = spec.dlutMinExp;
    switch (f) {
      case Function::Sin:
      case Function::Cos:
      case Function::Tan:
        d.signedRange = false;
        d.maxExp = 2; // covers up to 8 > 2*pi
        break;
      case Function::Sinh:
      case Function::Cosh:
        d.signedRange = true;
        d.maxExp = 2; // +-[0, 8)
        break;
      case Function::Tanh:
      case Function::Gelu:
        d.signedRange = true;
        d.maxExp = 3; // +-[0, 16); tanh/gelu saturate beyond
        break;
      case Function::Sigmoid:
        d.signedRange = true;
        d.maxExp = 4; // +-[0, 32)
        break;
      case Function::Cndf:
        d.signedRange = true;
        d.maxExp = 2; // +-[0, 8)
        break;
      case Function::Exp:
      case Function::Exp2:
        d.signedRange = true;
        d.maxExp = 3; // +-[0, 16)
        break;
      case Function::Log:
      case Function::Log2:
      case Function::Log10:
        d.signedRange = false;
        d.maxExp = 6; // (0, 128)
        break;
      case Function::Sqrt:
      case Function::Rsqrt:
        d.signedRange = false;
        d.maxExp = 6; // (0, 128)
        break;
      case Function::Atan:
      case Function::Silu:
        d.signedRange = true;
        d.maxExp = 3; // +-[0, 16)
        break;
      case Function::Asin:
      case Function::Acos:
      case Function::Atanh:
        d.signedRange = true;
        d.maxExp = -1; // +-[0, 1)
        break;
      case Function::Erf:
        d.signedRange = true;
        d.maxExp = 2; // +-[0, 8)
        break;
      case Function::Softplus:
        d.signedRange = true;
        d.maxExp = 3; // +-[0, 16)
        break;
    }
    return d;
}

Built
buildTableMethod(Function f, const MethodSpec& spec)
{
    Built out;
    DLutSpec dspec = dlutSpecFor(f, spec);
    bool reduce = spec.reduceRange;
    // D-LUT and DL-LUT extend no range: one direct table per function.
    bool direct =
        spec.method == Method::DLut || spec.method == Method::DlLut;
    // The configured table of @p fn over [lo, hi], bound to out.
    auto table = [&](const TableFn& fn, double lo, double hi) {
        auto lut = std::make_shared<AnyLut>(makeLut(spec, fn, lo, hi,
                                                    dspec));
        bindTables(out, lut);
        return lut;
    };

    switch (f) {
      case Function::Sin:
      case Function::Cos: {
        auto lut = table(refFn(f), 0.0, dTwoPi);
        out.eval = [lut, reduce](float x, auto& sink) {
            if (reduce)
                x = reduceTwoPiT(x, sink);
            return lut->evalT(x, sink);
        };
        return out;
      }
      case Function::Tan: {
        if (spec.shareTrigTables && !direct) {
            // One sine table over [0, 2pi + pi/2]; the cosine query
            // reuses it shifted by a quarter period.
            const double dHalfPi = 1.5707963267948966;
            auto lut = table(refFn(Function::Sin), 0.0, dTwoPi + dHalfPi);
            const float fHalfPi = 1.57079632679489661923f;
            out.eval = [lut, reduce, fHalfPi](float x,
                                              auto& sink) {
                if (reduce)
                    x = reduceTwoPiT(x, sink);
                float s = lut->evalT(x, sink);
                float c = lut->evalT(sf::addT(x, fHalfPi, sink), sink);
                return sf::divT(s, c, sink);
            };
            return out;
        }
        // tan = sin/cos: two tables plus one float division, the
        // 2-3x cost the paper reports for tangent (Section 4.2.4).
        auto sinL = std::make_shared<AnyLut>(makeLut(
            spec, refFn(Function::Sin), 0.0, dTwoPi, dspec));
        auto cosL = std::make_shared<AnyLut>(makeLut(
            spec, refFn(Function::Cos), 0.0, dTwoPi, dspec));
        bindTables(out, sinL, cosL);
        out.eval = [sinL, cosL, reduce](float x, auto& sink) {
            if (reduce)
                x = reduceTwoPiT(x, sink);
            float s = sinL->evalT(x, sink);
            float c = cosL->evalT(x, sink);
            return sf::divT(s, c, sink);
        };
        return out;
      }
      default:
        break;
    }

    // The fuzzy LUTs range-extend seven functions: a table over the
    // core interval, and the identity that reaches it from any x.
    if (!direct) {
        switch (f) {
          case Function::Exp: {
            // e^x = 2^k * e^r, r in [0, ln2).
            auto lut = table(refFn(f), 0.0, dLn2);
            out.eval = [lut](float x, auto& sink) {
                ExpSplit s = splitExpT(x, sink);
                float y = lut->evalT(s.r, sink);
                return pimLdexpT(y, s.k, sink);
            };
            return out;
          }
          case Function::Log: {
            // log x = k*ln2 + log m, m in [1, 2).
            auto lut = table(refFn(f), 1.0, 2.0);
            out.eval = [lut](float x, auto& sink) {
                LogSplit s = splitLogT(x, sink);
                float y = lut->evalT(s.m, sink);
                float kf = sf::fromI32T(s.k, sink);
                return sf::addT(y, sf::mulT(kf, fLn2, sink), sink);
            };
            return out;
          }
          case Function::Sqrt: {
            // sqrt x = 2^k * sqrt m, m in [0.5, 2).
            auto lut = table(refFn(f), 0.5, 2.0);
            out.eval = [lut](float x, auto& sink) {
                if (isZero(x, sink))
                    return 0.0f;
                SqrtSplit s = splitSqrtT(x, sink);
                float y = lut->evalT(s.m, sink);
                return pimLdexpT(y, s.k, sink);
            };
            return out;
          }
          case Function::Log2:
          case Function::Log10: {
            // log2 x = k + log2 m: the exponent contributes *exactly*,
            // so this is even cheaper than natural log (no k*ln2
            // multiply).
            auto lut = table([](double m) { return std::log2(m); }, 1.0,
                             2.0);
            bool base10 = f == Function::Log10;
            const float log10of2 = 0.30102999566398119521f;
            out.eval = [lut, base10, log10of2](float x, auto& sink) {
                LogSplit s = splitLogT(x, sink);
                float y = lut->evalT(s.m, sink);
                float kf = sf::fromI32T(s.k, sink);
                float l2 = sf::addT(y, kf, sink);
                if (base10)
                    l2 = sf::mulT(l2, log10of2, sink);
                return l2;
            };
            return out;
          }
          case Function::Exp2: {
            // 2^x = 2^k * 2^r with k = floor(x): no ln2 multiplies at
            // all, the cheapest range extension in the library.
            auto lut = table([](double r) { return std::exp2(r); }, 0.0,
                             1.0);
            out.eval = [lut](float x, auto& sink) {
                int32_t k = sf::toI32FloorT(x, sink);
                float kf = sf::fromI32T(k, sink);
                float r = sf::subT(x, kf, sink);
                float y = lut->evalT(r, sink);
                return pimLdexpT(y, k, sink);
            };
            return out;
          }
          case Function::Rsqrt: {
            // 1/sqrt(m * 4^k) = 2^-k / sqrt(m), m in [0.5, 2).
            auto lut = table(
                [](double m) { return 1.0 / std::sqrt(m); }, 0.5, 2.0);
            out.eval = [lut](float x, auto& sink) {
                SqrtSplit s = splitSqrtT(x, sink);
                float y = lut->evalT(s.m, sink);
                return pimLdexpT(y, -s.k, sink);
            };
            return out;
          }
          default:
            break;
        }
    }

    // Everything else is one direct table over the evaluation domain:
    // the direct LUTs cover every function this way, and the other
    // functions need no range extension (Key Takeaway 4 territory).
    Domain dom = functionDomain(f);
    auto lut = table(refFn(f), dom.lo, dom.hi);
    out.eval = [lut](float x, auto& sink) { return lut->evalT(x, sink); };
    return out;
}

// ---------------------------------------------------------------------
// CORDIC builders
//
// A body that makes exactly one unconditional engine call is a
// StagedBody, so the batch path can run it in the block lane; bodies
// that call the engine conditionally or twice stay generic lambdas
// and call staged bodies (or the engine) per element.
// ---------------------------------------------------------------------

/** Pre stage of the float trig bodies: optional 2*pi reduction, then
 * the quadrant split; the quadrant is the carry. */
auto
trigPre(bool reduce)
{
    return [reduce](float x, auto& sink) {
        if (reduce)
            x = reduceTwoPiT(x, sink);
        QuadrantReduced qr = reduceQuadrantT(x, sink);
        return rotating(qr.r, qr.q);
    };
}

/** Post stage of the float trig bodies: quadrant output selection. */
auto
trigPost(Function f)
{
    return [f](int q, const CordicVector& r, auto& sink) {
        if (f == Function::Sin)
            return selectSin(r, q, sink);
        if (f == Function::Cos)
            return selectCos(r, q, sink);
        float s = selectSin(r, q, sink);
        float c = selectCos(r, q, sink);
        return sf::divT(s, c, sink);
    };
}

/** Post stage of the exponential bodies: cosh + sinh, then ldexp by
 * the carried power of two. */
auto
expPost()
{
    return [](int32_t k, const CordicVector& r, auto& sink) {
        float e = sf::addT(r.x, r.y, sink);
        return pimLdexpT(e, k, sink);
    };
}

/** e^x via split + hyperbolic rotation + ldexp. */
template <class Engine>
auto
cordicExp(std::shared_ptr<Engine> eng)
{
    return staged(std::move(eng),
                  [](float x, auto& sink) {
                      ExpSplit s = splitExpT(x, sink);
                      return rotating(s.r, s.k);
                  },
                  expPost());
}

/** 2^x = 2^k * e^(r*ln2), r = x - floor(x) in [0, 1). */
template <class Engine>
auto
cordicExp2(std::shared_ptr<Engine> eng)
{
    return staged(std::move(eng),
                  [](float x, auto& sink) {
                      int32_t k = sf::toI32FloorT(x, sink);
                      float kf = sf::fromI32T(k, sink);
                      float r = sf::subT(x, kf, sink);
                      return rotating(sf::mulT(r, fLn2, sink), k);
                  },
                  expPost());
}

/** What the sigmoid post stage needs: e^-x's power of two and x. */
struct SigmoidCarry
{
    int32_t k;
    float x;
};

/** sigmoid x = 1 / (1 + e^-x) over the e^x body @p exp; silu
 * multiplies by x. */
template <class ExpBody>
auto
cordicSigmoid(const ExpBody& exp, bool silu)
{
    return staged(
        exp.engine,
        [pre = exp.pre](float x, auto& sink) {
            auto s = pre(sf::negT(x, sink), sink);
            return rotating(s.in.z0, SigmoidCarry{s.carry, x});
        },
        [post = exp.post, silu](SigmoidCarry c, const CordicVector& r,
                                auto& sink) {
            float e = post(c.k, r, sink);
            float s = sf::divT(1.0f, sf::addT(1.0f, e, sink), sink);
            if (silu)
                s = sf::mulT(c.x, s, sink);
            return s;
        });
}

/** Pre stage of the logarithm bodies: x = m * 2^k, then vectoring
 * (m + 1, m - 1); k is the carry. */
auto
logPre()
{
    return [](float x, auto& sink) {
        LogSplit s = splitLogT(x, sink);
        float x0 = sf::addT(s.m, 1.0f, sink);
        float y0 = sf::subT(s.m, 1.0f, sink);
        return vectoring(x0, y0, s.k);
    };
}

/** log x = k*ln2 + 2*atanh((m-1)/(m+1)). */
auto
cordicLog(std::shared_ptr<CordicEngine> eng)
{
    return staged(std::move(eng), logPre(),
                  [](int32_t k, const CordicVector& r, auto& sink) {
                      float lm = pimLdexpT(r.z, 1, sink);
                      float kf = sf::fromI32T(k, sink);
                      return sf::addT(lm, sf::mulT(kf, fLn2, sink),
                                      sink);
                  });
}

/** Pre stage of the square-root bodies: x = m * 4^k, then vectoring
 * (m + 1/4, m - 1/4); k is the carry. */
auto
sqrtPre()
{
    return [](float x, auto& sink) {
        SqrtSplit s = splitSqrtT(x, sink);
        float x0 = sf::addT(s.m, 0.25f, sink);
        float y0 = sf::subT(s.m, 0.25f, sink);
        return vectoring(x0, y0, s.k);
    };
}

/** |x| <= 1 test: one bit-mask compare. */
template <class S>
bool
magnitudeBelowOne(float x, S& sink)
{
    sink.charge(3);
    return (floatBits(x) & 0x7fffffffu) < floatBits(1.0f);
}

/**
 * sinh, cosh or tanh on the hyperbolic engine @p eng: direct rotation
 * for |x| < 1, where it converges, and the e^x identities on the
 * engine's e^x body beyond.
 */
template <class Engine>
auto
cordicHyperbolic(std::shared_ptr<Engine> eng, Function f)
{
    auto far = hyperbolicFromExp(cordicExp(eng), f);
    return [eng, far, f](float x, auto& sink) {
        if (magnitudeBelowOne(x, sink)) {
            CordicVector r = eng->rotateT(x, sink);
            if (f == Function::Tanh)
                return sf::divT(r.y, r.x, sink);
            return f == Function::Sinh ? r.y : r.x;
        }
        return far(x, sink);
    };
}

Built
buildCordic(Function f, const MethodSpec& spec)
{
    Built out;
    bool reduce = spec.reduceRange;
    auto eng = std::make_shared<CordicEngine>(
        f == Function::Sin || f == Function::Cos || f == Function::Tan ||
                f == Function::Atan
            ? CordicMode::Circular
            : CordicMode::Hyperbolic,
        spec.iterations, spec.placement);
    bindTables(out, eng);

    switch (f) {
      case Function::Sin:
      case Function::Cos:
      case Function::Tan:
        out.eval = staged(eng, trigPre(reduce), trigPost(f));
        return out;
      case Function::Sinh:
      case Function::Cosh:
      case Function::Tanh:
        out.eval = cordicHyperbolic(eng, f);
        return out;
      case Function::Exp:
        out.eval = cordicExp(eng);
        return out;
      case Function::Log:
        out.eval = cordicLog(eng);
        return out;
      case Function::Sqrt: {
        // sqrt x = 2^k * gain^-1 * x_n with (x_n, _) from vectoring
        // (m + 1/4, m - 1/4).
        float invGain = eng->invGain();
        auto root = staged(
            eng, sqrtPre(),
            [invGain](int32_t k, const CordicVector& r, auto& sink) {
                float v = sf::mulT(r.x, invGain, sink);
                return pimLdexpT(v, k, sink);
            });
        out.eval = [root](float x, auto& sink) {
            if (isZero(x, sink))
                return 0.0f;
            return root(x, sink);
        };
        return out;
      }
      case Function::Sigmoid:
      case Function::Silu:
        out.eval = cordicSigmoid(cordicExp(eng), f == Function::Silu);
        return out;
      case Function::Atan:
        // Circular vectoring: z accumulates atan(y0/x0).
        out.eval = staged(
            eng,
            [](float x, auto&) { return vectoring(1.0f, x); },
            [](NoCarry, const CordicVector& r, auto&) { return r.z; });
        return out;
      case Function::Atanh: {
        // Direct vectoring converges for |x| <= tanh(1.118); the log
        // identity covers |x| >= 0.75.
        auto far = atanhFromLog(cordicLog(eng));
        out.eval = [eng, far](float x, auto& sink) {
            sink.charge(3);
            if ((floatBits(x) & 0x7fffffffu) < floatBits(0.75f))
                return eng->vectorT(1.0f, x, sink).z;
            return far(x, sink);
        };
        return out;
      }
      case Function::Log2:
      case Function::Log10: {
        bool base10 = f == Function::Log10;
        const float log2e = 1.44269504088896340736f;
        const float log10of2 = 0.30102999566398119521f;
        out.eval = staged(
            eng, logPre(),
            [base10, log2e, log10of2](int32_t k, const CordicVector& r,
                                      auto& sink) {
                float lnm = pimLdexpT(r.z, 1, sink);
                float l2m = sf::mulT(lnm, log2e, sink);
                float kf = sf::fromI32T(k, sink);
                float l2 = sf::addT(l2m, kf, sink);
                if (base10)
                    l2 = sf::mulT(l2, log10of2, sink);
                return l2;
            });
        return out;
      }
      case Function::Exp2:
        out.eval = cordicExp2(eng);
        return out;
      case Function::Rsqrt: {
        float invGain = eng->invGain();
        out.eval = staged(
            eng, sqrtPre(),
            [invGain](int32_t k, const CordicVector& r, auto& sink) {
                float sq = sf::mulT(r.x, invGain, sink);
                float inv = sf::divT(1.0f, sq, sink);
                return pimLdexpT(inv, -k, sink);
            });
        return out;
      }
      case Function::Softplus:
        // The exp path, then the log path on the same engine.
        out.eval = softplusFrom(cordicExp(eng), cordicLog(eng));
        return out;
      default:
        break;
    }
    throw std::logic_error("buildCordic: unhandled function");
}

Built
buildCordicFixed(Function f, const MethodSpec& spec)
{
    // Trigonometric ablation: the full fixed-point pipeline of the
    // paper's Figure 3(a), with native integer iterations.
    Built out;
    auto eng = std::make_shared<CordicFixedEngine>(
        CordicMode::Circular, spec.iterations, spec.placement);
    bindTables(out, eng);
    bool reduce = spec.reduceRange;
    out.eval = staged(
        eng,
        [reduce](float x, auto& sink) {
            if (reduce)
                x = reduceTwoPiT(x, sink);
            Fixed v = sf::toFixedT(x, sink);
            v = reduceTwoPiFixedT(v, sink);
            // Quadrant reduction by conditional subtraction.
            sink.charge(4);
            int q = 0;
            int32_t raw = v.raw();
            if (raw >= fixedPi().raw()) {
                raw -= fixedPi().raw();
                q += 2;
            }
            if (raw >= fixedHalfPi().raw()) {
                raw -= fixedHalfPi().raw();
                q += 1;
            }
            return rotating(Fixed::fromRaw(raw), q);
        },
        [f](int q, const CordicFixedVector& r, auto& sink) {
            sink.charge(3); // quadrant select + conditional negate
            Fixed sinV, cosV;
            switch (q) {
              case 0: sinV = r.y; cosV = r.x; break;
              case 1: sinV = r.x; cosV = -r.y; break;
              case 2: sinV = -r.y; cosV = -r.x; break;
              default: sinV = -r.x; cosV = r.y; break;
            }
            if (f == Function::Sin)
                return sf::fromFixedT(sinV, sink);
            if (f == Function::Cos)
                return sf::fromFixedT(cosV, sink);
            float s = sf::fromFixedT(sinV, sink);
            float c = sf::fromFixedT(cosV, sink);
            return sf::divT(s, c, sink);
        });
    return out;
}

Built
buildCordicLut(Function f, const MethodSpec& spec)
{
    Built out;
    if (f == Function::Sin || f == Function::Cos || f == Function::Tan) {
        auto eng = std::make_shared<CordicLutEngine>(
            CordicMode::Circular, spec.iterations, spec.gridBits, 0.0,
            1.5707963267948966, spec.placement);
        bindTables(out, eng);
        out.eval = staged(eng, trigPre(spec.reduceRange), trigPost(f));
        return out;
    }
    // One hyperbolic engine covering [-1.12, 1.12] serves both the
    // direct rotations and the e^r (r in [0, ln2)) extension path.
    auto eng = std::make_shared<CordicLutEngine>(
        CordicMode::Hyperbolic, spec.iterations, spec.gridBits, -1.12,
        1.12, spec.placement);
    bindTables(out, eng);
    switch (f) {
      case Function::Exp:
        out.eval = cordicExp(eng);
        return out;
      case Function::Exp2:
        out.eval = cordicExp2(eng);
        return out;
      case Function::Sigmoid:
      case Function::Silu:
        out.eval = cordicSigmoid(cordicExp(eng), f == Function::Silu);
        return out;
      case Function::Sinh:
      case Function::Cosh:
      case Function::Tanh:
        out.eval = cordicHyperbolic(eng, f);
        return out;
      default:
        break;
    }
    throw std::logic_error("buildCordicLut: unhandled function");
}

// ---------------------------------------------------------------------
// Polynomial baseline builders
// ---------------------------------------------------------------------

/**
 * Fold a split mantissa @p m into [2/3, 4/3), where the 1+u series
 * converge fast: halve it when m >= 4/3. Returns whether it did.
 */
template <class S>
bool
foldMantissa(float& m, S& sink)
{
    sink.charge(3);
    if (!sf::leT(4.0f / 3.0f, m, sink))
        return false;
    m = pimLdexpT(m, -1, sink);
    return true;
}

Built
buildPoly(Function f, const MethodSpec& spec)
{
    Built out; // coefficients are immediates: nothing to attach
    uint32_t deg = spec.polyDegree;
    bool reduce = spec.reduceRange;

    auto expPoly = std::make_shared<Polynomial>(expTaylor(deg));
    const PolyExp expEval{expPoly};

    // Reusable sub-evaluators for the compositional functions.
    auto logPoly = std::make_shared<Polynomial>(log1pTaylor(deg));
    auto logEval = [logPoly](float x, auto& sink) {
        LogSplit s = splitLogT(x, sink);
        float m = s.m;
        int k = s.k + foldMantissa(m, sink);
        float u = sf::subT(m, 1.0f, sink);
        float y = logPoly->evalT(u, sink);
        float kf = sf::fromI32T(k, sink);
        return sf::addT(y, sf::mulT(kf, fLn2, sink), sink);
    };
    auto sqrtPoly = std::make_shared<Polynomial>(sqrt1pSeries(deg));
    auto sqrtEval = [sqrtPoly](float x, auto& sink) {
        if (isZero(x, sink))
            return 0.0f;
        SqrtSplit s = splitSqrtT(x, sink);
        float m = s.m;
        bool scaled = foldMantissa(m, sink);
        float u = sf::subT(m, 1.0f, sink);
        float y = sqrtPoly->evalT(u, sink);
        if (scaled)
            y = sf::mulT(y, 1.41421356237309504880f, sink);
        return pimLdexpT(y, s.k, sink);
    };
    auto atanPoly = std::make_shared<Polynomial>(atanTaylor(deg));
    auto atanEval = [atanPoly](float x, auto& sink) {
        // Octant reduction to |u| <= tan(pi/8) for fast convergence:
        // sign fold, reciprocal fold, then the pi/4 rotation identity.
        const float tanPi8 = 0.41421356237309504880f;
        const float pi4 = 0.78539816339744830962f;
        const float pi2 = 1.57079632679489661923f;
        sink.charge(3);
        uint32_t sign = floatBits(x) >> 31;
        float a = sf::absT(x, sink);
        bool recip = false;
        if (sf::leT(1.0f, a, sink)) {
            a = sf::divT(1.0f, a, sink);
            recip = true;
        }
        bool rotated = false;
        if (sf::leT(tanPi8, a, sink)) {
            a = sf::divT(sf::subT(a, 1.0f, sink),
                        sf::addT(a, 1.0f, sink), sink);
            rotated = true;
        }
        float y = atanPoly->evalT(a, sink);
        if (rotated)
            y = sf::addT(y, pi4, sink);
        if (recip)
            y = sf::subT(pi2, y, sink);
        if (sign)
            y = sf::negT(y, sink);
        return y;
    };

    switch (f) {
      case Function::Sin:
      case Function::Cos:
      case Function::Tan: {
        auto sinP = std::make_shared<Polynomial>(sinTaylor(deg));
        auto cosP = std::make_shared<Polynomial>(cosTaylor(deg));
        auto sinAt = [sinP, cosP](float r, int q, auto& sink) {
            sink.charge(2);
            switch (q & 3) {
              case 0: return sinP->evalT(r, sink);
              case 1: return cosP->evalT(r, sink);
              case 2: return sf::negT(sinP->evalT(r, sink), sink);
              default: return sf::negT(cosP->evalT(r, sink), sink);
            }
        };
        out.eval = [sinAt, f, reduce](float x, auto& sink) {
            if (reduce)
                x = reduceTwoPiT(x, sink);
            QuadrantReduced qr = reduceQuadrantT(x, sink);
            if (f == Function::Sin)
                return sinAt(qr.r, qr.q, sink);
            if (f == Function::Cos)
                return sinAt(qr.r, qr.q + 1, sink);
            float s = sinAt(qr.r, qr.q, sink);
            float c = sinAt(qr.r, qr.q + 1, sink);
            return sf::divT(s, c, sink);
        };
        out.memoryBytes = 2 * (deg + 1) * sizeof(float);
        return out;
      }
      case Function::Exp:
        out.eval = expEval;
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      case Function::Log:
        out.eval = logEval;
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      case Function::Sqrt:
        out.eval = sqrtEval;
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      case Function::Log2:
      case Function::Log10: {
        bool base10 = f == Function::Log10;
        const float log2e = 1.44269504088896340736f;
        const float log10e = 0.43429448190325182765f;
        out.eval = [logEval, base10, log2e, log10e](float x,
                                                    auto& sink) {
            float ln = logEval(x, sink);
            return sf::mulT(ln, base10 ? log10e : log2e, sink);
        };
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      }
      case Function::Exp2:
        out.eval = [expPoly](float x, auto& sink) {
            // 2^x = 2^k * e^(r*ln2), r = x - floor(x).
            int32_t k = sf::toI32FloorT(x, sink);
            float kf = sf::fromI32T(k, sink);
            float r = sf::mulT(sf::subT(x, kf, sink), fLn2, sink);
            float y = expPoly->evalT(r, sink);
            return pimLdexpT(y, k, sink);
        };
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      case Function::Rsqrt: {
        auto rsP = std::make_shared<Polynomial>(rsqrt1pSeries(deg));
        const float invSqrt2 = 0.70710678118654752440f;
        out.eval = [rsP, invSqrt2](float x, auto& sink) {
            SqrtSplit s = splitSqrtT(x, sink);
            float m = s.m;
            bool scaled = foldMantissa(m, sink);
            float u = sf::subT(m, 1.0f, sink);
            float y = rsP->evalT(u, sink);
            if (scaled)
                y = sf::mulT(y, invSqrt2, sink);
            return pimLdexpT(y, -s.k, sink);
        };
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      }
      case Function::Atan:
        out.eval = atanEval;
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      case Function::Asin:
      case Function::Acos: {
        // asin x = atan(x / sqrt(1 - x^2)); acos x = pi/2 - asin x.
        bool acos = f == Function::Acos;
        const float pi2 = 1.57079632679489661923f;
        out.eval = [atanEval, sqrtEval, acos, pi2](float x,
                                                   auto& sink) {
            float x2 = sf::mulT(x, x, sink);
            float den = sqrtEval(sf::subT(1.0f, x2, sink), sink);
            float y = atanEval(sf::divT(x, den, sink), sink);
            if (acos)
                y = sf::subT(pi2, y, sink);
            return y;
        };
        out.memoryBytes = 2 * (deg + 1) * sizeof(float);
        return out;
      }
      case Function::Atanh:
        out.eval = atanhFromLog(logEval);
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      case Function::Softplus:
        out.eval = softplusFrom(expEval, logEval);
        out.memoryBytes = 2 * (deg + 1) * sizeof(float);
        return out;
      case Function::Sigmoid:
      case Function::Silu: {
        // sigmoid x = 1 / (1 + e^-x); silu multiplies by x.
        bool silu = f == Function::Silu;
        out.eval = [expEval, silu](float x, auto& sink) {
            float e = expEval(sf::negT(x, sink), sink);
            float s = sf::divT(1.0f, sf::addT(1.0f, e, sink), sink);
            if (silu)
                s = sf::mulT(x, s, sink);
            return s;
        };
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      }
      case Function::Sinh:
      case Function::Cosh:
      case Function::Tanh:
        out.eval = hyperbolicFromExp(expEval, f);
        out.memoryBytes = (deg + 1) * sizeof(float);
        return out;
      case Function::Cndf:
      case Function::Gelu:
      case Function::Erf: {
        const PolyCndf cndf{expEval,
                            std::make_shared<Polynomial>(cndfTail())};
        auto same = [](float x, auto&) { return x; };
        if (f == Function::Cndf) {
            out.eval = cndfBody(cndf, same,
                                [](float, float c, auto&) { return c; });
        } else if (f == Function::Gelu) {
            out.eval = cndfBody(cndf, same,
                                [](float x, float c, auto& sink) {
                                    return sf::mulT(x, c, sink);
                                });
        } else {
            // erf x = 2 * cndf(x * sqrt(2)) - 1.
            const float sqrt2 = 1.41421356237309504880f;
            out.eval = cndfBody(
                cndf,
                [sqrt2](float x, auto& sink) {
                    return sf::mulT(x, sqrt2, sink);
                },
                [](float, float c, auto& sink) {
                    return sf::subT(pimLdexpT(c, 1, sink), 1.0f, sink);
                });
        }
        out.memoryBytes = (deg + 1 + 6) * sizeof(float);
        return out;
      }
    }
    throw std::logic_error("buildPoly: unhandled function");
}

/** The support matrix (paper Table 2 plus the workload functions). */
bool
supportsImpl(Function f, Method m)
{
    switch (m) {
      case Method::MLut:
      case Method::LLut:
      case Method::DLut:
      case Method::DlLut:
      case Method::Poly:
        return true;
      case Method::LLutFixed:
        // Inputs and outputs must fit Q3.28's [-8, 8) range.
        switch (f) {
          case Function::Sin:
          case Function::Cos:
          case Function::Tan:
          case Function::Exp:
          case Function::Exp2:
          case Function::Tanh:
          case Function::Gelu:
          case Function::Cndf:
          case Function::Atan:
          case Function::Asin:
          case Function::Acos:
          case Function::Atanh:
          case Function::Erf:
          case Function::Silu:
            return true;
          default:
            return false;
        }
      case Method::Cordic:
        switch (f) {
          case Function::Gelu:
          case Function::Cndf:
          case Function::Erf:
          case Function::Asin:
          case Function::Acos:
            return false; // no CORDIC mode computes erf-family values
          default:
            return true;
        }
      case Method::CordicFixed:
        return f == Function::Sin || f == Function::Cos ||
               f == Function::Tan;
      case Method::CordicLut:
        switch (f) {
          case Function::Sin:
          case Function::Cos:
          case Function::Tan:
          case Function::Exp:
          case Function::Exp2:
          case Function::Sinh:
          case Function::Cosh:
          case Function::Tanh:
          case Function::Sigmoid:
          case Function::Silu:
            return true;
          default:
            return false;
        }
    }
    return false;
}

} // namespace

std::string_view
methodName(Method m)
{
    switch (m) {
      case Method::Cordic: return "CORDIC";
      case Method::CordicFixed: return "CORDIC fixed";
      case Method::CordicLut: return "CORDIC+LUT";
      case Method::MLut: return "M-LUT";
      case Method::LLut: return "L-LUT";
      case Method::LLutFixed: return "L-LUT fixed";
      case Method::DLut: return "D-LUT";
      case Method::DlLut: return "DL-LUT";
      case Method::Poly: return "Poly";
    }
    return "?";
}

std::string
methodLabel(const MethodSpec& spec)
{
    std::string label(methodName(spec.method));
    bool isLut = spec.method == Method::MLut ||
                 spec.method == Method::LLut ||
                 spec.method == Method::LLutFixed ||
                 spec.method == Method::DLut ||
                 spec.method == Method::DlLut;
    if (isLut && spec.interpolated)
        label += " interp.";
    if (isLut || spec.method == Method::CordicLut) {
        label += " (";
        label += placementName(spec.placement);
        label += ")";
    }
    return label;
}

UnsupportedCombination::UnsupportedCombination(Function f,
                                               const MethodSpec& spec)
    : std::invalid_argument(std::string(functionName(f)) +
                            " is not supported by " +
                            std::string(methodName(spec.method)))
{
}

bool
FunctionEvaluator::supports(Function f, const MethodSpec& spec)
{
    return supportsImpl(f, spec.method);
}

FunctionEvaluator
FunctionEvaluator::create(Function f, const MethodSpec& spec)
{
    if (!supportsImpl(f, spec.method))
        throw UnsupportedCombination(f, spec);

    // Table-generation phase span (obs layer): the harness's setup
    // figure and a Perfetto view of the same phase agree by design.
    obs::TraceSpan span("table-gen " + methodLabel(spec), "host");
    auto start = std::chrono::steady_clock::now();
    Built built;
    switch (spec.method) {
      case Method::MLut:
      case Method::LLut:
      case Method::LLutFixed:
      case Method::DLut:
      case Method::DlLut:
        built = buildTableMethod(f, spec);
        break;
      case Method::Cordic:
        built = buildCordic(f, spec);
        break;
      case Method::CordicFixed:
        built = buildCordicFixed(f, spec);
        break;
      case Method::CordicLut:
        built = buildCordicLut(f, spec);
        break;
      case Method::Poly:
        built = buildPoly(f, spec);
        break;
    }
    auto end = std::chrono::steady_clock::now();

    FunctionEvaluator out;
    out.fn_ = f;
    out.spec_ = spec;
    out.eval_ = std::move(built.eval.scalar);
    out.evalBatch_ = std::move(built.eval.batch);
    out.attach_ = std::move(built.attach);
    out.memoryBytes_ = built.memoryBytes;
    out.setupSeconds_ =
        std::chrono::duration<double>(end - start).count();
    return out;
}

} // namespace transpim
} // namespace tpl
