/**
 * @file
 * OnlineAutoTuner implementation. All mutation happens in route() /
 * observe(), which the serve drivers call in wave order from the
 * consumer thread — every decision is a pure function of the modeled
 * workload, so tuned runs stay bit-identical at any TPL_SIM_THREADS.
 */

#include "transpim/auto_tuner.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error_metrics.h"
#include "common/rng.h"
#include "pimsim/obs/metrics.h"
#include "transpim/reference.h"

namespace tpl {
namespace transpim {

namespace {

/** Candidate-search input seed, shared with the static tuner so the
 * two agree about offline accuracy. */
constexpr uint64_t kSampleSeed = 0x7a11e5;

/** Slack on the implicit accuracy bound used when a tenant's SLA has
 * no rmse clause: the bound is 2x the requested configuration's own
 * measured RMSE, loose enough that sampling noise between the offline
 * probe and live waves cannot thrash the stream, tight enough to
 * catch a genuinely worse candidate. */
constexpr double kImplicitRmseSlack = 2.0;

/** Max differential-error samples taken per observed wave
 * (stride-sampled across the wave's healthy spans). */
constexpr uint32_t kSampleCap = 256;

/** Per-table byte cap handed to recommendSpec when generating
 * candidates. */
constexpr uint32_t kMaxTableBytes = 48 * 1024;

/** Sample size for the candidate search and for measuring the
 * requested config's baseline RMSE. */
constexpr uint32_t kSearchSamples = 1024;

void
bump(const char* name, uint64_t n = 1)
{
    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled())
        reg.counter(name).add(n);
}

} // namespace

void
NearestRank::push(double x)
{
    if (!low_.empty() && x < low_.front()) {
        low_.push_back(x);
        std::push_heap(low_.begin(), low_.end());
    } else {
        high_.push_back(x);
        std::push_heap(high_.begin(), high_.end(), std::greater<>());
    }
    // Every low value is <= every high value; move boundary values
    // across until low holds exactly the r smallest.
    const size_t n = size();
    const uint64_t r = std::min<uint64_t>(
        std::max<uint64_t>(
            static_cast<uint64_t>(std::ceil(
                p_ / 100.0 * static_cast<double>(n))),
            1),
        n);
    while (low_.size() > r) {
        std::pop_heap(low_.begin(), low_.end());
        high_.push_back(low_.back());
        low_.pop_back();
        std::push_heap(high_.begin(), high_.end(), std::greater<>());
    }
    while (low_.size() < r) {
        std::pop_heap(high_.begin(), high_.end(), std::greater<>());
        low_.push_back(high_.back());
        high_.pop_back();
        std::push_heap(low_.begin(), low_.end());
    }
}

double
OnlineAutoTuner::Candidate::cyclesPerElement() const
{
    return elements > 0 ? static_cast<double>(totalCycles) /
                              static_cast<double>(elements)
                        : 0.0;
}

double
OnlineAutoTuner::Candidate::rmse() const
{
    return errorSamples > 0
               ? std::sqrt(sumSqError /
                           static_cast<double>(errorSamples))
               : 0.0;
}

OnlineAutoTuner::OnlineAutoTuner(EvaluatorCatalog& catalog,
                                 const AutoTunerOptions& options)
    : catalog_(catalog), opts_(options)
{
    if (opts_.maxCandidates == 0)
        opts_.maxCandidates = 1;
    if (opts_.exploreElements == 0)
        opts_.exploreElements = 1;
}

OnlineAutoTuner::~OnlineAutoTuner() = default;

void
OnlineAutoTuner::setTenantSla(uint64_t tenant,
                              const sim::serve::TenantSla& sla)
{
    tenantSlas_[tenant] = sla;
}

sim::serve::TenantSla
OnlineAutoTuner::tenantSla(uint64_t tenant) const
{
    auto it = tenantSlas_.find(tenant);
    return it != tenantSlas_.end() ? it->second : opts_.defaultSla;
}

void
OnlineAutoTuner::bindCache(sim::serve::TableCache* cache)
{
    cache_ = cache;
}

std::vector<sim::serve::TuneDecision>
OnlineAutoTuner::decisions() const
{
    return decisions_;
}

std::optional<uint32_t>
OnlineAutoTuner::probeSpec(Function f, const MethodSpec& spec)
{
    // A full create + attach dry run on a scratch core: a candidate
    // whose tables cannot be generated or staged must never be routed
    // to, or the pipeline would drop the rerouted requests.
    try {
        if (!probeSys_)
            probeSys_ = std::make_unique<sim::PimSystem>(1);
        FunctionEvaluator ev = FunctionEvaluator::create(f, spec);
        ev.attach(probeSys_->dpu(0));
        return ev.memoryBytes();
    } catch (const std::exception&) {
        // Scratch MRAM is a bump arena; a failed attach may mean the
        // arena filled up across many probes — retire it so the next
        // probe starts fresh, and treat this candidate as infeasible.
        probeSys_.reset();
        return std::nullopt;
    }
}

void
OnlineAutoTuner::buildCandidates(Stream& s)
{
    auto entry = catalog_.find(s.requested.hash);
    if (!entry)
        return; // unknown key: pass through untuned

    Candidate base;
    base.key = s.requested;
    base.waveCycles = NearestRank(s.sla.cyclesPercentile);
    base.function = entry->first;
    base.spec = entry->second;
    base.relativeError =
        resolveMetric(base.function) == ErrorMetric::Relative;
    auto baseBytes = probeSpec(base.function, base.spec);
    if (!baseBytes)
        return; // infeasible as requested: the pipeline drops it
    base.tableBytes = *baseBytes;

    // Accuracy target the candidates must meet: the SLA's rmse
    // clause, or (with none) the requested configuration's own
    // measured RMSE — a candidate is never allowed to be less
    // accurate than what the tenant asked for.
    double target = s.sla.maxRmse;
    if (target <= 0.0) {
        Domain dom = functionDomain(base.function);
        auto inputs = uniformFloats(
            kSearchSamples, static_cast<float>(dom.lo),
            static_cast<float>(dom.hi), kSampleSeed);
        try {
            FunctionEvaluator ev =
                FunctionEvaluator::create(base.function, base.spec);
            double sumSq = 0.0;
            for (float x : inputs) {
                double ref = referenceValue(
                    base.function, static_cast<double>(x));
                double err =
                    std::abs(ev.eval(x, nullptr) - ref);
                if (base.relativeError)
                    err /= std::max(1.0, std::abs(ref));
                sumSq += err * err;
            }
            target = std::sqrt(sumSq / static_cast<double>(
                                           inputs.size()));
        } catch (const std::exception&) {
            return;
        }
        s.implicitRmse = target * kImplicitRmseSlack;
        if (target <= 0.0)
            target = 1e-12; // exact config: only equals can compete
    }

    s.candidates.push_back(base);

    TunerConstraints tc;
    tc.metric = ErrorMetric::Auto;
    tc.placement = base.spec.placement;
    tc.maxTableBytes = kMaxTableBytes;
    tc.sampleSize = kSearchSamples;
    auto rec = recommendSpec(base.function, target, tc);
    if (rec) {
        for (const TunedCandidate& tcand : rec->candidates) {
            if (s.candidates.size() >= opts_.maxCandidates)
                break;
            sim::serve::TableKey key =
                batchTableKey(base.function, tcand.spec);
            bool dup = false;
            for (const Candidate& c : s.candidates)
                dup = dup || c.key.hash == key.hash;
            if (dup)
                continue;
            auto bytes = probeSpec(base.function, tcand.spec);
            if (!bytes)
                continue;
            catalog_.add(base.function, tcand.spec);
            Candidate c;
            c.key = key;
            c.function = base.function;
            c.spec = tcand.spec;
            c.tableBytes = *bytes;
            c.relativeError = base.relativeError;
            c.waveCycles = base.waveCycles;
            s.candidates.push_back(c);
        }
    }
    s.tunable = true;
    bump("tuner/streams");
    bump("tuner/candidates", s.candidates.size());
}

OnlineAutoTuner::Stream&
OnlineAutoTuner::streamFor(const sim::serve::TableKey& requested,
                           uint64_t tenant)
{
    const StreamKey sk{tenant, requested.hash};
    auto it = streams_.find(sk);
    if (it != streams_.end())
        return it->second;

    Stream& s = streams_[sk];
    s.tenant = tenant;
    s.requested = requested;
    s.sla = tenantSla(tenant);
    s.lastRoutedHash = requested.hash;
    if (s.sla.constrained())
        buildCandidates(s);
    // Every candidate answers observe() for this stream (first
    // registration wins on alias collisions across streams).
    for (const Candidate& c : s.candidates)
        aliases_.emplace(StreamKey{tenant, c.key.hash}, sk);
    return s;
}

double
OnlineAutoTuner::cyclesScore(const Stream& s,
                             const Candidate& c) const
{
    if (s.sla.cyclesPercentile > 0.0 && c.waveCycles.size() > 0)
        return c.waveCycles.value();
    return c.cyclesPerElement();
}

void
OnlineAutoTuner::checkSla(Stream& s, Candidate& c)
{
    if (c.violated)
        return;
    bool bad = false;
    const double rmseBound =
        s.sla.maxRmse > 0.0 ? s.sla.maxRmse : s.implicitRmse;
    if (rmseBound > 0.0 && c.errorSamples > 0 &&
        c.rmse() > rmseBound)
        bad = true;
    if (s.sla.maxUlp > 0.0 && c.errorSamples > 0 &&
        c.maxUlp > s.sla.maxUlp)
        bad = true;
    if (s.sla.maxCyclesPerElement > 0.0 && c.elements > 0 &&
        cyclesScore(s, c) > s.sla.maxCyclesPerElement)
        bad = true;
    if (bad) {
        c.violated = true;
        bump("tuner/sla_violations");
    }
}

void
OnlineAutoTuner::recordDecision(const Stream& s,
                                const std::string& from,
                                const std::string& to,
                                const char* reason)
{
    sim::serve::TuneDecision d;
    d.sequence = decisionSeq_++;
    d.tenant = s.tenant;
    d.stream = s.requested.label;
    d.fromTable = from;
    d.toTable = to;
    d.reason = reason;
    decisions_.push_back(std::move(d));
    bump("tuner/decisions");
}

void
OnlineAutoTuner::commit(Stream& s, const char* reason)
{
    size_t best = 0;
    double bestScore = 0.0;
    bool have = false;
    for (size_t i = 0; i < s.candidates.size(); ++i) {
        const Candidate& c = s.candidates[i];
        if (c.violated || c.elements == 0)
            continue;
        double score = c.cyclesPerElement();
        if (!have || score < bestScore) {
            best = i;
            bestScore = score;
            have = true;
        }
    }
    // Nothing qualifies: run what the tenant asked for.
    const std::string from = s.candidates[s.active].key.label;
    s.active = have ? best : 0;
    s.committed = true;
    s.lastReason = reason;
    recordDecision(s, from, s.candidates[s.active].key.label,
                   reason);
}

bool
OnlineAutoTuner::activate(const StreamKey& sk, const Candidate& c)
{
    (void)sk;
    auto it = active_.find(c.key.hash);
    if (it != active_.end()) {
        it->second.lastUsed = routeSeq_;
        return true;
    }
    const uint64_t bytes = c.tableBytes;
    if (opts_.mramBudgetBytes > 0) {
        while (activeBytes_ + bytes > opts_.mramBudgetBytes &&
               !active_.empty()) {
            // Evict the least-recently-routed table no stream is
            // currently pointing at; re-use pays a fresh broadcast.
            std::map<uint64_t, ActiveTable>::iterator lru =
                active_.end();
            for (auto at = active_.begin(); at != active_.end();
                 ++at) {
                bool inUse = false;
                for (const auto& [key, st] : streams_)
                    if (st.tunable &&
                        st.candidates[st.active].key.hash ==
                            at->first)
                        inUse = true;
                if (inUse)
                    continue;
                if (lru == active_.end() ||
                    at->second.lastUsed < lru->second.lastUsed)
                    lru = at;
            }
            if (lru == active_.end())
                break; // everything left is in use
            activeBytes_ -= lru->second.bytes;
            if (cache_)
                cache_->evict(lru->second.key);
            bump("tuner/evictions");
            sim::serve::TuneDecision d;
            d.sequence = decisionSeq_++;
            d.tenant = sk.first;
            d.fromTable = lru->second.key.label;
            d.reason = "evict";
            decisions_.push_back(std::move(d));
            bump("tuner/decisions");
            active_.erase(lru);
        }
        if (activeBytes_ + bytes > opts_.mramBudgetBytes)
            return false;
    }
    active_[c.key.hash] = ActiveTable{c.key, bytes, routeSeq_};
    activeBytes_ += bytes;
    return true;
}

sim::serve::AutoTuner::Routing
OnlineAutoTuner::route(const sim::serve::TableKey& requested,
                       uint64_t tenant)
{
    ++routeSeq_;
    Stream& s = streamFor(requested, tenant);
    if (!s.tunable)
        return {requested, false, {}};

    Candidate* c = &s.candidates[s.active];
    if (s.active != 0 && !activate({tenant, requested.hash}, *c)) {
        // The candidate's table cannot fit the MRAM budget even
        // after evicting idle tables: exclude it and fall back.
        c->violated = true;
        recordDecision(s, c->key.label, s.requested.label, "budget");
        if (s.committed)
            commit(s, "budget");
        else
            s.active = 0;
        c = &s.candidates[s.active];
    }
    if (s.active == 0)
        activate({tenant, requested.hash}, *c); // best effort
    const bool switched = c->key.hash != s.lastRoutedHash;
    Routing out;
    out.table = c->key;
    out.switched = switched;
    if (switched) {
        ++s.switches;
        bump("tuner/switches");
        out.note = (s.lastReason.empty() ? std::string("route")
                                         : s.lastReason) +
                   " (requested " + s.requested.label.str() + ")";
    }
    s.lastRoutedHash = c->key.hash;
    return out;
}

void
OnlineAutoTuner::observe(const sim::serve::WaveOutcome& outcome)
{
    auto al = aliases_.find(
        StreamKey{outcome.tenant, outcome.table.hash});
    if (al == aliases_.end())
        return;
    auto st = streams_.find(al->second);
    if (st == streams_.end() || !st->second.tunable)
        return;
    Stream& s = st->second;
    Candidate* c = nullptr;
    size_t ci = 0;
    for (size_t i = 0; i < s.candidates.size(); ++i)
        if (s.candidates[i].key.hash == outcome.table.hash) {
            c = &s.candidates[i];
            ci = i;
            break;
        }
    if (!c || outcome.elements == 0)
        return;

    c->elements += outcome.elements;
    c->totalCycles += outcome.totalCycles;
    if (s.sla.cyclesPercentile > 0.0)
        c->waveCycles.push(static_cast<double>(outcome.totalCycles) /
                           static_cast<double>(outcome.elements));

    // Exact differential error, stride-sampled over the wave's
    // healthy gathered ranges against the double-precision reference.
    uint64_t spanTotal = 0;
    for (const auto& sp : outcome.spans)
        spanTotal += sp.elements;
    if (spanTotal > 0) {
        const uint64_t stride =
            std::max<uint64_t>(1, spanTotal / kSampleCap);
        uint64_t idx = 0;
        uint32_t taken = 0;
        for (const auto& sp : outcome.spans) {
            for (uint64_t i = 0; i < sp.elements; ++i, ++idx) {
                if (idx % stride != 0 || taken >= kSampleCap)
                    continue;
                ++taken;
                const float in = sp.input[i];
                const float outV = sp.output[i];
                const double ref = referenceValue(
                    c->function, static_cast<double>(in));
                double err =
                    std::abs(static_cast<double>(outV) - ref);
                if (c->relativeError)
                    err /= std::max(1.0, std::abs(ref));
                c->sumSqError += err * err;
                ++c->errorSamples;
                c->maxUlp = std::max(
                    c->maxUlp,
                    ulpDistance(outV, static_cast<float>(ref)));
            }
        }
    }

    checkSla(s, *c);

    if (!s.committed && ci == s.active) {
        if (c->violated || c->elements >= opts_.exploreElements) {
            // Epoch over (or the candidate just disqualified):
            // explore the next candidate, or commit.
            size_t next = s.active + 1;
            while (next < s.candidates.size() &&
                   s.candidates[next].violated)
                ++next;
            if (next < s.candidates.size()) {
                const std::string from = c->key.label;
                s.active = next;
                s.lastReason = "explore";
                recordDecision(s, from,
                               s.candidates[next].key.label,
                               "explore");
            } else {
                commit(s, "commit");
            }
        }
    } else if (s.committed && ci == s.active && c->violated) {
        // The stream's committed choice stopped meeting its SLA on
        // live data: abandon it and re-commit.
        commit(s, "sla-miss");
    }
}

std::vector<StreamReport>
OnlineAutoTuner::streamReports() const
{
    std::vector<StreamReport> out;
    out.reserve(streams_.size());
    for (const auto& [key, s] : streams_) {
        StreamReport r;
        r.tenant = s.tenant;
        r.requested = s.requested.label;
        r.tunable = s.tunable;
        r.committed = s.committed;
        r.switches = s.switches;
        if (s.tunable) {
            const Candidate& c = s.candidates[s.active];
            r.chosen = c.key.label;
            r.sla = s.sla.toText();
            r.elements = c.elements;
            r.cyclesPerElement = c.cyclesPerElement();
            r.rmse = c.rmse();
            r.maxUlp = c.maxUlp;
            r.slaViolated = c.violated;
        } else {
            r.chosen = s.requested.label;
        }
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace transpim
} // namespace tpl
