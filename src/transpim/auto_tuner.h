/**
 * @file
 * The concrete online per-tenant auto-tuner: the serve-layer
 * AutoTuner seam (pimsim/serve/auto_tuner.h) backed by the transpim
 * catalog and the static tuner's candidate search.
 *
 * Per (tenant, requested-table) stream the tuner
 *
 *  1. generates candidate configurations with recommendSpec() against
 *     the stream's SLA accuracy target (or the requested config's own
 *     measured RMSE when the SLA has no accuracy clause — a candidate
 *     is never allowed to be *less* accurate than what was asked),
 *     validates each with a full create+attach probe on a scratch
 *     system, and registers the survivors into the EvaluatorCatalog;
 *  2. explores each candidate for a fixed element budget, measuring
 *     exact differential error (stride-sampled against the double
 *     reference) and modeled cycles per element on live waves;
 *  3. commits to the cheapest candidate whose *observed* behavior
 *     meets every SLA clause, and keeps monitoring: a committed
 *     candidate that later violates an accuracy clause is abandoned
 *     (an "sla-miss" decision) and the stream re-commits.
 *
 * MRAM-budget arbitration: with a nonzero budget the tuner accounts
 * the per-DPU footprint of every table it currently routes to; when
 * activating a table would overflow the budget it evicts — via
 * TableCache::evict, so holding ranks re-broadcast on next use — the
 * least-recently-routed tables no stream is currently using. A table
 * that still cannot fit is skipped ("budget" decision) and the stream
 * falls back to the requested configuration.
 *
 * Everything is a pure function of route()/observe() inputs, which
 * the serve drivers supply in wave order from the consumer thread —
 * tuned runs are bit-identical at any TPL_SIM_THREADS (locked by
 * test). Decisions land in decisions(), `tune` journal events, and
 * the `tuner/ *` counter family.
 */

#ifndef TPL_TRANSPIM_AUTO_TUNER_H
#define TPL_TRANSPIM_AUTO_TUNER_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pimsim/serve/auto_tuner.h"
#include "transpim/serve_glue.h"
#include "transpim/tuner.h"

namespace tpl {
namespace transpim {

/**
 * The nearest-rank percentile of a growing series: after n pushes,
 * value() is the r-th smallest value, r = ceil(p / 100 * n) clamped to
 * [1, n], exactly what sorting the series and reading element r - 1
 * gives. Kept incrementally in two heaps, a max-heap of the r smallest
 * values and a min-heap of the rest; r grows by at most one per push,
 * so a push costs O(log n) and a read O(1).
 */
class NearestRank
{
  public:
    explicit NearestRank(double percentile = 0.0) : p_(percentile) {}

    void push(double x);

    /** The current rank-r value; 0 while empty. */
    double value() const { return low_.empty() ? 0.0 : low_.front(); }

    size_t size() const { return low_.size() + high_.size(); }

  private:
    double p_;
    std::vector<double> low_;  ///< max-heap: the r smallest values
    std::vector<double> high_; ///< min-heap: the rest
};

/** Knobs of the online tuner. */
struct AutoTunerOptions
{
    /** Elements each candidate is explored for before the stream may
     * commit (one epoch; small = fast commit, large = tighter
     * observed statistics). */
    uint64_t exploreElements = 2048;

    /** Candidates per stream, including the requested configuration
     * (always candidate 0). */
    uint32_t maxCandidates = 3;

    /** Per-DPU byte budget across every table the tuner actively
     * routes to; 0 = unlimited. Exceeding it triggers eviction of
     * least-recently-routed idle tables (see file comment). */
    uint64_t mramBudgetBytes = 0;

    /** SLA applied to tenants without an explicit setTenantSla();
     * default-constructed (unconstrained) = those tenants pass
     * through untuned. */
    sim::serve::TenantSla defaultSla;
};

/** Snapshot of one stream's state (CLI reporting). */
struct StreamReport
{
    uint64_t tenant = 0;
    std::string requested; ///< requested table label
    std::string chosen;    ///< currently routed table label
    std::string sla;       ///< canonical SLA text ("" = untunable)
    bool tunable = false;
    bool committed = false;
    uint64_t elements = 0;      ///< observed on the chosen candidate
    double cyclesPerElement = 0.0; ///< observed, chosen candidate
    double rmse = 0.0;          ///< observed, chosen candidate
    double maxUlp = 0.0;        ///< observed, chosen candidate
    bool slaViolated = false;   ///< chosen candidate violates a clause
    uint64_t switches = 0;      ///< times the stream's route changed
};

/**
 * The online tuner. Construct one per pipeline run (it is stateful),
 * over a catalog that outlives it; wire it up via
 * PipelineOptions::autoTuner. The catalog gains the candidate
 * configurations the tuner generates (EvaluatorCatalog::add).
 */
class OnlineAutoTuner final : public sim::serve::AutoTuner
{
  public:
    explicit OnlineAutoTuner(EvaluatorCatalog& catalog,
                             const AutoTunerOptions& options = {});
    ~OnlineAutoTuner() override;

    /** Register @p tenant's SLA (overrides the default SLA). */
    void setTenantSla(uint64_t tenant,
                      const sim::serve::TenantSla& sla);

    /** SLA governing @p tenant (explicit or default). */
    sim::serve::TenantSla tenantSla(uint64_t tenant) const;

    Routing route(const sim::serve::TableKey& requested,
                  uint64_t tenant) override;
    void observe(const sim::serve::WaveOutcome& outcome) override;
    void bindCache(sim::serve::TableCache* cache) override;
    std::vector<sim::serve::TuneDecision> decisions() const override;

    /** One report per stream, in (tenant, requested-hash) order. */
    std::vector<StreamReport> streamReports() const;

    const AutoTunerOptions& options() const { return opts_; }

  private:
    /** One candidate configuration and what has been observed of it. */
    struct Candidate
    {
        sim::serve::TableKey key;
        Function function = Function::Sin;
        MethodSpec spec;
        uint32_t tableBytes = 0; ///< per-DPU footprint (probed)
        bool relativeError = false;

        // Observed, cumulative over this stream's waves.
        uint64_t elements = 0;
        uint64_t totalCycles = 0;
        TunerError error; ///< stride-sampled, see observe()
        /** Per-wave cycles/element at the stream's cycles
         * percentile; fed only under a percentile cycles clause. */
        NearestRank waveCycles;
        bool violated = false; ///< failed an SLA clause; excluded

        double cyclesPerElement() const;
    };

    /** One (tenant, requested-table) stream. */
    struct Stream
    {
        uint64_t tenant = 0;
        sim::serve::TableKey requested;
        sim::serve::TenantSla sla;
        /** Accuracy bound in force when the SLA has no rmse clause:
         * a slack multiple of the requested config's own measured
         * RMSE (candidates must never be worse than asked). 0 when
         * the SLA carries an explicit rmse clause. */
        double implicitRmse = 0.0;
        bool tunable = false;
        std::vector<Candidate> candidates; ///< [0] = requested
        size_t active = 0;     ///< candidate route() currently picks
        bool committed = false;
        uint64_t lastRoutedHash = 0;
        std::string lastReason; ///< reason of the pending switch
        uint64_t switches = 0;
    };

    using StreamKey = std::pair<uint64_t, uint64_t>; ///< (tenant, hash)

    Stream& streamFor(const sim::serve::TableKey& requested,
                      uint64_t tenant);
    void buildCandidates(Stream& s);
    /** Probe (create + attach) @p spec; per-DPU bytes, or nullopt. */
    std::optional<uint32_t> probeSpec(Function f,
                                      const MethodSpec& spec);
    /** Observed cycles/element of @p c under the stream's cycles
     * clause (mean, or the SLA percentile). */
    double cyclesScore(const Stream& s, const Candidate& c) const;
    /** Re-check @p c against every SLA clause; marks violated. */
    void checkSla(Stream& s, Candidate& c);
    /** Pick and commit the best non-violated explored candidate. */
    void commit(Stream& s, const char* reason);
    void recordDecision(const Stream& s, const std::string& from,
                        const std::string& to, const char* reason);
    /** MRAM arbitration: account (and if needed make room for)
     * @p c's table; false when it cannot fit. */
    bool activate(const StreamKey& sk, const Candidate& c);

    EvaluatorCatalog& catalog_;
    AutoTunerOptions opts_;
    sim::serve::TableCache* cache_ = nullptr;
    std::map<uint64_t, sim::serve::TenantSla> tenantSlas_;
    std::map<StreamKey, Stream> streams_;
    /** (tenant, executed-table hash) -> owning stream, for observe()
     * dispatch. First registration wins. */
    std::map<StreamKey, StreamKey> aliases_;
    /** Tables the tuner currently routes to: hash -> (bytes,
     * last-routed sequence, key). */
    struct ActiveTable
    {
        sim::serve::TableKey key;
        uint64_t bytes = 0;
        uint64_t lastUsed = 0;
    };
    std::map<uint64_t, ActiveTable> active_;
    uint64_t activeBytes_ = 0;
    uint64_t routeSeq_ = 0;
    uint64_t decisionSeq_ = 0;
    std::vector<sim::serve::TuneDecision> decisions_;
    /** Scratch system candidate probes attach to (never simulated). */
    std::unique_ptr<sim::PimSystem> probeSys_;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_AUTO_TUNER_H
