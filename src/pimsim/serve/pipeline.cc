/**
 * @file
 * ServePipeline implementation.
 *
 * One drive loop serves both the flat system and a multi-rank fleet.
 * At run start the DPUs are cut into lane groups, one per transfer
 * lane of the timeline: one group over the whole system (flat), or
 * one group per rank (PipelineOptions::topology). Each
 * wave is placed on one group and runs a two-deep software pipeline
 * there: beginning a wave on a group first finishes (gathers) the
 * group's previous wave, then launches — so while wave N computes on
 * the DPU lanes, the transfer lane already streams wave N+1's
 * scatter, and wave N's gather queues up behind it. On a single
 * group the leg order is begin 0, compute 0, begin 1, finish 0,
 * compute 1, ..., which is why a Topology{1, 1, N} fleet reproduces
 * the flat modeled numbers exactly while N <= CostModel::dpusPerRank
 * (a larger flat lane engages N / dpusPerRank model ranks in its
 * broadcasts, a rank lane always one).
 *
 * The host overlaps the DPUs in wall time too: a wave's kernels are
 * built and run on the simulation pool in the background while
 * this thread finishes the group's previous wave and pops, routes and
 * begins the next one; the wave is committed (failure sweep, DPU-lane
 * reservations, compute accounting) before the next submit, so
 * commits land in wave order and at most one wave is outstanding.
 * The commit also comes first wherever the host would read what it
 * writes or touch memory the kernels read: placement across several
 * lane groups (rank makespans), a table-cache miss (the provider
 * writes every core), an infeasible wave (its drop is stamped with
 * the last leg's end), and — since masks and per-DPU fault draws
 * must keep their order — after every submit while a fault plan is
 * armed. Transfer legs and all bookkeeping run on this thread
 * against modeled times, and each lane sees its reservations in the
 * serial order, so results and journal bytes are identical at any
 * TPL_SIM_THREADS; with one thread the kernels run inside the commit.
 */

#include "pimsim/serve/pipeline.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "pimsim/obs/journal.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"
#include "pimsim/serve/auto_tuner.h"

namespace tpl {
namespace sim {
namespace serve {

namespace {

/** A wave waiting to execute: fresh from the queue (generation 0) or
 * re-queued after failures. */
struct PendingWave
{
    Wave wave;
    uint32_t generation = 0;
    /** Set when the auto-tuner rerouted this wave to another table;
     * stamped as a `tune` journal event at scatter start. */
    std::string tuneNote;
};

/** One request's share of a wave (journal/flow bookkeeping). */
struct WaveReq
{
    uint64_t id = 0;
    uint64_t elements = 0; ///< this request's elements in the wave
    bool last = false;     ///< wave carries the request's tail
};

/** What one request's span accounting needs beyond the fields of
 * its latency record. */
struct ReqTrack
{
    uint64_t elementsDone = 0; ///< healthy gathered elements
    /** Last ReqBook::collect pass that visited the request (0 =
     * never: the slot is a gap), and its share's index there. */
    uint64_t pass = 0;
    uint32_t share = 0;
    bool sawLast = false; ///< a wave carried the request's tail
};

/**
 * Per-request span accounting, kept in the journal's own record
 * type: the latency record of request `id` lives at `id - firstId` of
 * a dense vector (O(1) lookup, no per-request allocation) and is
 * filled in place wave by wave; its bookkeeping extras sit in a
 * parallel vector. Queue ids are monotone, so the records are
 * already in id order when the run finishes and hand over to the
 * journal without a copy. Ids that never reach a wave (zero-element
 * requests) leave gaps, dropped at finish().
 *
 * While the run is open, a record's `elements` counts the
 * generation-0 elements issued, `firstScatterSeconds` is negative
 * until the first scatter, and `queueWaitSeconds`/`stallSeconds`
 * are unset.
 */
class ReqBook
{
  public:
    /** One request's record and bookkeeping. */
    struct Entry
    {
        obs::RequestLatency& lat;
        ReqTrack& track;
    };

    void
    reserve(size_t requests)
    {
        lats_.reserve(requests);
        tracks_.reserve(requests);
    }

    /** The entry of a request some collect() already visited. */
    Entry
    at(uint64_t id)
    {
        const uint64_t i = id - firstId_;
        return {lats_[i], tracks_[i]};
    }

    /**
     * Collapse @p w's items into per-request shares, in order of
     * first appearance, opening the records of requests seen for the
     * first time (labeled with @p w's table). Items of one request
     * need not be adjacent: a per-request pass stamp dedupes them.
     * @p itemReq, when given, receives each item's share index.
     */
    std::vector<WaveReq>
    collect(const Wave& w, std::vector<uint32_t>* itemReq = nullptr)
    {
        ++pass_;
        std::vector<WaveReq> reqs;
        if (itemReq)
            itemReq->clear();
        for (const WaveItem& it : w.items) {
            auto [lat, track] = slot(it.requestId);
            if (track.pass == 0) {
                lat.request = it.requestId;
                lat.table = w.table.label.view();
                lat.arrivalSeconds = it.arrivalSeconds;
                lat.firstScatterSeconds = -1.0;
            }
            if (track.pass != pass_) {
                track.pass = pass_;
                track.share = static_cast<uint32_t>(reqs.size());
                reqs.push_back({it.requestId, 0, false});
            }
            WaveReq& r = reqs[track.share];
            r.elements += it.elements;
            r.last = r.last || it.last;
            if (itemReq)
                itemReq->push_back(track.share);
        }
        return reqs;
    }

    /**
     * Close every record — queue wait and the stall residual —
     * drop the gaps, and hand the records over in request-id order.
     * Decomposition identity (complete requests):
     *   latency = queueWait + transfer + compute + stall
     * holds exactly because stall is defined as the residual; it goes
     * negative when a multi-wave request's legs overlap in the
     * double-buffered schedule (legs then sum past the span).
     */
    std::vector<obs::RequestLatency>
    finish()
    {
        size_t kept = 0;
        for (size_t i = 0; i < lats_.size(); ++i) {
            if (tracks_[i].pass == 0)
                continue;
            obs::RequestLatency& lat = lats_[i];
            if (lat.firstScatterSeconds < 0.0)
                lat.firstScatterSeconds = lat.arrivalSeconds;
            lat.queueWaitSeconds =
                lat.firstScatterSeconds - lat.arrivalSeconds;
            lat.stallSeconds =
                lat.complete
                    ? (lat.completedSeconds - lat.arrivalSeconds) -
                          lat.queueWaitSeconds - lat.transferSeconds -
                          lat.computeSeconds
                    : 0.0;
            if (kept != i)
                lats_[kept] = lat;
            ++kept;
        }
        lats_.resize(kept);
        return std::move(lats_);
    }

  private:
    Entry
    slot(uint64_t id)
    {
        if (lats_.empty()) {
            firstId_ = id;
        } else if (id < firstId_) {
            // Rebase: a lower id than any seen so far.
            lats_.insert(lats_.begin(), firstId_ - id,
                         obs::RequestLatency{});
            tracks_.insert(tracks_.begin(), firstId_ - id, ReqTrack{});
            firstId_ = id;
        }
        const uint64_t i = id - firstId_;
        if (i >= lats_.size()) {
            lats_.resize(i + 1);
            tracks_.resize(i + 1);
        }
        return {lats_[i], tracks_[i]};
    }

    std::vector<obs::RequestLatency> lats_;
    std::vector<ReqTrack> tracks_;
    uint64_t firstId_ = 0;
    uint64_t pass_ = 0;
};

/** Everything one in-flight wave carries between its begin (scatter)
 * and finish (gather + distribute) steps. */
struct WaveExec
{
    Wave wave;
    uint32_t generation = 0;
    uint32_t parity = 0;
    uint64_t waveIndex = 0; ///< execution-order wave number
    const TableBinding* binding = nullptr;
    std::vector<float> stagingIn;  ///< packed item inputs
    std::vector<ShardTask> slices; ///< one per participating DPU
    std::vector<uint64_t> itemStart; ///< wave-relative item offsets
    std::vector<WaveReq> reqs; ///< unique requests, item order
    std::vector<uint32_t> itemReq; ///< item -> index into reqs
    WaveStats stats;
    PipelineEvent scatterEv;
    double computeReady = 0.0; ///< the kernels' lane readiness
    PipelineEvent computeEv;
};

/**
 * A placement target: a contiguous DPU range and the transfer lane
 * its legs ride. Groups use disjoint DPUs, so buffer-reuse fences
 * (parity = the group's wave count mod 2) and the in-flight wave are
 * kept per group.
 */
struct LaneGroup
{
    uint32_t lane = 0;
    /** Journal `rank` field: the rank id on a fleet, -1 (omitted)
     * on a flat system. */
    int32_t rank = -1;
    uint32_t firstDpu = 0;
    uint32_t endDpu = 0;
    uint64_t wavesBegun = 0; ///< parity source
    uint32_t healthy = 0;    ///< unmasked DPUs, see refreshHealth
    // A parity's input buffers are free once the compute that read
    // them ended; its output buffers once the gather that drained
    // them ended.
    std::array<double, 2> computeEndByParity{};
    std::array<double, 2> gatherEndByParity{};
    std::optional<WaveExec> inflight;
    RankStats stats;
};

/** Move the first @p budget elements of @p w into the returned wave;
 * @p w keeps the remainder. Items crossing the cut are split against
 * the original request memory. */
Wave
takeWaveHead(Wave& w, uint64_t budget)
{
    Wave head;
    head.table = w.table;
    head.tenant = w.tenant;
    std::vector<WaveItem> tail;
    uint64_t off = 0;
    for (WaveItem& it : w.items) {
        if (off >= budget) {
            tail.push_back(it);
        } else if (off + it.elements <= budget) {
            head.items.push_back(it);
        } else {
            uint64_t take = budget - off;
            // The `last` flag follows the request's tail: it stays on
            // the remainder, never the split-off head.
            head.items.push_back({it.requestId, it.input, it.output,
                                  take, it.arrivalSeconds, false});
            tail.push_back({it.requestId, it.input + take,
                            it.output + take, it.elements - take,
                            it.arrivalSeconds, it.last});
        }
        off += it.elements;
    }
    w.items = std::move(tail);
    return head;
}

/** Straggler threshold: a wave is anomalous when its slowest slice
 * exceeds this many times the wave's median per-DPU cycles. */
constexpr double kStragglerFactor = 4.0;

/**
 * Predicted double-buffered makespan of one popped wave run as @p k
 * equal sub-waves over @p healthy cores of @p cap element slices: a
 * mirror of the reservation sequence the drive loop issues (scatter
 * 0; then compute i, scatter i+1, gather i), against the same serial
 * transfer model and per-slice compute envelope. Only the *ranking*
 * across k matters — common shifts (the table broadcast, lanes still
 * busy from earlier waves) move every candidate equally.
 */
double
predictSplitMakespan(uint64_t elems, uint32_t k, uint32_t healthy,
                     uint32_t cap, const WaveCost& cost,
                     const CostModel& model)
{
    const double freq = model.frequencyHz;
    std::vector<uint64_t> part(k);
    uint64_t base = elems / k, rem = elems % k;
    for (uint32_t i = 0; i < k; ++i)
        part[i] = base + (i < rem ? 1 : 0);

    auto xferSeconds = [&](uint64_t e) {
        return model.serialTransferSeconds(e * sizeof(float));
    };
    auto computeSeconds = [&](uint64_t e) {
        uint64_t perSlice =
            std::min<uint64_t>(cap, (e + healthy - 1) / healthy);
        return freq > 0.0 ? static_cast<double>(
                                cost.sliceCycles(perSlice)) /
                                freq
                          : 0.0;
    };

    double host = 0.0, dpuFree = 0.0;
    double computeByParity[2] = {0.0, 0.0};
    double gatherByParity[2] = {0.0, 0.0};
    std::vector<double> scatterEnd(k, 0.0);
    host = std::max(computeByParity[0], host) + xferSeconds(part[0]);
    scatterEnd[0] = host;
    double makespan = host;
    for (uint32_t i = 0; i < k; ++i) {
        uint32_t parity = i % 2;
        double ready =
            std::max(scatterEnd[i], gatherByParity[parity]);
        dpuFree = std::max(ready, dpuFree) + computeSeconds(part[i]);
        computeByParity[parity] = dpuFree;
        if (i + 1 < k) {
            double sStart =
                std::max(computeByParity[(i + 1) % 2], host);
            host = sStart + xferSeconds(part[i + 1]);
            scatterEnd[i + 1] = host;
        }
        host = std::max(dpuFree, host) + xferSeconds(part[i]);
        gatherByParity[parity] = host;
        makespan = std::max(makespan, host);
    }
    return makespan;
}

} // namespace

ServePipeline::ServePipeline(PimSystem& system, TableProvider provider,
                             const PipelineOptions& options)
    : sys_(system), cache_(system, std::move(provider)), opts_(options)
{
}

ServeReport
ServePipeline::run(BatchQueue& queue)
{
    // Auto-tuner (kill switch): give the tuner this run's cache so
    // MRAM-budget arbitration can evict and re-broadcast tables.
    if (opts_.autoTuner)
        opts_.autoTuner->bindCache(&cache_);

    ServeReport report;
    const uint32_t n = sys_.numDpus();
    if (n == 0) {
        report.complete = queue.closed() && queue.depth() == 0;
        return report;
    }
    const uint32_t cap = std::max<uint32_t>(opts_.perDpuElements, 1);
    const double freq = sys_.model().frequencyHz;

    // Lane groups, one per transfer lane. A valid topology describing
    // exactly this system has one lane per rank; anything else is one
    // lane over the whole system.
    const Topology* topo = opts_.topology;
    const bool perRank =
        topo && topo->valid() && topo->numDpus() == n;
    PipelineTimeline timeline = perRank
                                    ? PipelineTimeline(*topo)
                                    : PipelineTimeline(n, sys_.model());
    const uint32_t lanes = timeline.laneCount();
    cache_.setLaneCount(lanes);
    std::vector<LaneGroup> groups(lanes);
    for (uint32_t l = 0; l < lanes; ++l) {
        LaneGroup& g = groups[l];
        g.lane = l;
        g.rank = perRank ? static_cast<int32_t>(l) : -1;
        g.firstDpu = l * timeline.dpusPerLane();
        g.endDpu = std::min(n, g.firstDpu + timeline.dpusPerLane());
        g.stats.rank = l;
    }

    std::optional<obs::TraceSpan> runSpan;
    if (obs::Tracer::global().enabled())
        runSpan.emplace(
            "serve run", "serve",
            obs::argsObject(
                {obs::argKv("dpus", static_cast<uint64_t>(n)),
                 obs::argKv("lane_groups",
                            static_cast<uint64_t>(groups.size())),
                 obs::argKv("per_dpu_elements",
                            static_cast<uint64_t>(cap))}));
    obs::Registry& reg = obs::Registry::global();
    obs::Tracer& tracer = obs::Tracer::global();

    // Double-buffered per-DPU MRAM: two input and two output buffers
    // of `cap` floats each (parity = the group's wave count mod 2).
    // Sized in 64 bits: a capacity past the MRAM bank throws
    // std::bad_alloc instead of wrapping every buffer onto one address.
    const uint64_t bufBytes = static_cast<uint64_t>(cap) * sizeof(float);
    std::vector<std::array<uint32_t, 2>> inAddr(n), outAddr(n);
    for (uint32_t d = 0; d < n; ++d)
        for (uint32_t p = 0; p < 2; ++p) {
            inAddr[d][p] = sys_.dpu(d).mramAlloc(bufBytes);
            outAddr[d][p] = sys_.dpu(d).mramAlloc(bufBytes);
        }

    // End of the most recently reserved leg, on any group: the
    // timestamp of a drop for a wave with no valid binding.
    double lastLegEnd = 0.0;
    std::deque<PendingWave> retries;
    bool outOfCores = false;
    uint64_t waveSeq = 0; ///< execution-order wave numbering

    // ---- Request-span bookkeeping (journal / flow events) ----
    // All of it runs on this (consumer) thread against modeled times
    // read off the timeline, so the journal's content is a pure
    // function of the workload — bit-identical at any thread count —
    // and none of it feeds back into the modeled schedule.
    obs::Journal* const journal = opts_.journal;
    const bool trackReqs = journal != nullptr || tracer.enabled();
    // A latency-only journal keeps no events: skip building them.
    const bool journalEvents = journal && journal->eventsEnabled();

    ReqBook book;
    // A pre-filled queue holds every request of the run: size the
    // book once. Requests pushed during the run grow it.
    if (trackReqs)
        book.reserve(queue.depth());

    auto jev = [&](const char* kind, double t, double dur,
                   uint64_t request, uint64_t wave, uint64_t elements,
                   uint64_t cycles, int32_t rank,
                   const std::string& table,
                   const std::string& note = {}) {
        if (!journalEvents)
            return;
        obs::JournalEvent ev;
        ev.kind = kind;
        ev.t = t;
        ev.dur = dur;
        ev.request = request;
        ev.wave = wave;
        ev.elements = elements;
        ev.cycles = cycles;
        ev.rank = rank;
        ev.table = table;
        ev.note = note;
        journal->record(ev);
    };

    auto noteFailedDpu = [&](uint32_t d) {
        if (std::find(report.failedDpus.begin(),
                      report.failedDpus.end(),
                      d) == report.failedDpus.end())
            report.failedDpus.push_back(d);
    };

    // Healthy-DPU counts per group, recounted only when a core was
    // masked since the last count.
    uint64_t healthEpoch = sys_.maskEpoch() + 1; // count on first use
    uint32_t maxHealthy = 0; ///< largest count of any group
    auto refreshHealth = [&]() {
        if (healthEpoch == sys_.maskEpoch())
            return;
        healthEpoch = sys_.maskEpoch();
        maxHealthy = 0;
        for (LaneGroup& g : groups) {
            g.healthy = 0;
            for (uint32_t d = g.firstDpu; d < g.endDpu; ++d)
                g.healthy += sys_.isMasked(d) ? 0 : 1;
            maxHealthy = std::max(maxHealthy, g.healthy);
        }
    };
    auto healthyCount = [&](const LaneGroup& g) {
        refreshHealth();
        return g.healthy;
    };

    /** Largest healthy-DPU count of any group (wave pop budget). */
    auto maxHealthyPerGroup = [&]() {
        refreshHealth();
        return maxHealthy;
    };

    // ---- Overlapped execution ----
    // At most one wave is submitted and not yet committed: its
    // kernels run on the simulation pool while this thread does the
    // next wave's host work. Its commit (failure sweep + DPU-lane
    // reservations + compute accounting) comes before anything that
    // reads what the commit writes or touches memory the kernels
    // read — see the drive loop below.
    LaunchHandle launch;
    LaneGroup* launchGroup = nullptr; ///< owner of the submitted wave

    /** Next wave to execute: pending retries first, then the queue.
     * Waves are sized for one group — the placement step later
     * picks which. */
    auto nextWave = [&]() -> std::optional<PendingWave> {
        for (;;) {
            if (!retries.empty()) {
                PendingWave pw = std::move(retries.front());
                retries.pop_front();
                return pw;
            }
            uint32_t healthy = maxHealthyPerGroup();
            if (healthy == 0) {
                outOfCores = true;
                return std::nullopt;
            }
            auto w = queue.popWave(
                static_cast<uint64_t>(cap) * healthy);
            if (!w)
                return std::nullopt;
            report.requests += w->requestsClosed;
            if (tracer.enabled())
                tracer.counterValue(
                    "serve/queue_depth", "serve",
                    static_cast<double>(queue.depth()));
            if (reg.enabled())
                reg.histogram("serve/queue/depth")
                    .observe(queue.depth());
            if (w->items.empty())
                continue; // zero-element requests only
            report.elements += w->elements();

            // Auto-tuner routing: only fresh generation-0 waves are
            // routed — retries and cost-book split pieces keep the
            // table they were issued with.
            std::string tuneNote;
            if (opts_.autoTuner) {
                AutoTuner::Routing r =
                    opts_.autoTuner->route(w->table, w->tenant);
                // `switched` only marks the first wave after a route
                // change (it drives the `tune` journal event); every
                // wave runs whatever table route() picked.
                if (r.table.hash != w->table.hash &&
                    reg.enabled())
                    reg.counter("tuner/rerouted_waves").add(1);
                w->table = r.table;
                if (r.switched)
                    tuneNote = std::move(r.note);
            }

            // Cost-aware wave sizing: with a certified compute
            // envelope for this table, rank the candidate sub-wave
            // splits on the predicted double-buffered makespan and
            // issue the fastest shape. Splits land at the front of
            // the retry deque (generation 0) so they pop in order.
            if (opts_.costBook) {
                const WaveCost* wc = opts_.costBook->find(w->table);
                uint64_t waveElems = w->elements();
                if (wc && waveElems > 1) {
                    uint32_t bestK = 1;
                    double best = predictSplitMakespan(
                        waveElems, 1, healthy, cap, *wc, sys_.model());
                    for (uint32_t k : {2u, 4u, 8u}) {
                        if (waveElems / k < healthy)
                            break; // sub-slices would degenerate
                        double m = predictSplitMakespan(
                            waveElems, k, healthy, cap, *wc,
                            sys_.model());
                        if (m < best * (1.0 - 1e-9)) {
                            best = m;
                            bestK = k;
                        }
                    }
                    if (bestK > 1) {
                        uint64_t base = waveElems / bestK;
                        uint64_t rem = waveElems % bestK;
                        Wave rest = std::move(*w);
                        std::vector<Wave> pieces;
                        for (uint32_t i = 0; i + 1 < bestK; ++i)
                            pieces.push_back(takeWaveHead(
                                rest, base + (i < rem ? 1 : 0)));
                        pieces.push_back(std::move(rest));
                        for (auto it = pieces.rbegin();
                             it != pieces.rend(); ++it)
                            retries.push_front(
                                PendingWave{std::move(*it), 0, {}});
                        // Retries was empty (we only reach the queue
                        // pop then), so the first split piece is at
                        // the front; the tune note rides on it.
                        retries.front().tuneNote =
                            std::move(tuneNote);
                        if (reg.enabled())
                            reg.counter("serve/cost/split_waves")
                                .add(1);
                        continue;
                    }
                }
            }
            return PendingWave{std::move(*w), 0, std::move(tuneNote)};
        }
    };

    /**
     * Placement: pick the group a wave of @p key runs on.
     *   1. Only groups with a healthy DPU are candidates (none ->
     *      nullptr, the system is out of cores). A lone group is the
     *      only choice.
     *   2. A known valid table prefers the least-busy rank already
     *      holding it — unless the least-busy rank overall is ahead
     *      by more than one single-rank broadcast, in which case the
     *      table replicates there (the broadcast pays for itself).
     *   3. A table with no holder (or unknown/infeasible) goes to
     *      the candidate with the fewest resident tables, ties
     *      broken by load then rank id — first sightings spread.
     * Busy-ness is the rank's modeled makespan so far; everything
     * here is a pure function of modeled state (deterministic).
     */
    auto place = [&](const TableKey& key) -> LaneGroup* {
        if (groups.size() == 1)
            return healthyCount(groups[0]) > 0 ? &groups[0] : nullptr;
        LaneGroup* bestAll = nullptr;
        double bestAllBusy = 0.0;
        LaneGroup* bestRes = nullptr;
        double bestResBusy = 0.0;
        LaneGroup* bestFresh = nullptr;
        size_t bestFreshRes = 0;
        double bestFreshBusy = 0.0;
        const TableBinding* binding = cache_.peek(key);
        const bool known = binding && binding->valid;
        for (LaneGroup& g : groups) {
            if (healthyCount(g) == 0)
                continue;
            double busy = timeline.laneMakespan(g.lane);
            if (!bestAll || busy < bestAllBusy) {
                bestAll = &g;
                bestAllBusy = busy;
            }
            if (known && cache_.resident(key, g.lane)) {
                if (!bestRes || busy < bestResBusy) {
                    bestRes = &g;
                    bestResBusy = busy;
                }
            } else {
                size_t res = cache_.residency(g.lane);
                if (!bestFresh || res < bestFreshRes ||
                    (res == bestFreshRes && busy < bestFreshBusy)) {
                    bestFresh = &g;
                    bestFreshRes = res;
                    bestFreshBusy = busy;
                }
            }
        }
        if (!bestAll || !known)
            return bestAll;
        if (!bestRes)
            return bestFresh ? bestFresh : bestAll;
        double bcast = sys_.model().parallelTransferSeconds(
            binding->tableBytes, timeline.laneRanks());
        if (bestResBusy - bestAllBusy > bcast)
            return bestAll; // replicate: the broadcast pays off
        return bestRes;
    };

    /** Commit the submitted wave, if any: join its kernels, reserve
     * its DPU lanes and account its compute. */
    auto commitOutstanding = [&]() {
        if (!launchGroup)
            return;
        LaneGroup& g = *launchGroup;
        launchGroup = nullptr;
        WaveExec& ex = *g.inflight;
        ex.computeEv =
            sys_.commitLaunch(launch, timeline, ex.computeReady);
        lastLegEnd = ex.computeEv.end;
        g.computeEndByParity[ex.parity] = ex.computeEv.end;
        ex.stats.maxCycles = launch.report().maxCycles;
        ex.stats.computeSeconds =
            freq > 0.0
                ? static_cast<double>(ex.stats.maxCycles) / freq
                : 0.0;
        report.computeCycles += ex.stats.maxCycles;
        g.stats.computeCycles += ex.stats.maxCycles;

        // Straggler detection: a pure function of the per-DPU cycle
        // counts the sequential failure sweep recorded, so it is
        // deterministic at any thread count and costs nothing on the
        // modeled schedule.
        std::vector<uint64_t> sliceCycles = launch.cycles();
        for (uint64_t c : sliceCycles)
            ex.stats.totalCycles += c;
        std::sort(sliceCycles.begin(), sliceCycles.end());
        if (!sliceCycles.empty())
            ex.stats.medianCycles =
                sliceCycles[sliceCycles.size() / 2];
        if (sliceCycles.size() >= 2 && ex.stats.medianCycles > 0) {
            const double limit =
                kStragglerFactor *
                static_cast<double>(ex.stats.medianCycles);
            uint32_t stragglers = 0;
            for (uint64_t c : sliceCycles)
                if (static_cast<double>(c) > limit)
                    ++stragglers;
            if (stragglers > 0) {
                ex.stats.stragglerDpus = stragglers;
                ++report.anomalousWaves;
                if (reg.enabled()) {
                    reg.counter("serve/anomaly/straggler_waves")
                        .add(1);
                    reg.counter("serve/anomaly/straggler_dpus")
                        .add(stragglers);
                }
                if (journalEvents)
                    jev("anomaly", ex.computeEv.start,
                        ex.computeEv.seconds(), 0, ex.waveIndex,
                        ex.stats.elements, sliceCycles.back(), g.rank,
                        ex.wave.table.label,
                        "max " + std::to_string(sliceCycles.back()) +
                            " cycles vs median " +
                            std::to_string(ex.stats.medianCycles) +
                            " across " +
                            std::to_string(sliceCycles.size()) +
                            " slices");
            }
        }

        if (trackReqs)
            for (const WaveReq& r : ex.reqs) {
                book.at(r.id).lat.computeSeconds +=
                    ex.computeEv.seconds();
                jev("compute", ex.computeEv.start,
                    ex.computeEv.seconds(), r.id, ex.waveIndex,
                    r.elements, ex.stats.maxCycles, g.rank,
                    ex.wave.table.label);
            }
    };

    /** Start the group's current wave (g.inflight) on its DPU lanes
     * without waiting for the kernels. The pool builds each slice's
     * kernel; the slices (in g.inflight) and the binding (cached for
     * the cache's lifetime) outlive the commit. */
    auto submitWave = [&](LaneGroup& g) {
        WaveExec& ex = *g.inflight;
        ex.computeReady = std::max(ex.scatterEv.end,
                                   g.gatherEndByParity[ex.parity]);
        launch = sys_.submitLaunch(ex.slices, opts_.numTasklets,
                                   ex.binding->makeKernel);
        launchGroup = &g;
    };

    /** Resolve the binding for @p g and reserve scatter (+ a table
     * broadcast when the group does not hold the table yet). Returns
     * false when the wave cannot run at all. */
    auto beginWave = [&](LaneGroup& g, PendingWave&& pw,
                         WaveExec& ex) -> bool {
        std::string tuneNote = std::move(pw.tuneNote);
        ex.wave = std::move(pw.wave);
        ex.generation = pw.generation;
        ex.parity = static_cast<uint32_t>(g.wavesBegun % 2);

        // A miss runs the provider, which stages tables into every
        // core, and an infeasible wave's drop is stamped with
        // lastLegEnd: both need the submitted wave committed first.
        const TableBinding* cached = cache_.peek(ex.wave.table);
        if (!cached || !cached->valid)
            commitOutstanding();
        TableCache::Lookup found = cache_.lookup(ex.wave.table, g.lane);
        ex.binding = found.binding;
        ex.stats.tableMiss = found.laneMiss;
        if (found.laneMiss && g.rank >= 0 && reg.enabled())
            reg.counter("serve/lut_cache/rank_broadcasts").add(1);
        uint64_t waveElems = ex.wave.elements();
        if (!ex.binding || !ex.binding->valid) {
            report.infeasibleElements += waveElems;
            if (trackReqs)
                for (const WaveReq& r : book.collect(ex.wave)) {
                    auto [lat, track] = book.at(r.id);
                    if (ex.generation == 0) {
                        lat.elements += r.elements;
                        track.sawLast = track.sawLast || r.last;
                    }
                    jev("drop", lastLegEnd, 0.0, r.id,
                        obs::JournalEvent::kNoWave, r.elements, 0,
                        g.rank, ex.wave.table.label,
                        "no valid table binding");
                }
            return false;
        }
        PipelineEvent bcastEv{};
        if (ex.stats.tableMiss && ex.binding->tableBytes > 0) {
            bcastEv = sys_.broadcastAsync(timeline, g.lane, 0.0,
                                          ex.binding->tableBytes);
            ex.stats.broadcastSeconds = bcastEv.seconds();
            lastLegEnd = bcastEv.end;
            ++g.stats.broadcasts;
        }

        // Slice across the group's currently healthy cores. If cores
        // died since the wave was sized, the tail that no longer
        // fits is split off and re-queued ahead of everything else.
        const uint32_t healthy = healthyCount(g);
        if (healthy == 0) {
            retries.push_front(
                PendingWave{std::move(ex.wave), ex.generation, {}});
            if (maxHealthyPerGroup() == 0)
                outOfCores = true;
            return false;
        }
        uint64_t budget = static_cast<uint64_t>(cap) * healthy;
        if (waveElems > budget) {
            Wave head = takeWaveHead(ex.wave, budget);
            retries.push_front(
                PendingWave{std::move(ex.wave), ex.generation, {}});
            ex.wave = std::move(head);
            waveElems = ex.wave.elements();
        }

        // Pack the item inputs into one staging buffer (wave slices
        // cross item boundaries) and record the item offsets.
        ex.stagingIn.resize(waveElems);
        ex.itemStart.resize(ex.wave.items.size());
        uint64_t off = 0;
        for (size_t i = 0; i < ex.wave.items.size(); ++i) {
            const WaveItem& it = ex.wave.items[i];
            ex.itemStart[i] = off;
            std::memcpy(ex.stagingIn.data() + off, it.input,
                        it.elements * sizeof(float));
            off += it.elements;
        }

        const uint64_t per = std::min<uint64_t>(
            cap, (waveElems + healthy - 1) / healthy);
        std::vector<ScatterSlice> scatter;
        // Sized once: the wave's allocations do not grow with its
        // slice count.
        ex.slices.reserve(healthy);
        scatter.reserve(healthy);
        uint64_t first = 0;
        for (uint32_t d = g.firstDpu; d < g.endDpu && first < waveElems;
             ++d) {
            if (sys_.isMasked(d))
                continue;
            uint32_t count = static_cast<uint32_t>(
                std::min<uint64_t>(per, waveElems - first));
            ShardTask t;
            t.dpu = d;
            t.inAddr = inAddr[d][ex.parity];
            t.outAddr = outAddr[d][ex.parity];
            t.firstElement = first;
            t.elements = count;
            ex.slices.push_back(t);
            scatter.push_back(
                {d, t.inAddr, ex.stagingIn.data() + first,
                 count * static_cast<uint32_t>(sizeof(float))});
            first += count;
        }
        ex.stats.elements = waveElems;
        ex.stats.slices = static_cast<uint32_t>(ex.slices.size());

        ex.scatterEv = sys_.scatterAsync(
            timeline, g.lane, g.computeEndByParity[ex.parity], scatter);
        lastLegEnd = ex.scatterEv.end;
        ex.stats.scatterSeconds = ex.scatterEv.seconds();
        ex.waveIndex = waveSeq++;

        // Tuner redirect: stamp the decision on the wave it first
        // applies to, at scatter start, tagged with the tenant.
        if (journalEvents && !tuneNote.empty()) {
            obs::JournalEvent ev;
            ev.kind = "tune";
            ev.t = ex.scatterEv.start;
            ev.wave = ex.waveIndex;
            ev.elements = ex.stats.elements;
            ev.rank = g.rank;
            ev.tenant = ex.wave.tenant;
            ev.table = ex.wave.table.label;
            ev.note = tuneNote;
            journal->record(ev);
        }

        // Per-request span accounting (post-split, so every element
        // is attributed to exactly the wave that carries it).
        if (trackReqs) {
            ex.reqs = book.collect(ex.wave, &ex.itemReq);
            const double waveXfer =
                ex.stats.broadcastSeconds + ex.stats.scatterSeconds;
            for (const WaveReq& r : ex.reqs) {
                auto [lat, track] = book.at(r.id);
                ++lat.waves;
                if (lat.firstScatterSeconds < 0.0)
                    lat.firstScatterSeconds = ex.scatterEv.start;
                lat.transferSeconds += waveXfer;
                if (ex.generation == 0) {
                    lat.elements += r.elements;
                    track.sawLast = track.sawLast || r.last;
                }
                if (tracer.enabled()) {
                    const std::string flowName =
                        "req " + std::to_string(r.id);
                    if (lat.waves == 1)
                        tracer.flowBegin(flowName, "serve", r.id);
                    else
                        tracer.flowStep(flowName, "serve", r.id);
                }
                jev("coalesce", ex.scatterEv.start, 0.0, r.id,
                    ex.waveIndex, r.elements, 0, g.rank,
                    ex.wave.table.label);
                jev("scatter", ex.scatterEv.start,
                    ex.scatterEv.seconds(), r.id, ex.waveIndex,
                    r.elements, 0, g.rank, ex.wave.table.label);
            }
            if (ex.stats.tableMiss && ex.stats.broadcastSeconds > 0.0)
                jev("broadcast", bcastEv.start, bcastEv.seconds(), 0,
                    ex.waveIndex, 0, 0, g.rank, ex.wave.table.label);
        }
        ++g.wavesBegun;
        g.stats.waves += 1;
        g.stats.elements += waveElems;
        return true;
    };

    /** Gather, distribute outputs, and re-queue failed slices (the
     * retry wave is free to land on any healthy group). */
    auto finishWave = [&](LaneGroup& g, WaveExec& ex) {
        uint64_t waveElems = ex.stats.elements;
        std::vector<float> stagingOut(waveElems);
        std::vector<GatherSlice> gather;
        gather.reserve(ex.slices.size());
        for (const ShardTask& t : ex.slices)
            gather.push_back(
                {t.dpu, t.outAddr,
                 stagingOut.data() + t.firstElement,
                 t.elements *
                     static_cast<uint32_t>(sizeof(float))});
        PipelineEvent gatherEv =
            sys_.gatherAsync(timeline, g.lane, ex.computeEv.end, gather);
        lastLegEnd = gatherEv.end;
        g.gatherEndByParity[ex.parity] = gatherEv.end;
        ex.stats.gatherSeconds = gatherEv.seconds();

        // Distribute healthy slice ranges to the item outputs; turn
        // failed slice ranges into retry items against the original
        // request memory (the staging buffers die with this wave).
        Wave retry;
        retry.table = ex.wave.table;
        retry.tenant = ex.wave.tenant;
        // Slices and items both tile the wave in offset order, so one
        // forward merge visits every (slice, item) overlap: waveOff
        // is the overlap's start in wave space, itemOff the same point
        // relative to the item's own spans.
        std::vector<uint64_t> gathered(ex.reqs.size(), 0);
        std::vector<WaveOutcome::Span> tuneSpans;
        size_t i = 0;
        for (const ShardTask& t : ex.slices) {
            const bool healthy = !sys_.isMasked(t.dpu);
            if (!healthy) {
                ++ex.stats.retriedSlices;
                noteFailedDpu(t.dpu);
            }
            uint64_t waveOff = t.firstElement;
            const uint64_t hi = waveOff + t.elements;
            while (waveOff < hi) {
                while (ex.itemStart[i] + ex.wave.items[i].elements <=
                       waveOff)
                    ++i;
                const WaveItem& it = ex.wave.items[i];
                const uint64_t itemOff = waveOff - ex.itemStart[i];
                const uint64_t count =
                    std::min(hi - waveOff, it.elements - itemOff);
                if (healthy) {
                    std::memcpy(it.output + itemOff,
                                stagingOut.data() + waveOff,
                                count * sizeof(float));
                    if (trackReqs)
                        gathered[ex.itemReq[i]] += count;
                    if (opts_.autoTuner)
                        tuneSpans.push_back({it.input + itemOff,
                                             it.output + itemOff,
                                             count});
                } else {
                    // The tail flag survives a retry only if the
                    // retried range still covers the item's tail.
                    retry.items.push_back(
                        {it.requestId, it.input + itemOff,
                         it.output + itemOff, count, it.arrivalSeconds,
                         it.last && itemOff + count == it.elements});
                }
                waveOff += count;
            }
        }

        if (trackReqs)
            for (size_t r = 0; r < ex.reqs.size(); ++r) {
                const WaveReq& req = ex.reqs[r];
                auto [lat, track] = book.at(req.id);
                lat.transferSeconds += gatherEv.seconds();
                jev("gather", gatherEv.start, gatherEv.seconds(),
                    req.id, ex.waveIndex, req.elements, 0, g.rank,
                    ex.wave.table.label);
                track.elementsDone += gathered[r];
                if (!lat.complete && track.sawLast && lat.elements > 0 &&
                    track.elementsDone == lat.elements) {
                    lat.complete = true;
                    lat.completedSeconds = gatherEv.end;
                    jev("done", gatherEv.end, 0.0, req.id,
                        ex.waveIndex, lat.elements, 0, g.rank,
                        ex.wave.table.label);
                    if (tracer.enabled())
                        tracer.flowEnd("req " + std::to_string(req.id),
                                       "serve", req.id);
                }
            }
        uint64_t retryElems = retry.elements();
        if (retryElems > 0) {
            if (ex.generation + 1 > opts_.maxRetryWaves) {
                report.droppedElements += retryElems;
                if (trackReqs)
                    for (const WaveReq& r : book.collect(retry))
                        jev("drop", gatherEv.end, 0.0, r.id,
                            ex.waveIndex, r.elements, 0, g.rank,
                            retry.table.label,
                            "retry budget exhausted");
                if (reg.enabled())
                    reg.counter("serve/retry/dropped_elements")
                        .add(retryElems);
            } else {
                report.reshardedElements += retryElems;
                retries.push_back(PendingWave{
                    std::move(retry), ex.generation + 1, {}});
                if (reg.enabled()) {
                    reg.counter("serve/retry/waves").add(1);
                    reg.counter("serve/retry/elements")
                        .add(retryElems);
                }
            }
        }

        // Close the tuner's loop with what this wave actually did:
        // exact gathered outputs (healthy ranges only) plus the
        // summed modeled cycles — all consumer-thread, all modeled,
        // so tuned runs stay deterministic at any thread count.
        if (opts_.autoTuner) {
            WaveOutcome oc;
            oc.table = ex.wave.table;
            oc.tenant = ex.wave.tenant;
            oc.waveIndex = ex.waveIndex;
            oc.elements = ex.stats.elements;
            oc.totalCycles = ex.stats.totalCycles;
            oc.spans = std::move(tuneSpans);
            opts_.autoTuner->observe(oc);
        }

        report.syncSeconds +=
            ex.stats.broadcastSeconds + ex.stats.scatterSeconds +
            ex.stats.computeSeconds + ex.stats.gatherSeconds;
        if (reg.enabled())
            reg.histogram("serve/wave/elements").observe(waveElems);
        report.waveStats.push_back(ex.stats);
    };

    auto drainInflight = [&]() {
        commitOutstanding();
        bool drained = false;
        for (LaneGroup& g : groups)
            if (g.inflight) {
                finishWave(g, *g.inflight);
                g.inflight.reset();
                drained = true;
            }
        return drained;
    };

    // With a fault plan armed, masks and per-DPU fault draws must
    // keep their serial order, so nothing overlaps: the previous wave
    // finishes before the next submits, which commits at once.
    const bool overlap = sys_.faultPlan() == nullptr;

    // Drive loop: one in-flight wave per group. Beginning a second
    // wave on a group first commits the submitted wave, then submits
    // the new one and finishes the group's previous wave (its gather
    // queues behind the new scatter on the group's lane) while the
    // new wave's kernels run — the two-deep pipeline per group.
    for (;;) {
        auto pw = nextWave();
        if (!pw) {
            // Stream exhausted *for now*: finishing the in-flight
            // waves may re-queue retry waves (a failed core's slices
            // re-shard onto the survivors), so drain and re-check
            // before concluding the run is over.
            if (drainInflight())
                continue;
            break;
        }
        // Placement reads every rank's modeled makespan, which the
        // submitted wave's commit moves.
        if (groups.size() > 1)
            commitOutstanding();
        LaneGroup* g = place(pw->wave.table);
        if (!g) {
            outOfCores = true;
            retries.push_front(std::move(*pw));
            break;
        }
        std::optional<obs::TraceSpan> waveSpan;
        if (tracer.enabled())
            waveSpan.emplace(
                "wave " + std::to_string(waveSeq), "serve",
                obs::argKv("group",
                           static_cast<uint64_t>(g - &groups[0])));
        WaveExec ex;
        if (!beginWave(*g, std::move(*pw), ex)) {
            if (outOfCores)
                break;
            continue; // infeasible wave: try the next one
        }
        commitOutstanding();
        std::optional<WaveExec> prev =
            std::exchange(g->inflight, std::move(ex));
        if (prev && !overlap) {
            finishWave(*g, *prev);
            prev.reset();
        }
        submitWave(*g);
        if (!overlap)
            commitOutstanding();
        if (prev)
            finishWave(*g, *prev);
    }
    drainInflight();

    // Anything still pending when we ran out of cores is dropped.
    const double drainT = timeline.makespan();
    for (const PendingWave& pw : retries) {
        report.droppedElements += pw.wave.elements();
        if (trackReqs)
            for (const WaveReq& r : book.collect(pw.wave)) {
                auto [lat, track] = book.at(r.id);
                if (pw.generation == 0) {
                    lat.elements += r.elements;
                    track.sawLast = track.sawLast || r.last;
                }
                jev("drop", drainT, 0.0, r.id,
                    obs::JournalEvent::kNoWave, r.elements, 0, -1,
                    pw.wave.table.label, "out of cores");
            }
    }
    retries.clear();

    report.waves = report.waveStats.size();
    report.cacheHits = cache_.hits();
    report.cacheMisses = cache_.misses();
    report.modeledSeconds = timeline.makespan();
    if (perRank)
        for (LaneGroup& g : groups) {
            g.stats.makespanSeconds = timeline.laneMakespan(g.lane);
            g.stats.residentTables = cache_.residency(g.lane);
            report.rankStats.push_back(g.stats);
        }
    report.complete = !outOfCores && report.droppedElements == 0 &&
                      report.infeasibleElements == 0 &&
                      queue.closed() && queue.depth() == 0;

    // One latency record per tracked request, appended in one batch.
    // Every timestamp came off the modeled timeline, so the journal
    // serializes byte-identically at any thread count.
    if (journal)
        journal->recordLatencies(book.finish());

    if (reg.enabled()) {
        reg.counter("serve/waves").add(report.waves);
        reg.counter("serve/requests").add(report.requests);
        reg.counter("serve/elements").add(report.elements);
        reg.real("serve/modeled_seconds").add(report.modeledSeconds);
        reg.real("serve/sync_seconds").add(report.syncSeconds);
        if (report.droppedElements)
            reg.counter("serve/dropped_elements")
                .add(report.droppedElements);
    }
    if (tracer.enabled())
        tracer.counterValue("serve/queue_depth", "serve", 0.0);
    return report;
}

} // namespace serve
} // namespace sim
} // namespace tpl
