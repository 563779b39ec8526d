#include "obs/obs.hh"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/parse.hh"

namespace tempo::obs {

namespace detail {

std::atomic<bool> globallyEnabled{false};
thread_local Session *tlsSession = nullptr;

} // namespace detail

namespace {

Config &
globalConfig()
{
    static Config cfg;
    return cfg;
}

} // namespace

const char *
replayClassName(ReplayClass cls)
{
    switch (cls) {
      case ReplayClass::PrivateHit: return "private_hit";
      case ReplayClass::LlcHit: return "llc_hit";
      case ReplayClass::Merged: return "merged";
      case ReplayClass::RowHit: return "row_hit";
      case ReplayClass::Array: return "array";
    }
    return "?";
}

std::uint32_t
parseCategories(const std::string &csv)
{
    using Category = std::pair<std::string_view, std::uint32_t>;
    constexpr Category kNames[] = {
        {"walk", kWalk},     {"pt", kPt},         {"txq", kTxq},
        {"prefetch", kPrefetch}, {"replay", kReplay}, {"row", kRow},
        {"bliss", kBliss},   {"all", kAllCategories},
    };
    std::uint32_t mask = 0;
    for (const std::string &name : splitCommas(csv)) {
        const Category *it =
            std::ranges::find(kNames, name, &Category::first);
        if (it == std::end(kNames))
            throw std::invalid_argument(
                "unknown trace category '" + name
                + "' (walk, pt, txq, prefetch, replay, row, bliss, all)");
        mask |= it->second;
    }
    return mask;
}

void
configure(const Config &cfg)
{
    globalConfig() = cfg;
    detail::globallyEnabled.store(cfg.enabled(),
                                  std::memory_order_relaxed);
}

const Config &
config()
{
    return globalConfig();
}

Session::Session(const Config &cfg)
    : cfg_(cfg), replayHist_(50.0, 16)
{
    if (cfg_.trace && cfg_.traceCapacity > 0)
        ring_.reserve(cfg_.traceCapacity);
    walks_.reserve(4096);
    ts_.windowCycles = cfg_.timeseriesWindow;
    if (cfg_.timeseriesWindow > 0) {
        ts_.columns = {
            {"cycle", {}},
            {"txq_occupancy", {}},
            {"prefetch_slots", {}},
            {"outstanding_walks", {}},
            {"row_hit_rate", {}},
            {"replay_latency_avg", {}},
        };
    }
}

void
Session::record(Category cat, EventType type, Cycle ts,
                std::uint64_t walk_id, std::uint64_t a, std::uint64_t b,
                std::uint8_t arg)
{
    if (!cfg_.trace || !(cfg_.categories & cat)
        || cfg_.traceCapacity == 0) {
        return;
    }
    TraceEvent event;
    event.ts = ts;
    event.walkId = walk_id;
    event.a = a;
    event.b = b;
    event.type = type;
    event.arg = arg;
    if (ring_.size() < cfg_.traceCapacity) {
        ring_.push_back(event);
        return;
    }
    // Ring full: overwrite the oldest event (keep the most recent
    // window of activity; the exporter repairs any orphaned end/begin).
    ring_[ringNext_] = event;
    ringNext_ = (ringNext_ + 1) % cfg_.traceCapacity;
    ringWrapped_ = true;
    ++dropped_;
}

Session::WalkRecord *
Session::walk(std::uint64_t id)
{
    if (id == 0 || id > walks_.size())
        return nullptr;
    return &walks_[id - 1];
}

std::uint64_t
Session::walkBegin(Cycle now, AppId app, Addr vaddr, WalkKind kind,
                   std::size_t planned_steps, std::size_t skipped_steps)
{
    walks_.emplace_back();
    WalkRecord &rec = walks_.back();
    rec.kind = kind;
    rec.app = app;
    const std::uint64_t id = walks_.size();

    if (measuring(app)) {
        switch (kind) {
          case WalkKind::Demand: ++walkCounts_.walks; break;
          case WalkKind::CorePrefetch: ++walkCounts_.walksPrefetch; break;
          case WalkKind::TlbPrefetch: ++walkCounts_.walksTlbPrefetch; break;
        }
        walkCounts_.walkSteps += planned_steps;
        walkCounts_.walkStepsSkipped += skipped_steps;
    }

    record(kWalk, EventType::WalkBegin, now, id, vaddr,
           (static_cast<std::uint64_t>(planned_steps) << 16)
               | (skipped_steps & 0xffff),
           static_cast<std::uint8_t>(kind));
    return id;
}

void
Session::walkStep(Cycle now, std::uint64_t id, int level, Addr pte_addr,
                  std::uint8_t found_level)
{
    record(kWalk, EventType::WalkStep, now, id, pte_addr,
           static_cast<std::uint64_t>(level), found_level);
}

void
Session::ptAccessTag(Cycle now, std::uint64_t id, Addr pte_line,
                     Addr replay_line, bool pte_valid)
{
    record(kPt, EventType::PtAccessTag, now, id, pte_line, replay_line,
           pte_valid ? 1 : 0);
}

void
Session::walkEnd(Cycle now, std::uint64_t id, bool leaf_dram)
{
    if (WalkRecord *rec = walk(id)) {
        rec->leafDram = leaf_dram;
        if (leaf_dram && measuring(rec->app))
            ++walkCounts_.walksLeafDram;
    }
    record(kWalk, EventType::WalkEnd, now, id, 0, 0, leaf_dram ? 1 : 0);
}

void
Session::replayBegin(Cycle now, std::uint64_t id, Addr paddr)
{
    if (WalkRecord *rec = walk(id))
        rec->replayStart = now;
    record(kReplay, EventType::ReplayBegin, now, id, paddr, 0, 0);
}

void
Session::replayEnd(Cycle when, std::uint64_t id, ReplayClass cls)
{
    WalkRecord *rec = walk(id);
    if (rec) {
        // Count only what CoreStats counts (replays whose walk's leaf
        // came from DRAM, in its app's window) so obs.replay_* sums to
        // replay_after_dram_walk.
        if (rec->leafDram && rec->kind == WalkKind::Demand) {
            const double latency = when >= rec->replayStart
                ? static_cast<double>(when - rec->replayStart)
                : 0.0;
            windowLat_.sample(latency);
            if (measuring(rec->app)) {
                ++walkCounts_.replay[static_cast<std::size_t>(cls)];
                replayLat_[static_cast<std::size_t>(cls)].sample(latency);
                totalLat_.sample(latency);
                replayHist_.sample(latency);
            }
        }
        // Prefetch timeliness: the replay is this prefetch's consumer.
        if (rec->pfIssued && !rec->pfClassified
            && rec->pfEpoch == epoch_) {
            rec->pfClassified = true;
            if (cls == ReplayClass::Merged)
                ++machineCounts_.prefetchLate;
            else if (cls == ReplayClass::LlcHit
                     || cls == ReplayClass::RowHit)
                ++machineCounts_.prefetchUseful;
            else
                ++machineCounts_.prefetchUseless;
        }
    }
    record(kReplay, EventType::ReplayEnd, when, id, 0, 0,
           static_cast<std::uint8_t>(cls));
}

void
Session::txqEnqueue(Cycle now, unsigned channel, std::uint8_t kind,
                    std::uint64_t walk_id, std::size_t occupancy)
{
    record(kTxq, EventType::TxqEnqueue, now, walk_id, channel, occupancy,
           kind);
}

void
Session::txqSplit(Cycle now, unsigned channel, std::uint64_t walk_id)
{
    record(kTxq, EventType::TxqSplit, now, walk_id, channel, 0, 0);
}

void
Session::txqDispatch(Cycle now, std::uint8_t kind, std::uint64_t walk_id,
                     Addr paddr)
{
    record(kTxq, EventType::TxqDispatch, now, walk_id, paddr, 0, kind);
}

void
Session::prefetchIssue(Cycle now, std::uint64_t walk_id, Addr line)
{
    ++machineCounts_.prefetchIssued;
    if (WalkRecord *rec = walk(walk_id)) {
        rec->pfIssued = true;
        rec->pfClassified = false;
        rec->pfEpoch = epoch_;
    }
    record(kPrefetch, EventType::PrefetchIssue, now, walk_id, line, 0, 0);
}

void
Session::prefetchDrop(Cycle now, std::uint64_t walk_id, Addr line)
{
    ++machineCounts_.prefetchDropped;
    record(kPrefetch, EventType::PrefetchDrop, now, walk_id, line, 0, 0);
}

void
Session::corePrefetchIssue(Cycle now, Addr line)
{
    record(kPrefetch, EventType::PrefetchIssue, now, 0, line, 1, 0);
}

void
Session::corePrefetchDrop(Cycle now, Addr line)
{
    record(kPrefetch, EventType::PrefetchDrop, now, 0, line, 1, 0);
}

void
Session::prefetchFault(Cycle now, std::uint64_t walk_id)
{
    ++machineCounts_.prefetchFaults;
    record(kPrefetch, EventType::PrefetchFault, now, walk_id, 0, 0, 0);
}

void
Session::prefetchActivate(Cycle when, std::uint64_t walk_id, Addr line,
                          std::uint8_t row_event)
{
    record(kPrefetch, EventType::PrefetchActivate, when, walk_id, line, 0,
           row_event);
}

void
Session::prefetchFill(Cycle when, std::uint64_t walk_id, Addr line)
{
    record(kPrefetch, EventType::PrefetchFill, when, walk_id, line, 0, 0);
}

void
Session::rowOpen(Cycle when, unsigned bank, Addr row)
{
    record(kRow, EventType::RowOpen, when, 0, bank, row, 0);
}

void
Session::rowClose(Cycle when, unsigned bank, Addr row)
{
    record(kRow, EventType::RowClose, when, 0, bank, row, 0);
}

void
Session::blissBlacklist(Cycle now, AppId app)
{
    ++machineCounts_.blissBlacklists;
    record(kBliss, EventType::BlissBlacklist, now, 0, app, 0, 0);
}

void
Session::timeseriesSample(Cycle now, std::size_t txq_occupancy,
                          std::size_t prefetch_slots,
                          std::uint64_t outstanding_walks,
                          std::uint64_t row_hits,
                          std::uint64_t row_accesses)
{
    if (ts_.columns.empty())
        return;
    // DRAM stats may have been reset at the warmup boundary since the
    // last sample; a shrinking cumulative count restarts the deltas.
    if (row_hits < prevRowHits_ || row_accesses < prevRowAccesses_) {
        prevRowHits_ = 0;
        prevRowAccesses_ = 0;
    }
    const std::uint64_t hits = row_hits - prevRowHits_;
    const std::uint64_t accesses = row_accesses - prevRowAccesses_;
    prevRowHits_ = row_hits;
    prevRowAccesses_ = row_accesses;

    ts_.columns[0].second.push_back(static_cast<double>(now));
    ts_.columns[1].second.push_back(
        static_cast<double>(txq_occupancy));
    ts_.columns[2].second.push_back(
        static_cast<double>(prefetch_slots));
    ts_.columns[3].second.push_back(
        static_cast<double>(outstanding_walks));
    ts_.columns[4].second.push_back(stats::ratio(hits, accesses));
    ts_.columns[5].second.push_back(windowLat_.mean());
    windowLat_.reset();
}

void
Session::warmUp(std::size_t apps)
{
    warming_.assign(apps, 1);
}

void
Session::startMeasuring(AppId app)
{
    if (app < warming_.size())
        warming_[app] = 0;
}

void
Session::resetCounters()
{
    machineCounts_ = MachineCounters{};
    windowLat_.reset();
    ++epoch_;
}

std::shared_ptr<RunObs>
Session::finish(stats::Report &audit)
{
    // Prefetches issued in the measured window but never consumed by
    // their walk's replay (prefetch-chain and TLB-prefetch walks, or
    // replays that never ran) were fetched for nothing: useless.
    for (WalkRecord &rec : walks_) {
        if (rec.pfIssued && !rec.pfClassified && rec.pfEpoch == epoch_) {
            rec.pfClassified = true;
            ++machineCounts_.prefetchUseless;
        }
    }
    audit.add("walks", walkCounts_.walks);
    audit.add("walks_prefetch", walkCounts_.walksPrefetch);
    audit.add("walks_tlb_prefetch", walkCounts_.walksTlbPrefetch);
    audit.add("walks_leaf_dram", walkCounts_.walksLeafDram);
    audit.add("walk_steps", walkCounts_.walkSteps);
    audit.add("walk_steps_skipped", walkCounts_.walkStepsSkipped);
    for (std::size_t i = 0; i < kNumReplayClasses; ++i) {
        const auto cls = static_cast<ReplayClass>(i);
        audit.add(std::string("replay_") + replayClassName(cls),
                  walkCounts_.replay[i]);
    }
    for (std::size_t i = 0; i < kNumReplayClasses; ++i) {
        const auto cls = static_cast<ReplayClass>(i);
        const std::string prefix =
            std::string("replay_latency_") + replayClassName(cls);
        audit.add(prefix + "_avg", replayLat_[i].mean());
        audit.add(prefix + "_max", replayLat_[i].max());
    }
    audit.add("replay_latency_avg", totalLat_.mean());
    audit.add("replay_latency_max", totalLat_.max());
    replayHist_.addTo(audit, "replay_latency_hist.");
    audit.add("prefetch_issued", machineCounts_.prefetchIssued);
    audit.add("prefetch_useful", machineCounts_.prefetchUseful);
    audit.add("prefetch_late", machineCounts_.prefetchLate);
    audit.add("prefetch_useless", machineCounts_.prefetchUseless);
    audit.add("prefetch_dropped", machineCounts_.prefetchDropped);
    audit.add("prefetch_fault_suppressed", machineCounts_.prefetchFaults);
    audit.add("bliss_blacklists", machineCounts_.blissBlacklists);
    audit.add("trace_events", static_cast<std::uint64_t>(ring_.size()));
    audit.add("trace_dropped", dropped_);
    audit.add("timeseries_windows",
              static_cast<std::uint64_t>(
                  ts_.columns.empty() ? 0 : ts_.columns[0].second.size()));

    auto run = std::make_shared<RunObs>();
    run->cfg = cfg_;
    run->droppedEvents = dropped_;
    run->timeseries = std::move(ts_);
    // Unroll the ring into chronological order (oldest first).
    if (ringWrapped_) {
        run->events.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            run->events.push_back(
                ring_[(ringNext_ + i) % ring_.size()]);
        }
        ring_.clear();
    } else {
        run->events = std::move(ring_);
    }
    ring_ = {};
    ts_ = TimeSeries{};
    return run;
}

ScopedRun::ScopedRun()
{
    if (detail::globallyEnabled.load(std::memory_order_relaxed)) {
        session_ = std::make_unique<Session>(config());
        detail::tlsSession = session_.get();
    }
}

ScopedRun::~ScopedRun()
{
    if (session_ && detail::tlsSession == session_.get())
        detail::tlsSession = nullptr;
}

std::shared_ptr<RunObs>
ScopedRun::finish(stats::Report &audit)
{
    if (!session_)
        return nullptr;
    return session_->finish(audit);
}

} // namespace tempo::obs
