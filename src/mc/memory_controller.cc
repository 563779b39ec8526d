#include "mc/memory_controller.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/profiler.hh"
#include "obs/obs.hh"

namespace tempo {

std::unique_ptr<Scheduler>
makeScheduler(SchedKind kind, const SchedulerConfig &cfg)
{
    switch (kind) {
      case SchedKind::FrFcfs:
        return std::make_unique<FrFcfsScheduler>(cfg);
      case SchedKind::Bliss:
        return std::make_unique<BlissScheduler>(cfg);
    }
    TEMPO_PANIC("unknown scheduler kind");
}

MemoryController::MemoryController(EventQueue &eq, DramDevice &dram,
                                   const McConfig &cfg,
                                   SchedulerFactory make_scheduler)
    : eq_(eq), dram_(dram), cfg_(cfg),
      txq_(dram, /*per_app_index=*/cfg.sched == SchedKind::Bliss)
{
    SchedulerConfig sched_cfg = cfg.scheduler;
    sched_cfg.tempoGrouping = cfg.tempoEnabled && cfg.tempoGrouping;
    sched_cfg.blissTempoAffinity = cfg.tempoEnabled;
    sched_ = make_scheduler(cfg.sched, sched_cfg);
    channels_.resize(dram.config().channels);
}

void
MemoryController::submit(MemRequest &&req)
{
    const DramCoord coord = dram_.map().decode(req.paddr);
    submitDecoded(std::move(req), coord);
}

void
MemoryController::submitDecoded(MemRequest &&req, const DramCoord &coord)
{
    prof::Scope prof_scope(prof::Component::Mc);
    const unsigned ch = coord.channel;
    Channel &channel = channels_[ch];

    const std::uint32_t id = txq_.enqueue(
        QueuedRequest{std::move(req), eq_.now(), seq_++}, coord);
    const QueuedRequest &queued = txq_.entry(id);

    // A TEMPO-tagged PT request occupies two Tx Q slots (the paper splits
    // it rather than widening the queue). The high-water mark keeps its
    // historical accounting — channel depth plus the split of the entry
    // just added — while queueOccupancy() reports every split.
    const std::size_t occupancy =
        txq_.size(ch) + (queued.req.tempo.tagged ? 1 : 0);
    highWater_ = std::max(highWater_, occupancy);

    if (auto *o = obs::session()) {
        o->txqEnqueue(eq_.now(), ch,
                      static_cast<std::uint8_t>(queued.req.kind),
                      queued.req.walkId, occupancy);
        if (queued.req.tempo.tagged)
            o->txqSplit(eq_.now(), ch, queued.req.walkId);
    }

    scheduleKick(ch, std::max(eq_.now(), channel.busFreeAt));
}

void
MemoryController::scheduleKick(unsigned ch, Cycle when)
{
    Channel &channel = channels_[ch];
    if (channel.kickPending)
        return;
    channel.kickPending = true;
    eq_.schedule(when, hotCapture([this, ch] {
                     channels_[ch].kickPending = false;
                     kick(ch);
                 }));
}

void
MemoryController::kick(unsigned ch)
{
    prof::Scope prof_scope(prof::Component::Mc);
    Channel &channel = channels_[ch];
    if (txq_.empty(ch))
        return;
    const Cycle now = eq_.now();
    if (now < channel.busFreeAt) {
        scheduleKick(ch, channel.busFreeAt);
        return;
    }
    const std::uint32_t id = sched_->pick(txq_, ch, dram_, now);
    dispatch(ch, id);
    if (!txq_.empty(ch))
        scheduleKick(ch, channel.busFreeAt);
}

void
MemoryController::dispatch(unsigned ch, std::uint32_t id)
{
    Channel &channel = channels_[ch];
    // Unlink from the scheduling index; the slot stays allocated as the
    // in-flight record until completed() takes it. No submit can happen
    // between here and the event schedule below, so the reference is
    // stable.
    txq_.remove(id);
    const QueuedRequest &entry = txq_.entry(id);

    const Cycle now = eq_.now();
    sched_->served(entry, now);

    // TEMPO row holds: PT rows linger for the anticipation delay; rows
    // opened by prefetches linger for the grace period (Sec. 4.3).
    Cycle hold = 0;
    if (cfg_.tempoEnabled) {
        if (entry.req.kind == ReqKind::PtWalk)
            hold = cfg_.tempoPtRowHold;
        else if (entry.req.kind == ReqKind::TempoPrefetch)
            hold = cfg_.tempoGracePeriod;
    }

    const DramResult result = dram_.access(
        entry.req.paddr, entry.req.isWrite,
        entry.req.kind == ReqKind::TempoPrefetch, entry.req.app, now,
        hold);

    if (entry.req.kind == ReqKind::TempoPrefetch) {
        if (auto *o = obs::session()) {
            o->prefetchActivate(now, entry.req.walkId, entry.req.paddr,
                                static_cast<std::uint8_t>(result.event));
        }
    }

    // One transaction occupies the channel's command/data path per burst.
    channel.busFreeAt = now + dram_.config().tBurst;

    eq_.schedule(result.complete,
                 hotCapture<EventQueue::kInlineBytes>(
                     [this, id, result] { completed(id, result); }));
}

void
MemoryController::completed(std::uint32_t slot, const DramResult &result)
{
    prof::Scope prof_scope(prof::Component::Mc);
    // Move the request out and free the slot first: the callbacks below
    // may re-entrantly submit() and grow the arena.
    QueuedRequest entry = txq_.take(slot);

    const auto kind_idx = static_cast<std::size_t>(entry.req.kind);
    TEMPO_ASSERT(kind_idx < kKinds, "bad kind");
    ++servedCount_[kind_idx];
    switch (result.event) {
      case RowEvent::Hit: ++rowHitCount_[kind_idx]; break;
      case RowEvent::Miss: ++rowMissCount_[kind_idx]; break;
      case RowEvent::Conflict: ++rowConflictCount_[kind_idx]; break;
    }
    const Cycle queue_delay = result.start - entry.arrival;
    queueDelaySum_[kind_idx] += static_cast<double>(queue_delay);

    // PT? detector + Prefetch Engine: a completed, tagged leaf PT read
    // yields the PTE contents; prefetch the replay's line (Sec. 4.1b).
    if (cfg_.tempoEnabled && entry.req.tempo.tagged) {
        if (!entry.req.tempo.pteValid) {
            ++pfFaults_; // page fault: suppressed (Sec. 4.5)
            if (auto *o = obs::session())
                o->prefetchFault(result.complete, entry.req.walkId);
        } else {
            firePrefetch(entry, result.complete);
        }
    }

    if (entry.req.kind == ReqKind::TempoPrefetch) {
        if (auto *o = obs::session()) {
            o->prefetchFill(result.complete, entry.req.walkId,
                            entry.req.paddr);
        }
        if (onTempoPrefetchFill && cfg_.tempoLlcFill)
            onTempoPrefetchFill(entry.req.paddr, entry.req.app);
        // Release any replay that merged with this prefetch.
        pendingPrefetch_.close(entry.req.paddr, result.complete);
    }

    if (entry.req.onComplete) {
        MemResult res;
        res.complete = result.complete;
        res.queueDelay = queue_delay;
        res.rowEvent = static_cast<std::uint8_t>(result.event);
        entry.req.onComplete(res);
    }
}

void
MemoryController::firePrefetch(const QueuedRequest &pt_entry, Cycle when)
{
    const Addr target = pt_entry.req.tempo.replayPaddr;
    TEMPO_ASSERT(target != kInvalidAddr, "tagged PT without target");

    // Decode the prefetch line once: the drop check and the delayed
    // submit share the coordinates (lineAddr only clears offset bits
    // below the column field, so the decode matches the full target's).
    const Addr line = lineAddr(target);
    const DramCoord coord = dram_.map().decode(line);
    if (txq_.size(coord.channel) >= cfg_.prefetchDropDepth) {
        ++pfDropped_;
        if (auto *o = obs::session())
            o->prefetchDrop(when, pt_entry.req.walkId, line);
        return;
    }
    ++pfIssued_;
    pendingPrefetch_.open(line);
    if (auto *o = obs::session())
        o->prefetchIssue(when, pt_entry.req.walkId, line);

    eq_.schedule(when + cfg_.prefetchEngineDelay,
                 hotCapture<EventQueue::kInlineBytes>(
                     [this, line, coord, app = pt_entry.req.app,
                      walk = pt_entry.req.walkId] {
                         MemRequest pf;
                         pf.paddr = line;
                         pf.isWrite = false;
                         pf.kind = ReqKind::TempoPrefetch;
                         pf.app = app;
                         pf.walkId = walk;
                         submitDecoded(std::move(pf), coord);
                     }));
}

bool
MemoryController::mergeWithPendingPrefetch(Addr line, Waiter waiter)
{
    return pendingPrefetch_.wait(lineAddr(line), std::move(waiter));
}

std::size_t
MemoryController::queueOccupancy() const
{
    return txq_.totalOccupancy();
}

std::uint64_t
MemoryController::served(ReqKind kind) const
{
    return servedCount_[static_cast<std::size_t>(kind)];
}

std::uint64_t
MemoryController::rowHitsFor(ReqKind kind) const
{
    return rowHitCount_[static_cast<std::size_t>(kind)];
}

double
MemoryController::avgQueueDelay(ReqKind kind) const
{
    const auto idx = static_cast<std::size_t>(kind);
    return servedCount_[idx]
        ? queueDelaySum_[idx] / static_cast<double>(servedCount_[idx])
        : 0.0;
}

void
MemoryController::resetStats()
{
    for (std::size_t i = 0; i < kKinds; ++i) {
        servedCount_[i] = 0;
        rowHitCount_[i] = 0;
        rowMissCount_[i] = 0;
        rowConflictCount_[i] = 0;
        queueDelaySum_[i] = 0;
    }
    pfIssued_ = 0;
    pfDropped_ = 0;
    pfFaults_ = 0;
    highWater_ = 0;
}

void
MemoryController::report(stats::Report &out) const
{
    static const ReqKind kinds[] = {
        ReqKind::Regular, ReqKind::Replay, ReqKind::PtWalk,
        ReqKind::TempoPrefetch, ReqKind::ImpPrefetch,
        ReqKind::Writeback};
    for (ReqKind kind : kinds) {
        const auto idx = static_cast<std::size_t>(kind);
        const std::string prefix = std::string(reqKindName(kind)) + ".";
        out.add(prefix + "served", servedCount_[idx]);
        out.add(prefix + "row_hits", rowHitCount_[idx]);
        out.add(prefix + "row_conflicts", rowConflictCount_[idx]);
        out.add(prefix + "avg_queue_delay", avgQueueDelay(kind));
    }
    out.add("tempo.prefetches_issued", pfIssued_);
    out.add("tempo.prefetches_dropped", pfDropped_);
    out.add("tempo.fault_suppressed", pfFaults_);
    out.add("queue_high_water", static_cast<std::uint64_t>(highWater_));
}

} // namespace tempo
