#include "oracles/reference_scheduler.hh"

#include "common/log.hh"

namespace tempo {

std::uint32_t
RefFrFcfsScheduler::pick(const TxQueue &txq, unsigned ch,
                         const DramDevice &dram, Cycle now)
{
    TEMPO_ASSERT(!txq.empty(ch), "pick on empty queue");
    std::uint32_t best = TxQueue::kNone;
    SchedKey best_key{};
    for (std::uint32_t id = txq.seqHead(ch); id != TxQueue::kNone;
         id = txq.seqNext(id)) {
        const QueuedRequest &entry = txq.entry(id);
        const bool row_hit = dram.wouldRowHit(entry.req.paddr);
        const bool bank_ready = dram.bankReadyAt(entry.req.paddr) <= now;
        const SchedKey key = scoreKey(entry, row_hit, bank_ready, now);
        if (best == TxQueue::kNone || key > best_key) {
            best = id;
            best_key = key;
        }
    }
    TEMPO_ASSERT(best != TxQueue::kNone, "no candidate in non-empty queue");
    return best;
}

std::uint32_t
RefBlissScheduler::pick(const TxQueue &txq, unsigned ch,
                        const DramDevice &dram, Cycle now)
{
    TEMPO_ASSERT(!txq.empty(ch), "pick on empty queue");
    maybeClear(now);

    if (pendingPrefetchAffinity_) {
        for (std::uint32_t id = txq.seqHead(ch); id != TxQueue::kNone;
             id = txq.seqNext(id)) {
            const QueuedRequest &entry = txq.entry(id);
            if (entry.req.kind == ReqKind::TempoPrefetch
                && entry.req.app == affinityApp_)
                return id;
        }
    }

    std::uint32_t best = TxQueue::kNone;
    SchedKey best_key{};
    for (std::uint32_t id = txq.seqHead(ch); id != TxQueue::kNone;
         id = txq.seqNext(id)) {
        const QueuedRequest &entry = txq.entry(id);
        const bool row_hit = dram.wouldRowHit(entry.req.paddr);
        const bool bank_ready = dram.bankReadyAt(entry.req.paddr) <= now;
        const SchedKey key = blissKey(entry, row_hit, bank_ready, now);
        if (best == TxQueue::kNone || key > best_key) {
            best = id;
            best_key = key;
        }
    }
    TEMPO_ASSERT(best != TxQueue::kNone, "no candidate in non-empty queue");
    return best;
}

std::unique_ptr<Scheduler>
makeReferenceScheduler(SchedKind kind, const SchedulerConfig &cfg)
{
    switch (kind) {
      case SchedKind::FrFcfs:
        return std::make_unique<RefFrFcfsScheduler>(cfg);
      case SchedKind::Bliss:
        return std::make_unique<RefBlissScheduler>(cfg);
    }
    TEMPO_PANIC("unknown scheduler kind");
}

} // namespace tempo
