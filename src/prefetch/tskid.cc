#include "prefetch/tskid.hh"

#include "common/log.hh"

namespace tempo {

TskidPrefetcher::TskidPrefetcher(const TskidConfig &cfg)
    : cfg_(cfg), table_(cfg.tableEntries)
{
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
}

std::string
TskidPrefetcher::configError(const TskidConfig &cfg)
{
    // findOrAllocate() always needs a victim entry.
    return cfg.tableEntries ? "" : "table_entries must be positive";
}

const std::string &
TskidPrefetcher::name() const
{
    static const std::string name = "tskid";
    return name;
}

TskidPrefetcher::Entry *
TskidPrefetcher::findOrAllocate(std::uint32_t stream)
{
    Entry *victim = nullptr;
    for (auto &entry : table_) {
        if (entry.valid && entry.stream == stream)
            return &entry;
        if (!victim || !entry.valid
            || (victim->valid && entry.lastUse < victim->lastUse)) {
            victim = &entry;
        }
    }
    *victim = Entry{};
    victim->valid = true;
    victim->stream = stream;
    return victim;
}

void
TskidPrefetcher::observe(const MemRef &ref, Cycle now,
                         std::vector<PrefetchAction> &out)
{
    (void)out; // issue happens via drain(), at the learned time
    Entry *entry = findOrAllocate(ref.stream);
    entry->lastUse = ++tick_;

    // Issue-time learning: EWMA of the stream's inter-touch interval.
    if (entry->hasHistory) {
        const Cycle interval =
            now >= entry->lastTouch ? now - entry->lastTouch : 0;
        entry->intervalEwma = entry->hasInterval
            ? (3 * entry->intervalEwma + interval) / 4
            : interval;
        entry->hasInterval = true;
    }
    entry->lastTouch = now;

    // Stride training (same discipline as the plain stride engine).
    const auto observed =
        static_cast<std::int64_t>(ref.vaddr)
        - static_cast<std::int64_t>(entry->lastAddr);
    const bool had_history = entry->hasHistory;
    entry->lastAddr = ref.vaddr;
    entry->hasHistory = true;

    if (!had_history)
        return;
    if (observed == entry->stride && observed != 0) {
        if (entry->confidence < 3)
            ++entry->confidence;
    } else {
        entry->stride = observed;
        entry->confidence = 0;
        return;
    }
    if (entry->confidence < cfg_.confidenceThreshold)
        return;

    for (unsigned d = 0; d < cfg_.degree; ++d) {
        const std::uint64_t steps = cfg_.distance + d;
        const Addr delta = static_cast<Addr>(entry->stride) * steps;
        const Addr target = ref.vaddr + delta; // mod 2^64
        const bool wrapped = entry->stride > 0 ? target < ref.vaddr
                                               : target > ref.vaddr;
        if (wrapped) {
            ++wrapDropped_;
            break;
        }
        // Predicted use: `steps` inter-touch intervals from now. Hold
        // the prefetch until leadCycles before that (clamped to now:
        // a slow-to-predict stream degrades to fire-immediately).
        const Cycle until = entry->intervalEwma * steps;
        const Cycle release = until > cfg_.leadCycles
            ? now + (until - cfg_.leadCycles)
            : now;
        if (pending_.size() >= cfg_.maxPending) {
            ++pendingDrops_;
            break;
        }
        pending_.emplace(release, target);
        ++scheduled_;
    }
}

void
TskidPrefetcher::drain(Cycle now, std::vector<PrefetchAction> &out)
{
    while (!pending_.empty() && pending_.begin()->first <= now) {
        out.push_back(PrefetchAction::data(pending_.begin()->second));
        pending_.erase(pending_.begin());
        ++released_;
    }
}

void
TskidPrefetcher::report(stats::Report &out) const
{
    out.add("scheduled", scheduled_);
    out.add("released", released_);
    out.add("still_pending", pending_.size());
    out.add("pending_drops", pendingDrops_);
    out.add("wrap_dropped", wrapDropped_);
}

} // namespace tempo
