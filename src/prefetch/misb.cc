#include "prefetch/misb.hh"

#include "common/log.hh"

namespace tempo {

MisbPrefetcher::MisbPrefetcher(const MisbConfig &cfg)
    : cfg_(cfg), pairs_(cfg.pairEntries),
      metaCache_(cfg.metadataCacheEntries, kInvalidAddr)
{
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
}

std::string
MisbPrefetcher::configError(const MisbConfig &cfg)
{
    // Both tables are indexed modulo their size.
    if (!cfg.pairEntries)
        return "pair_entries must be positive";
    return cfg.metadataCacheEntries
        ? "" : "metadata_cache_entries must be positive";
}

const std::string &
MisbPrefetcher::name() const
{
    static const std::string name = "misb";
    return name;
}

void
MisbPrefetcher::observe(const MemRef &ref, Cycle now,
                        std::vector<PrefetchAction> &out)
{
    (void)now;
    const Addr line = lineAddr(ref.vaddr);

    // Record the temporal pair (previous line -> this line).
    const auto last = lastLine_.find(ref.stream);
    if (last != lastLine_.end() && last->second != line) {
        PairEntry &pair = pairs_[pairIndex(last->second)];
        if (pair.tag != last->second && pair.tag != kInvalidAddr)
            ++pairEvictions_;
        pair.tag = last->second;
        pair.next = line;
        ++pairsRecorded_;
    }
    lastLine_[ref.stream] = line;

    // Triangel-style sampler: streams predict only once they have
    // shown enough history to be worth the metadata traffic.
    if (++streamObs_[ref.stream] < cfg_.trainThreshold)
        return;

    // Chase the successor chain. Each hop needs its trigger line's
    // metadata on chip; a miss costs an off-chip metadata fetch and
    // stops the chain (the successor issues on a later trigger).
    Addr cursor = line;
    for (unsigned d = 0; d < cfg_.degree; ++d) {
        const PairEntry &pair = pairs_[pairIndex(cursor)];
        if (pair.tag != cursor || pair.next == kInvalidAddr)
            break;
        Addr &cached = metaCache_[metaIndex(cursor)];
        if (cached != cursor) {
            cached = cursor;
            ++metadataMisses_;
            out.push_back(PrefetchAction::metadata(cursor));
            break;
        }
        ++metadataHits_;
        out.push_back(PrefetchAction::data(pair.next));
        cursor = pair.next;
    }
}

void
MisbPrefetcher::report(stats::Report &out) const
{
    out.add("pairs_recorded", pairsRecorded_);
    out.add("pair_evictions", pairEvictions_);
    out.add("metadata_hits", metadataHits_);
    out.add("metadata_misses", metadataMisses_);
}

} // namespace tempo
