#include "prefetch/temporal.hh"

#include "common/log.hh"

namespace tempo {

TemporalPrefetcher::TemporalPrefetcher(const TemporalConfig &cfg)
    : cfg_(cfg), table_(cfg.tableEntries)
{
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
}

std::string
TemporalPrefetcher::configError(const TemporalConfig &cfg)
{
    // Successors are indexed modulo the table size.
    return cfg.tableEntries ? "" : "table_entries must be positive";
}

const std::string &
TemporalPrefetcher::name() const
{
    static const std::string name = "temporal";
    return name;
}

void
TemporalPrefetcher::observe(const MemRef &ref, Cycle now,
                            std::vector<PrefetchAction> &out)
{
    (void)now;
    const Addr line = lineAddr(ref.vaddr);

    // Train: update the previous line's successor with saturating
    // confidence (Triangel's re-confirmation discipline).
    const auto last = lastLine_.find(ref.stream);
    if (last != lastLine_.end() && last->second != line) {
        Entry &entry = table_[index(last->second)];
        if (entry.tag == last->second) {
            if (entry.next == line) {
                if (entry.confidence < 3)
                    ++entry.confidence;
            } else if (entry.confidence > 0) {
                --entry.confidence;
            } else {
                entry.next = line;
            }
        } else {
            if (entry.tag != kInvalidAddr)
                ++evictions_;
            entry.tag = last->second;
            entry.next = line;
            entry.confidence = 1;
            ++pairsRecorded_;
        }
    }
    lastLine_[ref.stream] = line;

    // Sampler: only streams with enough history may predict.
    if (++streamObs_[ref.stream] < cfg_.trainThreshold)
        return;

    // Predict: chase confident successors up to `degree` hops.
    Addr cursor = line;
    for (unsigned d = 0; d < cfg_.degree; ++d) {
        const Entry &entry = table_[index(cursor)];
        if (entry.tag != cursor || entry.next == kInvalidAddr
            || entry.confidence < cfg_.confidenceThreshold) {
            break;
        }
        out.push_back(PrefetchAction::data(entry.next));
        ++predictions_;
        cursor = entry.next;
    }
}

void
TemporalPrefetcher::report(stats::Report &out) const
{
    out.add("pairs_recorded", pairsRecorded_);
    out.add("evictions", evictions_);
    out.add("predictions", predictions_);
}

} // namespace tempo
