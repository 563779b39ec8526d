/**
 * @file
 * A Triangel-style temporal pair-correlation prefetcher (Ainsworth &
 * Mukkara, ISCA 2024, arXiv 2406.10627): the Markov-1 "last successor"
 * table with the two Triangel refinements that matter at model scale —
 * saturating per-pair confidence (a pair must re-confirm before its
 * successor is trusted again after a mispredict) and a per-stream
 * training sampler that withholds predictions from streams without
 * enough history to justify the table traffic.
 *
 * Unlike the MISB model, all metadata here is on-chip (Triangel reuses
 * spare LLC capacity); the cost axis is therefore table reach, not
 * off-chip metadata bandwidth. Together the two span the irregular-
 * prefetcher design space the TEMPO interaction matrix probes.
 */

#ifndef TEMPO_PREFETCH_TEMPORAL_HH
#define TEMPO_PREFETCH_TEMPORAL_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "stats/stats.hh"

namespace tempo {

struct TemporalConfig {
    unsigned tableEntries = 8192;     //!< pair-correlation table size
    unsigned confidenceThreshold = 1; //!< confirmations before trusting
    unsigned degree = 2;              //!< successor-chain depth
    /** Per-stream observations before the stream may predict. */
    unsigned trainThreshold = 4;
};

class TemporalPrefetcher : public Prefetcher
{
  public:
    explicit TemporalPrefetcher(const TemporalConfig &cfg);
    /** As StridePrefetcher::configError(). */
    static std::string configError(const TemporalConfig &cfg);

    const std::string &name() const override;
    void observe(const MemRef &ref, Cycle now,
                 std::vector<PrefetchAction> &out) override;

    std::uint64_t predictions() const { return predictions_; }

    void report(stats::Report &out) const override;

  private:
    struct Entry {
        Addr tag = kInvalidAddr; //!< trigger line
        Addr next = kInvalidAddr;
        std::uint8_t confidence = 0; //!< saturating, 0..3
    };

    std::size_t
    index(Addr line) const
    {
        return (line / kLineBytes) % table_.size();
    }

    TemporalConfig cfg_;
    std::vector<Entry> table_;
    std::unordered_map<std::uint32_t, Addr> lastLine_;
    std::unordered_map<std::uint32_t, std::uint64_t> streamObs_;
    std::uint64_t pairsRecorded_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t predictions_ = 0;
};

} // namespace tempo

#endif // TEMPO_PREFETCH_TEMPORAL_HH
