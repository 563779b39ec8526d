/**
 * @file
 * A T-SKID-style delayed stride prefetcher (Kondguli & Huang's
 * "T-SKID: Timing Skid Prefetcher" lineage): stride detection identical
 * in spirit to prefetch/stride.hh, plus per-stream *issue-time*
 * learning. Instead of firing the moment a stream turns confident, the
 * engine estimates when the predicted address will actually be used
 * (last-use interval EWMA x strides ahead) and holds the prefetch until
 * `leadCycles` before that point.
 *
 * Why it earns a slot in the TEMPO matrix: a timing-aware prefetcher
 * shifts its memory traffic off the demand-miss burst, so its page
 * table walks (every prefetch still translates) interleave differently
 * with TEMPO's PT-triggered replays than the fire-immediately stride
 * engine — a distinct point on the interference spectrum.
 *
 * Held prefetches live in a bounded time-ordered queue released by
 * drain(); see docs/MODEL.md "Prefetcher zoo" for the drain-granularity
 * simplification.
 */

#ifndef TEMPO_PREFETCH_TSKID_HH
#define TEMPO_PREFETCH_TSKID_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "stats/stats.hh"

namespace tempo {

struct TskidConfig {
    unsigned tableEntries = 64;
    unsigned confidenceThreshold = 2; //!< matches before prefetching
    unsigned degree = 2;              //!< lines prefetched per trigger
    unsigned distance = 4;            //!< strides ahead of the demand
    /** Target lead time: release a prefetch this many cycles before
     * its predicted use (covers DRAM latency plus the translation). */
    Cycle leadCycles = 400;
    /** Bound on prefetches held back awaiting their release time. */
    unsigned maxPending = 64;
};

class TskidPrefetcher : public Prefetcher
{
  public:
    explicit TskidPrefetcher(const TskidConfig &cfg);
    /** As StridePrefetcher::configError(). */
    static std::string configError(const TskidConfig &cfg);

    const std::string &name() const override;
    void observe(const MemRef &ref, Cycle now,
                 std::vector<PrefetchAction> &out) override;
    void drain(Cycle now, std::vector<PrefetchAction> &out) override;

    std::uint64_t scheduled() const { return scheduled_; }
    std::uint64_t released() const { return released_; }
    std::uint64_t pendingDrops() const { return pendingDrops_; }

    void report(stats::Report &out) const override;

  private:
    struct Entry {
        bool valid = false;
        bool hasHistory = false;
        bool hasInterval = false;
        std::uint32_t stream = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        Cycle lastTouch = 0;
        Cycle intervalEwma = 0; //!< cycles between touches (EWMA)
        std::uint64_t lastUse = 0;
    };

    Entry *findOrAllocate(std::uint32_t stream);

    TskidConfig cfg_;
    std::vector<Entry> table_;
    /** Held prefetches, ordered by release cycle. std::multimap keeps
     * equal keys in insertion order, so drains are deterministic. */
    std::multimap<Cycle, Addr> pending_;
    std::uint64_t tick_ = 0;
    std::uint64_t scheduled_ = 0;
    std::uint64_t released_ = 0;
    std::uint64_t pendingDrops_ = 0;
    std::uint64_t wrapDropped_ = 0;
};

} // namespace tempo

#endif // TEMPO_PREFETCH_TSKID_HH
