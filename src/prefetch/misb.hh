/**
 * @file
 * A MISB-style irregular prefetcher (Managed Irregular Stream Buffer,
 * Wenisch et al. lineage): temporal pair correlation over cache lines,
 * with the defining MISB property modeled explicitly — the correlation
 * metadata is too large for on-chip storage, so it lives off-chip and
 * is demand-cached on chip. A prediction whose metadata misses the
 * on-chip metadata cache cannot issue immediately: it costs an extra
 * off-chip *metadata fetch* first, surfaced to the core as a
 * PrefetchAction::Kind::Metadata and modeled as an uncached DRAM read
 * (bandwidth + queue occupancy, no cache fill).
 *
 * Why it earns a slot in the TEMPO matrix: MISB covers the irregular
 * access patterns stride engines miss, but pays for coverage with
 * metadata traffic that competes with TEMPO's PT-triggered prefetches
 * for DRAM bandwidth — the interaction the matrix bench measures.
 *
 * Simplifications (docs/MODEL.md "Prefetcher zoo"): the structural
 * address space is collapsed to a direct-mapped physical pair table of
 * bounded size, and a metadata fetch enables predictions from its line
 * immediately after installation rather than after the fetch's DRAM
 * round trip.
 */

#ifndef TEMPO_PREFETCH_MISB_HH
#define TEMPO_PREFETCH_MISB_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "stats/stats.hh"

namespace tempo {

struct MisbConfig {
    /** Total pair-correlation metadata entries (the off-chip store;
     * bounded so the model stays finite). */
    unsigned pairEntries = 8192;
    /** On-chip metadata cache entries; misses cost a metadata fetch. */
    unsigned metadataCacheEntries = 256;
    unsigned degree = 2; //!< successor-chain depth per trigger
    /** Per-stream observations before the stream may predict. */
    unsigned trainThreshold = 2;
    /** Outstanding off-chip metadata reads the core allows (enforced
     * by SimCore, which models the DRAM traffic). */
    unsigned maxMetadataInflight = 8;
};

class MisbPrefetcher : public Prefetcher
{
  public:
    explicit MisbPrefetcher(const MisbConfig &cfg);
    /** As StridePrefetcher::configError(). */
    static std::string configError(const MisbConfig &cfg);

    const std::string &name() const override;
    void observe(const MemRef &ref, Cycle now,
                 std::vector<PrefetchAction> &out) override;

    std::uint64_t metadataHits() const { return metadataHits_; }
    std::uint64_t metadataMisses() const { return metadataMisses_; }

    void report(stats::Report &out) const override;

  private:
    struct PairEntry {
        Addr tag = kInvalidAddr; //!< trigger line
        Addr next = kInvalidAddr;
    };

    std::size_t
    pairIndex(Addr line) const
    {
        return (line / kLineBytes) % pairs_.size();
    }

    std::size_t
    metaIndex(Addr line) const
    {
        return (line / kLineBytes) % metaCache_.size();
    }

    MisbConfig cfg_;
    std::vector<PairEntry> pairs_;
    std::vector<Addr> metaCache_; //!< cached-metadata line tags
    std::unordered_map<std::uint32_t, Addr> lastLine_;
    std::unordered_map<std::uint32_t, std::uint64_t> streamObs_;
    std::uint64_t pairsRecorded_ = 0;
    std::uint64_t pairEvictions_ = 0;
    std::uint64_t metadataHits_ = 0;
    std::uint64_t metadataMisses_ = 0;
};

} // namespace tempo

#endif // TEMPO_PREFETCH_MISB_HH
