/**
 * @file
 * A model of the Indirect Memory Prefetcher (Yu et al., MICRO 2015),
 * which captures A[B[i]] access patterns.
 *
 * In the trace-driven setting, the workload generator knows its own index
 * stream, so each indirect reference carries the virtual address the
 * stream will touch `distance` iterations ahead. IMP's *detection*
 * behaviour is modeled faithfully to its structure: a stream must first
 * train in the small indirect-pattern detector, and only a bounded number
 * of streams fit in the prefetch table (LRU). Its *address computation*
 * is modeled as exact once trained, matching the high accuracy the
 * original paper reports.
 *
 * What matters for TEMPO (paper Sec. 4.2) is preserved: IMP prefetches
 * cross page boundaries and therefore generate TLB misses and page-table
 * walks of their own, and successful IMP prefetches remove many ordinary
 * DRAM accesses, concentrating the remaining stall time on translation.
 */

#ifndef TEMPO_PREFETCH_IMP_HH
#define TEMPO_PREFETCH_IMP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "stats/stats.hh"

namespace tempo {

struct ImpConfig {
    unsigned prefetchTableEntries = 16; //!< concurrent streams tracked
    unsigned ipdEntries = 4;            //!< indirect pattern detector
    unsigned maxIndirectLevels = 2;
    unsigned prefetchDistance = 16;
    unsigned trainThreshold = 4; //!< observations before a stream is live
    /** Fraction of trained-stream observations that yield a prefetch
     * (index-fetch bandwidth and confidence limits). */
    double coverage = 0.7;
    /** Fraction of issued prefetches whose computed address is right;
     * the rest land on nearby-but-wrong pages — wasted traffic that
     * still costs translations (how IMP "easily thrashes TLBs",
     * TEMPO paper Sec. 4.2). */
    double accuracy = 0.8;
    std::uint64_t seed = 1234;
};

class ImpPrefetcher : public Prefetcher
{
  public:
    explicit ImpPrefetcher(const ImpConfig &cfg);

    /** Why @p cfg cannot build an engine, or "" when it can. The
     * constructor asserts this; config loading reports it as an input
     * error. */
    static std::string configError(const ImpConfig &cfg);

    /**
     * Observe one demand reference.
     * @param stream workload stream id of the reference
     * @param indirect true if the reference is part of an indirect
     *        (A[B[i]]) pattern
     * @param future_target vaddr the stream touches `distance` ahead
     * @return the vaddr to prefetch now, or kInvalidAddr
     */
    Addr observe(std::uint32_t stream, bool indirect, Addr future_target);

    // Prefetcher interface (wraps the legacy observe above).
    const std::string &name() const override;
    void observe(const MemRef &ref, Cycle now,
                 std::vector<PrefetchAction> &out) override;

    std::uint64_t issued() const { return issued_; }
    /** Streams currently resident AND trained — an evicted stream
     * leaves this count when it loses its table entry. */
    std::uint64_t trainedStreams() const;
    /** Training completions, cumulatively: an evicted-then-retrained
     * stream counts once per completion (the old "trained_streams"
     * stat conflated the two and double-counted retrains). */
    std::uint64_t trainEvents() const { return trainEvents_; }
    std::uint64_t mispredicted() const { return mispredicted_; }

    void report(stats::Report &out) const override;

  private:
    struct Entry {
        bool valid = false;
        std::uint32_t stream = 0;
        unsigned observations = 0;
        std::uint64_t lastUse = 0;
    };

    Entry *findOrAllocate(std::uint32_t stream);

    ImpConfig cfg_;
    std::vector<Entry> table_;
    Rng rng_;
    std::uint64_t tick_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t trainEvents_ = 0;
    std::uint64_t mispredicted_ = 0;
};

} // namespace tempo

#endif // TEMPO_PREFETCH_IMP_HH
