/**
 * @file
 * A classical per-stream stride prefetcher (reference-prediction-table
 * style). Unlike the IMP model, which needs the generator's index
 * stream, stride detection here is done the way hardware does it:
 * per-stream last-address + stride + 2-bit confidence. The paper's
 * Sec. 4.2 argues TEMPO is orthogonal to classical prefetching; this
 * unit lets the ablation bench demonstrate that.
 */

#ifndef TEMPO_PREFETCH_STRIDE_HH
#define TEMPO_PREFETCH_STRIDE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "prefetch/prefetcher.hh"
#include "stats/stats.hh"

namespace tempo {

struct StrideConfig {
    unsigned tableEntries = 64;
    unsigned confidenceThreshold = 2; //!< matches before prefetching
    unsigned degree = 2;              //!< lines prefetched per trigger
    unsigned distance = 4;            //!< strides ahead of the demand
};

class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(const StrideConfig &cfg);

    /** Why @p cfg cannot build an engine, or "" when it can. The
     * constructor asserts this; config loading reports it as an input
     * error. */
    static std::string configError(const StrideConfig &cfg);

    /**
     * Observe a demand reference; returns up to cfg.degree addresses to
     * prefetch (empty when not confident). @p out is cleared first.
     */
    void observe(std::uint32_t stream, Addr vaddr,
                 std::vector<Addr> &out);

    // Prefetcher interface (wraps the legacy observe above).
    const std::string &name() const override;
    void observe(const MemRef &ref, Cycle now,
                 std::vector<PrefetchAction> &out) override;

    std::uint64_t issued() const { return issued_; }
    std::uint64_t confidentStreams() const;

    void report(stats::Report &out) const override;

  private:
    struct Entry {
        bool valid = false;
        /** A demand at vaddr 0 is real history: tracked explicitly
         * instead of abusing lastAddr == 0 as the empty sentinel. */
        bool hasHistory = false;
        std::uint32_t stream = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
        std::uint64_t lastUse = 0;
    };

    Entry *findOrAllocate(std::uint32_t stream);

    StrideConfig cfg_;
    std::vector<Entry> table_;
    std::uint64_t tick_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t wrapDropped_ = 0; //!< targets outside [0, 2^64)
    std::vector<Addr> scratch_;     //!< for the Prefetcher adapter
};

} // namespace tempo

#endif // TEMPO_PREFETCH_STRIDE_HH
