/**
 * @file
 * Row-buffer management policies.
 *
 * The open and closed policies are stateless. The adaptive policy follows
 * Awasthi et al. (PACT 2011): a set-associative *prediction cache* indexed
 * by row id remembers whether a row attracted extra hits the last time it
 * was open, and predicts whether to keep it open this time.
 */

#ifndef TEMPO_DRAM_ROW_POLICY_HH
#define TEMPO_DRAM_ROW_POLICY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/config.hh"

namespace tempo {

/**
 * Prediction cache for the adaptive row policy. Each entry holds a 2-bit
 * saturating counter: >=2 means "this row historically earned row-buffer
 * hits while open — keep it open".
 */
class RowPredictor
{
  public:
    /** @p sets must be a power of two (rows index sets by their low
     * bits). */
    RowPredictor(unsigned sets, unsigned ways);

    /** Should a just-accessed instance of @p row stay open? Unknown rows
     * default to open (optimistic, like the original proposal). */
    bool predictKeepOpen(Addr row) const;

    /** Learn from a closed row: it saw @p hits row-buffer hits while it
     * was open. */
    void update(Addr row, unsigned hits);

    std::uint64_t lookups() const { return lookups_; }

  private:
    /** update() stamps every entry findOrAllocate() hands out, so an
     * entry is valid exactly when its lastUse is non-zero. */
    struct Entry {
        Addr row = 0;
        std::uint64_t lastUse : 56 = 0;
        std::uint64_t counter : 8 = 2; // weakly keep-open

        bool valid() const { return lastUse != 0; }
    };
    static_assert(sizeof(Entry) == 16, "a predictor entry is 16 bytes");

    const Entry *find(Addr row) const;
    Entry *findOrAllocate(Addr row);
    std::size_t
    setBase(Addr row) const
    {
        return static_cast<std::size_t>(row & setMask_) * ways_;
    }

    unsigned sets_;
    unsigned ways_;
    Addr setMask_;
    std::vector<Entry> entries_; //!< empty until the first update()
    std::uint64_t tick_ = 0;
    mutable std::uint64_t lookups_ = 0;
};

/**
 * Facade combining the policy kind with the predictor. Banks ask it one
 * question after each access: keep the row open or precharge it now?
 */
class RowPolicy
{
  public:
    explicit RowPolicy(const DramConfig &cfg);

    /** Decision made right after an access to @p row completes. */
    bool keepOpenAfterAccess(Addr row);

    /** Feedback when a row finally closes having seen @p hits hits. */
    void rowClosed(Addr row, unsigned hits);

    RowPolicyKind kind() const { return kind_; }

  private:
    RowPolicyKind kind_;
    RowPredictor predictor_;
};

} // namespace tempo

#endif // TEMPO_DRAM_ROW_POLICY_HH
