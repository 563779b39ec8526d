/**
 * @file
 * The indexed transaction queue: a freelist-backed slot arena shared by
 * all channels, threaded onto intrusive per-(bank, app, kind-group)
 * FIFOs plus a per-bank row-hit lookaside keyed by the currently open
 * rows. The DRAM coordinates of a request are decoded exactly once, at
 * enqueue, and cached in the slot.
 *
 * The point of the structure is that an FR-FCFS/BLISS pick no longer
 * rescans every queued request: within one (bank, app, group) sub-FIFO
 * every entry shares its kind group, its application (and therefore its
 * BLISS blacklist status), and its bank-ready state, so the only two
 * entries that can win the (klass, seq) argmax are
 *
 *   - the sub-FIFO head (oldest of the group), and
 *   - per currently-open row of the bank, the oldest entry of the group
 *     that would row-hit it (the lookaside list head).
 *
 * A pick therefore inspects O(non-empty (bank, app, group) sub-FIFOs)
 * heads instead of O(N) entries, and provably selects the same argmax as
 * a flat scan of the channel (the oracle in
 * tests/oracles/reference_scheduler.hh, checked pick by pick by the
 * randomized differential test in tests/tx_queue_test.cpp):
 * heads are scored with their true key, non-head FIFO candidates are
 * dominated by their head, and a head that actually row-hits is also
 * enumerated through the lookaside with its higher row-hit class.
 *
 * Starvation needs no extra index: arrival times are monotone in seq
 * within a sub-FIFO, so if any entry is starved the head is starved
 * too, and all starved entries share one priority class.
 *
 * Dispatch unlinks a slot from the index but keeps it in the arena as
 * the in-flight record until completion releases it, so a request is
 * never copied or memmoved between submit and completion.
 */

#ifndef TEMPO_MC_TX_QUEUE_HH
#define TEMPO_MC_TX_QUEUE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "dram/dram.hh"
#include "mc/request.hh"

namespace tempo {

/** Kind groups the candidate index separates (paper Sec. 4.3(b)). */
enum TxGroup : std::uint8_t {
    kGroupPt = 0,      //!< page-table walker references
    kGroupTempoPf = 1, //!< TEMPO post-translation prefetches
    kGroupOther = 2,   //!< everything else (demand, IMP, writebacks)
};
inline constexpr unsigned kNumTxGroups = 3;

inline TxGroup
txGroupOf(ReqKind kind)
{
    if (kind == ReqKind::PtWalk)
        return kGroupPt;
    if (kind == ReqKind::TempoPrefetch)
        return kGroupTempoPf;
    return kGroupOther;
}

class TxQueue : public RowTransitionListener
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /**
     * Registers as the device's row-transition listener and snapshots
     * any rows that are already open.
     *
     * @param per_app_index split sub-FIFOs by application. Required by
     *     BLISS (entries of one sub-FIFO must share their blacklist
     *     status, and the affinity rule needs per-app prefetch heads);
     *     unnecessary overhead for plain FR-FCFS, whose ordering never
     *     looks at the application.
     */
    explicit TxQueue(DramDevice &dram, bool per_app_index = true);
    ~TxQueue() override;

    /** Does this queue maintain per-application sub-FIFOs? */
    bool perAppIndex() const { return perAppIndex_; }

    TxQueue(const TxQueue &) = delete;
    TxQueue &operator=(const TxQueue &) = delete;

    /**
     * Enqueue @p entry, decoding its DRAM coordinates once. Entries of
     * one channel must arrive in strictly increasing seq and
     * non-decreasing arrival order (the index relies on sub-FIFOs being
     * age-sorted). Returns the slot id.
     */
    std::uint32_t enqueue(QueuedRequest &&entry)
    {
        const DramCoord coord = dram_.map().decode(entry.req.paddr);
        return enqueue(std::move(entry), coord);
    }

    /** Enqueue with a coordinate the caller already decoded (the
     * memory controller decodes the target to pick its channel). */
    std::uint32_t enqueue(QueuedRequest &&entry, const DramCoord &coord);

    /**
     * Unlink slot @p id from every scheduling index; the slot stays
     * allocated as the in-flight record until release()/take().
     */
    void remove(std::uint32_t id);

    /** Return a dispatched slot to the freelist. */
    void release(std::uint32_t id);

    /** Move the request out of a dispatched slot and release it. Safe
     * against re-entrant enqueue from completion callbacks. */
    QueuedRequest take(std::uint32_t id);

    QueuedRequest &entry(std::uint32_t id) { return slots_[id].entry; }
    const QueuedRequest &entry(std::uint32_t id) const
    {
        return slots_[id].entry;
    }
    /** Coordinates cached at enqueue (decoded exactly once). */
    const DramCoord &coord(std::uint32_t id) const
    {
        return slots_[id].coord;
    }

    unsigned channels() const
    {
        return static_cast<unsigned>(channels_.size());
    }
    /** Queued entries in @p ch (one per request, no tagged split). */
    std::size_t size(unsigned ch) const { return channels_[ch].count; }
    bool empty(unsigned ch) const { return channels_[ch].count == 0; }
    /** Queued slots in @p ch counting tagged PT entries twice (the
     * paper's two-slot split encoding). Maintained incrementally. */
    std::size_t occupancy(unsigned ch) const
    {
        return channels_[ch].occupancy;
    }
    /** Sum of occupancy(ch) over all channels. O(1), for sampling. */
    std::size_t totalOccupancy() const { return totalOccupancy_; }
    /** Total queued entries across channels. */
    std::size_t totalSize() const { return totalCount_; }

    /** O(N) recount of totalOccupancy() for tests: walks the per-channel
     * seq lists and re-derives the tagged split from each entry. */
    std::size_t bruteForceOccupancy() const;

    // --- Seq-ordered iteration (depth-1 picks, the flat-scan oracle in
    // tests/oracles/, tests) ---
    std::uint32_t seqHead(unsigned ch) const
    {
        return channels_[ch].seqHead;
    }
    std::uint32_t seqNext(std::uint32_t id) const
    {
        return slots_[id].seqNext;
    }

    /**
     * Enumerate the candidate heads of channel @p ch: for each active
     * bank, each non-empty (app, group) sub-FIFO head — scored by the
     * caller as a non-row-hit — and, per open row of the bank, the
     * row-hit lookaside head. @p fn is invoked as
     * fn(id, entry, row_hit, bank_ready).
     *
     * The FIFO head is visited exactly once, with its true row-hit
     * status checked directly against the bank's open rows: an entry
     * enqueued into an empty FIFO never joins a row bucket (the lazy-
     * bucket invariant — at most one non-bucket entry per FIFO, always
     * the head), so the head cannot be assumed to appear under a
     * bucket. A bucket head equal to the FIFO head is skipped: the
     * direct visit already scored it as a row-hit.
     */
    template <typename Fn>
    void
    forEachCandidate(unsigned ch, Cycle now, Fn &&fn) const
    {
        for (const std::uint32_t fb : activeBanks_[ch]) {
            const BankIndex &bank = banks_[fb];
            const bool bank_ready = dram_.bankReadyAtFlat(fb) <= now;
            for (const std::uint32_t pi : bank.activePairs) {
                const Pair &pair = bank.pairs[pi];
                const std::uint32_t head = pair.fifo.head;
                const std::uint64_t head_key = slots_[head].rowKey;
                bool head_hit = false;
                for (const std::uint64_t row_key : bank.openRows)
                    head_hit |= row_key == head_key;
                fn(head, slots_[head].entry, head_hit, bank_ready);
                if (pair.rows.empty())
                    continue;
                for (const std::uint64_t row_key : bank.openRows) {
                    for (const RowBucket &bucket : pair.rows) {
                        if (bucket.key != row_key)
                            continue;
                        const std::uint32_t hit = bucket.list.head;
                        if (hit != head)
                            fn(hit, slots_[hit].entry, /*row_hit=*/true,
                               bank_ready);
                        break;
                    }
                }
            }
        }
    }

    /** Oldest queued TEMPO prefetch of @p app in channel @p ch, or
     * kNone (the BLISS stream-switch affinity rule). */
    std::uint32_t minSeqPrefetch(unsigned ch, AppId app) const;

    // --- RowTransitionListener ---
    void rowOpened(unsigned flat_bank, Addr row,
                   unsigned segment) override;
    void rowClosed(unsigned flat_bank, Addr row,
                   unsigned segment) override;

  private:
    struct List {
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    struct Slot {
        QueuedRequest entry;
        DramCoord coord{};
        std::uint64_t rowKey = 0; //!< row * subRowFactor + segment
        std::uint32_t flatBank = 0;
        std::uint16_t appIdx = 0;
        std::uint8_t group = kGroupOther;
        bool queued = false;
        /** In a row-hit lookaside bucket? An entry enqueued into an
         * empty FIFO skips bucket insertion (it is the head, whose
         * row-hit status forEachCandidate checks directly); everything
         * else joins the bucket for its rowKey. */
        bool inRowBucket = false;
        // Intrusive links: channel seq order, (bank, app, group) FIFO,
        // and the (row, app, group) lookaside list.
        std::uint32_t seqPrev = kNone, seqNext = kNone;
        std::uint32_t fifoPrev = kNone, fifoNext = kNone;
        std::uint32_t rowPrev = kNone, rowNext = kNone;
        std::uint32_t nextFree = kNone;
    };

    struct ChannelIndex {
        std::uint32_t seqHead = kNone;
        std::uint32_t seqTail = kNone;
        std::size_t count = 0;
        std::size_t occupancy = 0;
    };

    /** Row-hit lookaside bucket: the age-ordered entries of one
     * (bank, app, group) that target one rowKey. A small contiguous
     * vector per pair beats a hash map here — a pair rarely spreads
     * over more than a handful of distinct rows at once. */
    struct RowBucket {
        std::uint64_t key;
        List list;
    };

    /** One (app, group) sub-queue of a bank. */
    struct Pair {
        List fifo;
        std::vector<RowBucket> rows;
        std::uint32_t count = 0;
        std::uint32_t activePos = kNone;
    };

    struct BankIndex {
        /** Indexed appIdx * kNumTxGroups + group; grows as apps
         * appear. */
        std::vector<Pair> pairs;
        /** Indices into pairs with count > 0 — what a pick visits. */
        std::vector<std::uint32_t> activePairs;
        /** Row keys currently latched in this bank's buffer slots,
         * mirrored from the device via the row-transition listener. */
        std::vector<std::uint64_t> openRows;
        std::size_t count = 0;
        std::uint32_t activePos = kNone;
    };

    std::uint32_t alloc();
    std::uint16_t appIndex(AppId app);

    std::uint64_t
    rowKeyOf(Addr row, unsigned segment) const
    {
        return row * subRowFactor_ + segment;
    }

    DramDevice &dram_;
    std::uint64_t subRowFactor_;
    bool perAppIndex_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNone;
    std::vector<ChannelIndex> channels_;
    std::vector<BankIndex> banks_;
    /** Per channel: flat ids of banks with at least one queued entry. */
    std::vector<std::vector<std::uint32_t>> activeBanks_;
    std::unordered_map<AppId, std::uint16_t> appIdx_;
    std::size_t totalCount_ = 0;
    std::size_t totalOccupancy_ = 0;
};

} // namespace tempo

#endif // TEMPO_MC_TX_QUEUE_HH
