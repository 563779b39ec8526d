#include "mc/tx_queue.hh"

#include <algorithm>

namespace tempo {

TxQueue::TxQueue(DramDevice &dram, bool per_app_index)
    : dram_(dram),
      subRowFactor_(dram.config().subRowAlloc == SubRowAlloc::None
                        ? 1
                        : dram.config().subRowCount),
      perAppIndex_(per_app_index)
{
    channels_.resize(dram.config().channels);
    banks_.resize(dram.config().totalBanks());
    activeBanks_.resize(dram.config().channels);
    dram_.setRowListener(this);
    // A device constructed before the controller may already hold open
    // rows (tests warm the row buffer directly); start synchronized.
    dram_.visitOpenRows([this](unsigned fb, Addr row, unsigned segment) {
        rowOpened(fb, row, segment);
    });
}

TxQueue::~TxQueue()
{
    dram_.setRowListener(nullptr);
}

std::uint32_t
TxQueue::alloc()
{
    if (freeHead_ == kNone) {
        slots_.emplace_back();
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t id = freeHead_;
    freeHead_ = slots_[id].nextFree;
    return id;
}

std::uint16_t
TxQueue::appIndex(AppId app)
{
    if (!perAppIndex_)
        return 0;
    const auto it = appIdx_.find(app);
    if (it != appIdx_.end())
        return it->second;
    const auto idx = static_cast<std::uint16_t>(appIdx_.size());
    TEMPO_ASSERT(idx < 0xffff, "app index overflows its slot field");
    appIdx_.emplace(app, idx);
    return idx;
}

std::uint32_t
TxQueue::enqueue(QueuedRequest &&entry, const DramCoord &coord)
{
    const std::uint32_t id = alloc();
    Slot &slot = slots_[id];
    slot.entry = std::move(entry);
    slot.coord = coord;
    const unsigned segment =
        dram_.config().subRowAlloc == SubRowAlloc::None
        ? 0
        : dram_.map().segmentOfCol(coord.col,
                                   dram_.config().subRowCount);
    slot.rowKey = rowKeyOf(coord.row, segment);
    slot.flatBank = coord.flatBank(dram_.config());
    slot.appIdx = appIndex(slot.entry.req.app);
    slot.group = txGroupOf(slot.entry.req.kind);
    slot.queued = true;
    slot.seqPrev = slot.seqNext = kNone;
    slot.fifoPrev = slot.fifoNext = kNone;
    slot.rowPrev = slot.rowNext = kNone;

    // Channel seq list: append (submission order == age order).
    ChannelIndex &ch = channels_[coord.channel];
    if (ch.seqTail == kNone) {
        ch.seqHead = ch.seqTail = id;
    } else {
        TEMPO_ASSERT(slots_[ch.seqTail].entry.seq < slot.entry.seq
                         && slots_[ch.seqTail].entry.arrival
                             <= slot.entry.arrival,
                     "out-of-order enqueue breaks the age index");
        slot.seqPrev = ch.seqTail;
        slots_[ch.seqTail].seqNext = id;
        ch.seqTail = id;
    }
    ch.count += 1;
    const std::size_t slots_used = slot.entry.req.tempo.tagged ? 2 : 1;
    ch.occupancy += slots_used;
    totalCount_ += 1;
    totalOccupancy_ += slots_used;

    // (bank, app, group) sub-FIFO: append at tail.
    BankIndex &bank = banks_[slot.flatBank];
    const std::uint32_t pair_idx =
        slot.appIdx * kNumTxGroups + slot.group;
    if (bank.pairs.size() <= pair_idx)
        bank.pairs.resize((slot.appIdx + 1u) * kNumTxGroups);
    Pair &pair = bank.pairs[pair_idx];
    if (pair.fifo.tail == kNone) {
        // Sole entry: it is the head, and forEachCandidate checks the
        // head's row-hit status directly — skip the bucket (the lazy-
        // bucket invariant; the shallow-queue common case pays no
        // lookaside maintenance at all).
        pair.fifo.head = pair.fifo.tail = id;
        slot.inRowBucket = false;
    } else {
        slot.fifoPrev = pair.fifo.tail;
        slots_[pair.fifo.tail].fifoNext = id;
        pair.fifo.tail = id;

        // Row-hit lookaside bucket for this entry's (row, segment).
        RowBucket *bucket = nullptr;
        for (RowBucket &candidate : pair.rows) {
            if (candidate.key == slot.rowKey) {
                bucket = &candidate;
                break;
            }
        }
        if (bucket == nullptr) {
            pair.rows.push_back(RowBucket{slot.rowKey, List{}});
            bucket = &pair.rows.back();
        }
        if (bucket->list.tail == kNone) {
            bucket->list.head = bucket->list.tail = id;
        } else {
            slot.rowPrev = bucket->list.tail;
            slots_[bucket->list.tail].rowNext = id;
            bucket->list.tail = id;
        }
        slot.inRowBucket = true;
    }

    if (pair.count++ == 0) {
        pair.activePos =
            static_cast<std::uint32_t>(bank.activePairs.size());
        bank.activePairs.push_back(pair_idx);
    }
    if (bank.count++ == 0) {
        bank.activePos =
            static_cast<std::uint32_t>(activeBanks_[coord.channel].size());
        activeBanks_[coord.channel].push_back(slot.flatBank);
    }
    return id;
}

void
TxQueue::remove(std::uint32_t id)
{
    Slot &slot = slots_[id];
    TEMPO_ASSERT(slot.queued, "remove of a non-queued slot");
    slot.queued = false;
    const unsigned ch_id = slot.coord.channel;
    ChannelIndex &ch = channels_[ch_id];

    // Seq list.
    if (slot.seqPrev != kNone)
        slots_[slot.seqPrev].seqNext = slot.seqNext;
    else
        ch.seqHead = slot.seqNext;
    if (slot.seqNext != kNone)
        slots_[slot.seqNext].seqPrev = slot.seqPrev;
    else
        ch.seqTail = slot.seqPrev;

    BankIndex &bank = banks_[slot.flatBank];
    const std::uint32_t pair_idx =
        slot.appIdx * kNumTxGroups + slot.group;
    Pair &pair = bank.pairs[pair_idx];

    // Sub-FIFO.
    if (slot.fifoPrev != kNone)
        slots_[slot.fifoPrev].fifoNext = slot.fifoNext;
    else
        pair.fifo.head = slot.fifoNext;
    if (slot.fifoNext != kNone)
        slots_[slot.fifoNext].fifoPrev = slot.fifoPrev;
    else
        pair.fifo.tail = slot.fifoPrev;

    // Row-hit lookaside; drop the bucket once empty. A head that was
    // enqueued into an empty FIFO never joined a bucket.
    if (slot.inRowBucket) {
        std::size_t bucket_pos = pair.rows.size();
        for (std::size_t i = 0; i < pair.rows.size(); ++i) {
            if (pair.rows[i].key == slot.rowKey) {
                bucket_pos = i;
                break;
            }
        }
        TEMPO_ASSERT(bucket_pos < pair.rows.size(),
                     "slot missing its row bucket");
        List &row_list = pair.rows[bucket_pos].list;
        if (slot.rowPrev != kNone)
            slots_[slot.rowPrev].rowNext = slot.rowNext;
        else
            row_list.head = slot.rowNext;
        if (slot.rowNext != kNone)
            slots_[slot.rowNext].rowPrev = slot.rowPrev;
        else
            row_list.tail = slot.rowPrev;
        if (row_list.head == kNone) {
            pair.rows[bucket_pos] = pair.rows.back();
            pair.rows.pop_back();
        }
        slot.inRowBucket = false;
    }

    if (--pair.count == 0) {
        // Swap-remove from the bank's active-pair list.
        const std::uint32_t moved = bank.activePairs.back();
        bank.activePairs[pair.activePos] = moved;
        bank.pairs[moved].activePos = pair.activePos;
        bank.activePairs.pop_back();
        pair.activePos = kNone;
    }
    if (--bank.count == 0) {
        // Swap-remove from the channel's active-bank list.
        std::vector<std::uint32_t> &active = activeBanks_[ch_id];
        const std::uint32_t moved = active.back();
        active[bank.activePos] = moved;
        banks_[moved].activePos = bank.activePos;
        active.pop_back();
        bank.activePos = kNone;
    }

    ch.count -= 1;
    const std::size_t slots_used = slot.entry.req.tempo.tagged ? 2 : 1;
    ch.occupancy -= slots_used;
    totalCount_ -= 1;
    totalOccupancy_ -= slots_used;
}

void
TxQueue::release(std::uint32_t id)
{
    TEMPO_ASSERT(!slots_[id].queued, "release of a queued slot");
    // The caller did not take the entry: clear it so captured
    // resources (completion-callback state) don't outlive the request
    // in the freelist.
    slots_[id].entry = QueuedRequest{};
    slots_[id].nextFree = freeHead_;
    freeHead_ = id;
}

QueuedRequest
TxQueue::take(std::uint32_t id)
{
    TEMPO_ASSERT(!slots_[id].queued, "take of a queued slot");
    QueuedRequest entry = std::move(slots_[id].entry);
    // Moved-from fields hold no resources; skip release()'s clearing
    // reassignment on this per-completion path and push the slot
    // straight onto the freelist.
    slots_[id].nextFree = freeHead_;
    freeHead_ = id;
    return entry;
}

std::size_t
TxQueue::bruteForceOccupancy() const
{
    std::size_t total = 0;
    for (unsigned ch = 0; ch < channels(); ++ch) {
        for (std::uint32_t id = seqHead(ch); id != kNone;
             id = seqNext(id)) {
            total += slots_[id].entry.req.tempo.tagged ? 2 : 1;
        }
    }
    return total;
}

std::uint32_t
TxQueue::minSeqPrefetch(unsigned ch, AppId app) const
{
    TEMPO_ASSERT(perAppIndex_,
                 "minSeqPrefetch needs the per-app index");
    const auto it = appIdx_.find(app);
    if (it == appIdx_.end())
        return kNone;
    const std::uint32_t pair_idx =
        static_cast<std::uint32_t>(it->second) * kNumTxGroups
        + kGroupTempoPf;
    std::uint32_t best = kNone;
    for (const std::uint32_t fb : activeBanks_[ch]) {
        const BankIndex &bank = banks_[fb];
        if (bank.pairs.size() <= pair_idx)
            continue;
        const std::uint32_t head = bank.pairs[pair_idx].fifo.head;
        if (head == kNone)
            continue;
        if (best == kNone
            || slots_[head].entry.seq < slots_[best].entry.seq) {
            best = head;
        }
    }
    return best;
}

void
TxQueue::rowOpened(unsigned flat_bank, Addr row, unsigned segment)
{
    banks_[flat_bank].openRows.push_back(rowKeyOf(row, segment));
}

void
TxQueue::rowClosed(unsigned flat_bank, Addr row, unsigned segment)
{
    std::vector<std::uint64_t> &open = banks_[flat_bank].openRows;
    const auto it =
        std::find(open.begin(), open.end(), rowKeyOf(row, segment));
    TEMPO_ASSERT(it != open.end(), "close of a row not tracked open");
    *it = open.back();
    open.pop_back();
}

} // namespace tempo
