#include "dram/bank.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/obs.hh"

namespace tempo {

Bank::Bank(const DramConfig &cfg, unsigned bank_id, RowPolicy *policy)
    : cfg_(cfg), bankId_(bank_id), policy_(policy)
{
    // Stagger refresh across banks so they do not all block at once,
    // as real controllers do.
    if (cfg.refreshEnabled)
        nextRefreshAt_ = cfg.tREFI + bank_id * (cfg.tREFI
                                                / cfg.totalBanks());
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
    slots_.resize(cfg.subRowAlloc == SubRowAlloc::None ? 1u
                                                       : cfg.subRowCount);
}

std::string
Bank::configError(const DramConfig &cfg)
{
    // applyRefresh() steps through refresh deadlines tREFI apart.
    if (cfg.refreshEnabled && cfg.tREFI == 0)
        return "trefi must be positive while refresh is on";
    if (cfg.subRowAlloc == SubRowAlloc::None)
        return {};
    // Each sub-row buffer latches an equal, whole-line slice of a row.
    const Addr lines = cfg.rowBufferBytes / kLineBytes;
    if (!isPow2(cfg.subRowCount) || cfg.subRowCount > lines)
        return "subrow_count must be a power of 2 of at most "
            + std::to_string(lines) + " (lines per row), got "
            + std::to_string(cfg.subRowCount);
    if (cfg.subRowsForPrefetch >= cfg.subRowCount)
        return "subrows_for_prefetch must be below subrow_count ("
            + std::to_string(cfg.subRowCount) + "), got "
            + std::to_string(cfg.subRowsForPrefetch);
    return {};
}

Addr
Bank::predictorKey(Addr row) const
{
    return row * 4096 + bankId_;
}

Bank::Slot *
Bank::findSlot(Addr row, unsigned segment)
{
    const bool monolithic = slots_.size() == 1;
    for (auto &slot : slots_) {
        if (slot.valid && slot.row == row
            && (monolithic || slot.segment == segment)) {
            return &slot;
        }
    }
    return nullptr;
}

const Bank::Slot *
Bank::findSlot(Addr row, unsigned segment) const
{
    return const_cast<Bank *>(this)->findSlot(row, segment);
}

bool
Bank::wouldHit(Addr row, unsigned segment) const
{
    return findSlot(row, segment) != nullptr;
}

Addr
Bank::openRow(unsigned i) const
{
    const Slot &slot = slots_.at(i);
    return slot.valid ? slot.row : kInvalidAddr;
}

void
Bank::visitOpenSlots(const std::function<void(Addr, unsigned)> &fn) const
{
    for (const Slot &slot : slots_) {
        if (slot.valid)
            fn(slot.row, slot.segment);
    }
}

Bank::Slot *
Bank::pickVictim(bool is_prefetch, AppId app)
{
    if (slots_.size() == 1)
        return &slots_[0];

    const unsigned dedicated = std::min<unsigned>(
        cfg_.subRowsForPrefetch, static_cast<unsigned>(slots_.size()) - 1);

    unsigned lo = 0;
    unsigned hi = static_cast<unsigned>(slots_.size());
    if (dedicated > 0) {
        if (is_prefetch) {
            hi = dedicated; // prefetches use the reserved slots
        } else {
            lo = dedicated; // demand uses the rest
        }
    }

    // FOA statically partitions the demand slots across apps; POA lets
    // usage decide (global LRU, so hungrier apps hold more slots).
    if (cfg_.subRowAlloc == SubRowAlloc::FOA && !is_prefetch
        && hi - lo > 1) {
        const unsigned span = hi - lo;
        const unsigned preferred = lo + (app % span);
        Slot &own = slots_[preferred];
        if (!own.valid)
            return &own;
        // Fall back to any invalid slot in range before evicting our own.
        for (unsigned i = lo; i < hi; ++i) {
            if (!slots_[i].valid)
                return &slots_[i];
        }
        return &own;
    }

    Slot *victim = nullptr;
    for (unsigned i = lo; i < hi; ++i) {
        Slot &slot = slots_[i];
        if (!slot.valid)
            return &slot;
        if (!victim || slot.lastUse < victim->lastUse)
            victim = &slot;
    }
    TEMPO_ASSERT(victim, "no victim slot in [", lo, ",", hi, ")");
    return victim;
}

void
Bank::closeSlot(Slot &slot, Cycle when, EnergyCounters &energy)
{
    if (!slot.valid)
        return;
    ++energy.precharges;
    policy_->rowClosed(predictorKey(slot.row), slot.hitsWhileOpen);
    if (auto *o = obs::session())
        o->rowClose(when, bankId_, slot.row);
    if (listener_)
        listener_->rowClosed(bankId_, slot.row, slot.segment);
    slot.valid = false;
    slot.hitsWhileOpen = 0;
    slot.holdUntil = 0;
}

void
Bank::applyRefresh(Cycle when, EnergyCounters &energy)
{
    if (!cfg_.refreshEnabled)
        return;
    while (nextRefreshAt_ <= when) {
        // Refresh auto-precharges every open row and occupies the bank
        // for tRFC.
        for (Slot &slot : slots_) {
            if (slot.valid) {
                policy_->rowClosed(predictorKey(slot.row),
                                   slot.hitsWhileOpen);
                if (auto *o = obs::session())
                    o->rowClose(nextRefreshAt_, bankId_, slot.row);
                if (listener_)
                    listener_->rowClosed(bankId_, slot.row, slot.segment);
                slot.valid = false;
                slot.hitsWhileOpen = 0;
                slot.holdUntil = 0;
            }
        }
        ++energy.refreshes;
        readyAt_ = std::max(readyAt_, nextRefreshAt_ + cfg_.tRFC);
        nextRefreshAt_ += cfg_.tREFI;
    }
}

BankAccess
Bank::access(Addr row, unsigned segment, bool is_write, bool is_prefetch,
             AppId app, Cycle when, Cycle hold_for,
             EnergyCounters &energy)
{
    applyRefresh(when, energy);
    Cycle start = std::max(when, readyAt_);
    BankAccess result{};

    Slot *slot = findSlot(row, segment);
    if (slot) {
        result.event = RowEvent::Hit;
        result.start = start;
        result.complete = start + cfg_.hitLatency();
        ++slot->hitsWhileOpen;
    } else {
        slot = pickVictim(is_prefetch, app);
        if (slot->valid) {
            // Conflict: must wait out any TEMPO hold, then PRE + ACT.
            if (slot->holdUntil > start)
                start = slot->holdUntil;
            // Honor tRAS: a row cannot be precharged too soon after ACT.
            const Cycle earliest_pre = slot->actAt + cfg_.tRAS;
            if (earliest_pre > start)
                start = earliest_pre;
            result.event = RowEvent::Conflict;
            result.start = start;
            result.complete = start + cfg_.conflictLatency();
            closeSlot(*slot, start, energy);
        } else {
            result.event = RowEvent::Miss;
            result.start = start;
            result.complete = start + cfg_.missLatency();
        }
        ++energy.activates;
        slot->valid = true;
        slot->row = row;
        slot->segment = segment;
        slot->hitsWhileOpen = 0;
        slot->actAt = result.start;
        if (auto *o = obs::session())
            o->rowOpen(result.start, bankId_, row);
        if (listener_)
            listener_->rowOpened(bankId_, row, segment);
    }

    if (is_write)
        ++energy.colWrites;
    else
        ++energy.colReads;

    slot->owner = app;
    slot->lastUse = result.complete;
    slot->holdUntil = hold_for > 0 ? result.complete + hold_for : 0;

    // Post-access policy decision: keep the row open or precharge now.
    const bool hold_active = slot->holdUntil > result.complete;
    const bool keep_open =
        hold_active || policy_->keepOpenAfterAccess(predictorKey(row));

    if (keep_open) {
        readyAt_ = result.complete;
    } else {
        // Background precharge: off the critical path of this access but
        // the bank cannot re-activate until it finishes (and tRAS is met).
        const Cycle pre_start =
            std::max(result.complete, result.start + cfg_.tRAS);
        closeSlot(*slot, pre_start, energy);
        readyAt_ = pre_start + cfg_.tRP;
    }

    return result;
}

} // namespace tempo
