#include "dram/row_policy.hh"

#include "common/log.hh"

namespace tempo {

RowPredictor::RowPredictor(unsigned sets, unsigned ways)
    : sets_(sets), ways_(ways), setMask_(sets - 1)
{
    TEMPO_ASSERT(isPow2(sets) && ways > 0,
                 "predictor needs a power-of-two set count and ways, got ",
                 sets, " x ", ways);
}

const RowPredictor::Entry *
RowPredictor::find(Addr row) const
{
    ++lookups_;
    if (entries_.empty())
        return nullptr; // nothing learnt yet
    const Entry *set = &entries_[setBase(row)];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].valid() && set[w].row == row)
            return &set[w];
    }
    return nullptr;
}

RowPredictor::Entry *
RowPredictor::findOrAllocate(Addr row)
{
    if (entries_.empty())
        entries_.resize(static_cast<std::size_t>(sets_) * ways_);
    Entry *set = &entries_[setBase(row)];
    Entry *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = set[w];
        if (e.valid() && e.row == row)
            return &e;
        if (!victim || !e.valid()
            || (victim->valid() && e.lastUse < victim->lastUse)) {
            victim = &e;
        }
    }
    victim->row = row;
    victim->counter = 2;
    return victim;
}

bool
RowPredictor::predictKeepOpen(Addr row) const
{
    const Entry *e = find(row);
    if (!e)
        return true; // optimistic default
    return e->counter >= 2;
}

void
RowPredictor::update(Addr row, unsigned hits)
{
    Entry *e = findOrAllocate(row);
    e->lastUse = ++tick_;
    if (hits > 0) {
        if (e->counter < 3)
            ++e->counter;
    } else {
        if (e->counter > 0)
            --e->counter;
    }
}

RowPolicy::RowPolicy(const DramConfig &cfg)
    : kind_(cfg.rowPolicy),
      predictor_(cfg.predictorSets, cfg.predictorWays)
{
}

bool
RowPolicy::keepOpenAfterAccess(Addr row)
{
    switch (kind_) {
      case RowPolicyKind::Open:
        return true;
      case RowPolicyKind::Closed:
        return false;
      case RowPolicyKind::Adaptive:
        return predictor_.predictKeepOpen(row);
    }
    return true;
}

void
RowPolicy::rowClosed(Addr row, unsigned hits)
{
    if (kind_ == RowPolicyKind::Adaptive)
        predictor_.update(row, hits);
}

} // namespace tempo
