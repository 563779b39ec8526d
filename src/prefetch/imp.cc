#include "prefetch/imp.hh"

#include "common/log.hh"

namespace tempo {

ImpPrefetcher::ImpPrefetcher(const ImpConfig &cfg)
    : cfg_(cfg), table_(cfg.prefetchTableEntries), rng_(cfg.seed)
{
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
}

std::string
ImpPrefetcher::configError(const ImpConfig &cfg)
{
    // findOrAllocate() always needs a victim entry.
    return cfg.prefetchTableEntries ? "" : "table_entries must be positive";
}

const std::string &
ImpPrefetcher::name() const
{
    static const std::string name = "imp";
    return name;
}

ImpPrefetcher::Entry *
ImpPrefetcher::findOrAllocate(std::uint32_t stream)
{
    Entry *victim = nullptr;
    for (auto &entry : table_) {
        if (entry.valid && entry.stream == stream)
            return &entry;
        if (!victim || !entry.valid
            || (victim->valid && entry.lastUse < victim->lastUse)) {
            victim = &entry;
        }
    }
    victim->valid = true;
    victim->stream = stream;
    victim->observations = 0;
    return victim;
}

Addr
ImpPrefetcher::observe(std::uint32_t stream, bool indirect,
                       Addr future_target)
{
    if (!indirect)
        return kInvalidAddr;

    Entry *entry = findOrAllocate(stream);
    entry->lastUse = ++tick_;
    if (entry->observations < cfg_.trainThreshold) {
        // Still training in the indirect pattern detector.
        if (++entry->observations == cfg_.trainThreshold)
            ++trainEvents_;
        return kInvalidAddr;
    }
    if (future_target == kInvalidAddr)
        return kInvalidAddr;
    if (!rng_.chance(cfg_.coverage))
        return kInvalidAddr;
    ++issued_;
    if (!rng_.chance(cfg_.accuracy)) {
        // Mispredicted indirect address: lands on a wrong nearby page.
        // The prefetch still translates (thrashing the TLB) and still
        // moves a line, but the demand reference gets no benefit.
        ++mispredicted_;
        const Addr skew = (1 + rng_.below(63)) * kPageBytes;
        return future_target + skew;
    }
    return future_target;
}

void
ImpPrefetcher::observe(const MemRef &ref, Cycle now,
                       std::vector<PrefetchAction> &out)
{
    (void)now;
    const Addr target =
        observe(ref.stream, ref.indirect, ref.indirectFuture);
    if (target != kInvalidAddr)
        out.push_back(PrefetchAction::data(target));
}

std::uint64_t
ImpPrefetcher::trainedStreams() const
{
    std::uint64_t count = 0;
    for (const auto &entry : table_) {
        if (entry.valid && entry.observations >= cfg_.trainThreshold)
            ++count;
    }
    return count;
}

void
ImpPrefetcher::report(stats::Report &out) const
{
    out.add("issued", issued_);
    out.add("trained_streams", trainedStreams());
    out.add("train_events", trainEvents_);
    out.add("mispredicted", mispredicted_);
}

} // namespace tempo
