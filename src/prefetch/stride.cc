#include "prefetch/stride.hh"

#include "common/log.hh"

namespace tempo {

StridePrefetcher::StridePrefetcher(const StrideConfig &cfg)
    : cfg_(cfg), table_(cfg.tableEntries)
{
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
}

std::string
StridePrefetcher::configError(const StrideConfig &cfg)
{
    // findOrAllocate() always needs a victim entry.
    return cfg.tableEntries ? "" : "table_entries must be positive";
}

const std::string &
StridePrefetcher::name() const
{
    static const std::string name = "stride";
    return name;
}

StridePrefetcher::Entry *
StridePrefetcher::findOrAllocate(std::uint32_t stream)
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
    *victim = Entry{};
    victim->valid = true;
    victim->stream = stream;
    return victim;
}

void
StridePrefetcher::observe(std::uint32_t stream, Addr vaddr,
                          std::vector<Addr> &out)
{
    out.clear();
    Entry *entry = findOrAllocate(stream);
    entry->lastUse = ++tick_;

    const auto observed =
        static_cast<std::int64_t>(vaddr)
        - static_cast<std::int64_t>(entry->lastAddr);
    const bool had_history = entry->hasHistory;
    entry->lastAddr = vaddr;
    entry->hasHistory = true;

    if (!had_history)
        return;
    if (observed == entry->stride && observed != 0) {
        if (entry->confidence < 3)
            ++entry->confidence;
    } else {
        entry->stride = observed;
        entry->confidence = 0;
        return;
    }

    if (entry->confidence < cfg_.confidenceThreshold)
        return;

    // Confident: prefetch `degree` consecutive stride steps, starting
    // `distance` strides ahead of the demand address. The target is
    // computed in unsigned arithmetic with explicit wrap checks: a
    // positive stride must advance the address (else it wrapped past
    // 2^64) and a negative stride must retreat it (else it underflowed
    // below 0) — the address space has no sign, so vaddrs at or above
    // 2^63 prefetch like any others.
    for (unsigned d = 0; d < cfg_.degree; ++d) {
        const std::uint64_t steps = cfg_.distance + d;
        const Addr delta =
            static_cast<Addr>(entry->stride) * steps;
        const Addr target = vaddr + delta; // mod 2^64
        const bool wrapped = entry->stride > 0 ? target < vaddr
                                               : target > vaddr;
        if (wrapped) {
            ++wrapDropped_;
            break;
        }
        out.push_back(target);
        ++issued_;
    }
}

void
StridePrefetcher::observe(const MemRef &ref, Cycle now,
                          std::vector<PrefetchAction> &out)
{
    (void)now;
    observe(ref.stream, ref.vaddr, scratch_);
    for (const Addr target : scratch_)
        out.push_back(PrefetchAction::data(target));
}

std::uint64_t
StridePrefetcher::confidentStreams() const
{
    std::uint64_t count = 0;
    for (const auto &entry : table_) {
        if (entry.valid && entry.confidence >= cfg_.confidenceThreshold)
            ++count;
    }
    return count;
}

void
StridePrefetcher::report(stats::Report &out) const
{
    out.add("issued", issued_);
    out.add("confident_streams", confidentStreams());
    out.add("wrap_dropped", wrapDropped_);
}

} // namespace tempo
