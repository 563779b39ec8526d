#include "vm/translator.hh"

#include "common/log.hh"

namespace tempo {

Translator::Translator(const PageTable &table, const TranslatorConfig &cfg)
    : table_(table), cfg_(cfg)
{
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
}

void
Translator::allocateTable()
{
    if (!memo_.empty())
        return;
    memo_.resize(cfg_.memoSlots);
    slots_ = memo_.data();
    slotMask_ = cfg_.memoSlots - 1;
}

std::string
Translator::configError(const TranslatorConfig &cfg)
{
    if (!isPow2(cfg.memoSlots))
        return "memo slot count must be a power of 2, got "
            + std::to_string(cfg.memoSlots);
    return {};
}

std::uint64_t
Translator::pack(const Translation &xlate)
{
    TEMPO_ASSERT((xlate.pframe & kFlagMask) == 0,
                 "frame not page-aligned: ", xlate.pframe);
    return xlate.pframe
        | (static_cast<std::uint64_t>(xlate.size) << kSizeShift)
        | (xlate.writable ? kWritable : 0);
}

Translation
Translator::unpack(std::uint64_t word)
{
    Translation xlate;
    xlate.valid = true;
    xlate.writable = (word & kWritable) != 0;
    xlate.pframe = word & ~kFlagMask;
    xlate.size = static_cast<PageSize>((word >> kSizeShift) & 3);
    return xlate;
}

void
Translator::refillLast(Addr vaddr, std::uint64_t word, std::uint64_t stamp)
{
    const Addr bytes = pageBytes(unpack(word).size);
    last_.base = alignDown(vaddr, bytes);
    last_.pageMask = ~(bytes - 1);
    last_.stamp = stamp;
    last_.word = word;
}

Translation
Translator::translateMiss(Addr vaddr, std::uint64_t stamp)
{
    const Translation xlate = table_.translate(vaddr);
    if (xlate.valid) {
        // Negative results are never memoized: map() does not bump the
        // mutation epoch, so a cached "unmapped" answer could go stale.
        allocateTable();
        Slot &slot = slotFor(vpn4K(vaddr));
        slot.tag = vpn4K(vaddr);
        slot.stamp = stamp;
        slot.word = pack(xlate);
        refillLast(vaddr, slot.word, stamp);
    }
    return xlate;
}

Translation
Translator::translate(Addr vaddr)
{
    const std::uint64_t stamp = currentStamp();
    // Hit checks use non-short-circuit `&`: one predictable branch to
    // the refill path, no data-dependent control flow on the way.
    if (((vaddr & last_.pageMask) == last_.base)
        & (last_.stamp == stamp)) {
        ++hits_;
        return unpack(last_.word);
    }

    const Addr vpn = vpn4K(vaddr);
    const Slot &slot = slotFor(vpn);
    if ((slot.tag == vpn) & (slot.stamp == stamp)) {
        ++hits_;
        refillLast(vaddr, slot.word, stamp);
        return unpack(slot.word);
    }

    ++misses_;
    return translateMiss(vaddr, stamp);
}

bool
Translator::touchedFast(Addr vaddr)
{
    const std::uint64_t stamp = currentStamp();
    const Addr vpn = vpn4K(vaddr);
    const Slot &slot = slotFor(vpn);
    const bool hit = (slot.tag == vpn) & (slot.stamp == stamp)
        & ((slot.word & kTouched) != 0);
    hits_ += hit;
    return hit;
}

void
Translator::noteTouched(Addr vaddr)
{
    const std::uint64_t stamp = currentStamp();
    const Addr vpn = vpn4K(vaddr);
    const Slot &slot = slotFor(vpn);
    if ((slot.tag != vpn) | (slot.stamp != stamp)) {
        ++misses_;
        if (!translateMiss(vaddr, stamp).valid)
            return; // unmapped granule: nothing to mark
    }
    slotFor(vpn).word |= kTouched; // the refill may have replaced the table
}

void
Translator::invalidateAll()
{
    ++gen_;
}

} // namespace tempo
