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
Translator::allocateTables()
{
    if (!memo_.empty())
        return;
    memo_.resize(cfg_.memoSlots);
    walkMemo_.resize(cfg_.walkSlots);
    slots_ = memo_.data();
    wslots_ = walkMemo_.data();
    slotMask_ = cfg_.memoSlots - 1;
    wslotMask_ = cfg_.walkSlots - 1;
}

std::string
Translator::configError(const TranslatorConfig &cfg)
{
    if (!isPow2(cfg.memoSlots) || !isPow2(cfg.walkSlots))
        return "memo slot counts must be powers of 2, got "
            + std::to_string(cfg.memoSlots) + " and "
            + std::to_string(cfg.walkSlots);
    return {};
}

void
Translator::refillLast(Addr vaddr, const Translation &xlate,
                       std::uint64_t stamp)
{
    const Addr bytes = pageBytes(xlate.size);
    last_.base = alignDown(vaddr, bytes);
    last_.pageMask = ~(bytes - 1);
    last_.stamp = stamp;
    last_.xlate = xlate;
}

Translation
Translator::translateMiss(Addr vaddr, std::uint64_t stamp)
{
    const Translation xlate = table_.translate(vaddr);
    if (xlate.valid) {
        // Negative results are never memoized: map() does not bump the
        // mutation epoch, so a cached "unmapped" answer could go stale.
        allocateTables();
        Slot &slot = slotFor(vpn4K(vaddr));
        slot.tag = vpn4K(vaddr);
        slot.stamp = stamp;
        slot.touched = 0;
        slot.xlate = xlate;
        refillLast(vaddr, xlate, stamp);
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
        return last_.xlate;
    }

    const Addr vpn = vpn4K(vaddr);
    Slot &slot = slotFor(vpn);
    if ((slot.tag == vpn) & (slot.stamp == stamp)) {
        ++hits_;
        refillLast(vaddr, slot.xlate, stamp);
        return slot.xlate;
    }

    ++misses_;
    return translateMiss(vaddr, stamp);
}

const CachedWalk &
Translator::walk(Addr vaddr)
{
    const Addr vpn = vpn4K(vaddr);
    WalkSlot &slot = wslots_[vpn & wslotMask_];
    const std::uint64_t stamp = currentStamp();
    if ((slot.tag == vpn) & (slot.stamp == stamp)) {
        ++walkHits_;
        return slot.walk;
    }

    ++walkMisses_;
    // The TLB filters out most reuse before it reaches the walker, so
    // walk() misses dominate; the refill writes into fixed-size slots
    // and never allocates once the tables exist.
    scratch_.count =
        table_.walkInto(vaddr, scratch_.steps, scratch_.xlate);
    if (!scratch_.xlate.valid) {
        // Faulting walks stay unmemoized (see translateMiss).
        return scratch_;
    }
    allocateTables();
    WalkSlot &fill = wslots_[vpn & wslotMask_];
    fill.tag = vpn;
    fill.stamp = stamp;
    fill.walk = scratch_;
    return fill.walk;
}

bool
Translator::touchedFast(Addr vaddr)
{
    const std::uint64_t stamp = currentStamp();
    const Addr vpn = vpn4K(vaddr);
    const Slot &slot = slotFor(vpn);
    const bool hit =
        (slot.tag == vpn) & (slot.stamp == stamp) & (slot.touched != 0);
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
    slotFor(vpn).touched = 1; // the refill may have replaced the table
}

void
Translator::invalidateAll()
{
    ++gen_;
}

} // namespace tempo
