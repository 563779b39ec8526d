#include "vm/address_space.hh"

#include "common/log.hh"

namespace tempo {

AddressSpace::AddressSpace(OsMemory &os, const AddressSpaceConfig &cfg,
                           const TranslatorConfig &xlate_cfg)
    : os_(os), cfg_(cfg), table_(os), translator_(table_, xlate_cfg)
{
}

bool
AddressSpace::regionEligible(Addr region_base, double frac) const
{
    // Stable hash of (seed, region) -> [0,1): the same region always gets
    // the same answer, independent of touch order.
    std::uint64_t x = region_base ^ (cfg_.seed * 0x9e3779b97f4a7c15ull);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return static_cast<double>(x >> 11) * 0x1.0p-53 < frac;
}

void
AddressSpace::installMapping(Addr vaddr)
{
    ++faults_;

    PageSize want = PageSize::Page4K;
    switch (cfg_.policy) {
      case PagePolicy::Base4K:
        break;
      case PagePolicy::Thp:
        if (regionEligible(alignDown(vaddr, kPage2MBytes),
                           cfg_.thpEligibleFrac)) {
            want = PageSize::Page2M;
        }
        break;
      case PagePolicy::Hugetlbfs2M:
        if (regionEligible(alignDown(vaddr, kPage2MBytes),
                           cfg_.hugetlbfs2MFrac)) {
            want = PageSize::Page2M;
        }
        break;
      case PagePolicy::Hugetlbfs1G:
        if (regionEligible(alignDown(vaddr, kPage1GBytes),
                           cfg_.hugetlbfs1GFrac)) {
            want = PageSize::Page1G;
        }
        break;
    }

    // A region that previously fell back to 4KB pages must stay 4KB:
    // part of it is already mapped at base-page granularity (the model
    // does not collapse pages the way khugepaged eventually might).
    if (want != PageSize::Page4K
        && demoted_.contains(alignDown(vaddr, pageBytes(want)))) {
        want = PageSize::Page4K;
    }

    Addr frame = kInvalidAddr;
    if (want != PageSize::Page4K) {
        frame = os_.allocFrame(want);
        if (frame == kInvalidAddr) {
            demoted_.insert(alignDown(vaddr, pageBytes(want)));
            want = PageSize::Page4K; // fragmentation fallback
        }
    }
    if (want == PageSize::Page4K)
        frame = os_.allocFrame(PageSize::Page4K);
    TEMPO_ASSERT(frame != kInvalidAddr, "4KB allocation cannot fail");

    table_.map(alignDown(vaddr, pageBytes(want)), want, frame);
}

bool
AddressSpace::touch(Addr vaddr)
{
    // Memoized fast path: a live memo entry with the touched bit set
    // means this granule was already demand-paged and counted — the
    // common case for every reference after the first to a page.
    if (translator_.touchedFast(vaddr))
        return false;

    const Addr vpn = vpn4K(vaddr);
    if (seen4k_.contains(vpn)) {
        translator_.noteTouched(vaddr);
        return false;
    }

    Translation xlate = table_.translate(vaddr);
    bool faulted = false;
    if (!xlate.valid) {
        installMapping(vaddr);
        xlate = table_.translate(vaddr);
        TEMPO_ASSERT(xlate.valid, "mapping just installed");
        faulted = true;
    }

    // One seen-set entry per 4KB granule (even inside superpages) so
    // the touched-footprint accounting is exact.
    seen4k_.insert(vpn);
    translator_.noteTouched(vaddr);

    ++touched4k_;
    if (xlate.size == PageSize::Page2M)
        ++touched4kIn2M_;
    else if (xlate.size == PageSize::Page1G)
        ++touched4kIn1G_;
    return faulted;
}

Translation
AddressSpace::translate(Addr vaddr) const
{
    return translator_.translate(vaddr);
}

double
AddressSpace::coverage2M() const
{
    return stats::ratio(touched4kIn2M_, touched4k_);
}

double
AddressSpace::coverage1G() const
{
    return stats::ratio(touched4kIn1G_, touched4k_);
}

double
AddressSpace::superpageCoverage() const
{
    return stats::ratio(touched4kIn2M_ + touched4kIn1G_, touched4k_);
}

void
AddressSpace::report(stats::Report &out) const
{
    out.add("touched_bytes", touchedBytes());
    out.add("faults", faults_);
    out.add("coverage_2m", coverage2M());
    out.add("coverage_1g", coverage1G());
    out.add("superpage_coverage", superpageCoverage());
    out.add("pt_nodes", table_.nodeCount());
}

} // namespace tempo
