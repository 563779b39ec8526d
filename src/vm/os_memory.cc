#include "vm/os_memory.hh"

#include <cmath>

#include "common/log.hh"

namespace tempo {

OsMemory::OsMemory(const OsMemoryConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
    const std::string error = configError(cfg);
    TEMPO_ASSERT(error.empty(), error);
}

std::string
OsMemory::configError(const OsMemoryConfig &cfg)
{
    if (!(cfg.fragLevel >= 0.0 && cfg.fragLevel < 1.0))
        return "fragmentation level must be in [0,1), got "
            + std::to_string(cfg.fragLevel);
    return {};
}

Addr
OsMemory::openBlock()
{
    while (true) {
        TEMPO_ASSERT(nextBlockBase_ + kPage2MBytes <= cfg_.physBytes,
                     "simulated physical memory exhausted");
        const Addr base = nextBlockBase_;
        nextBlockBase_ += kPage2MBytes;
        // memhog owns whole blocks with probability ~fragLevel/2 and
        // splinters others by consuming a random prefix of frames.
        if (cfg_.fragLevel > 0.0 && rng_.chance(cfg_.fragLevel * 0.5))
            continue; // fully hogged, skip
        open4kBase_ = base;
        open4kNext_ = 0;
        if (cfg_.fragLevel > 0.0 && rng_.chance(cfg_.fragLevel)) {
            // memhog took a few 4KB frames from this block already
            open4kNext_ =
                rng_.below(kPage2MBytes / kPageBytes / 2) * kPageBytes;
        }
        return base;
    }
}

Addr
OsMemory::allocFrame(PageSize size)
{
    switch (size) {
      case PageSize::Page4K: {
        if (open4kBase_ == kInvalidAddr
            || open4kNext_ >= kPage2MBytes) {
            openBlock();
        }
        const Addr frame = open4kBase_ + open4kNext_;
        open4kNext_ += kPageBytes;
        dataBytes_ += kPageBytes;
        ++frames4k_;
        return frame;
      }
      case PageSize::Page2M: {
        // A 2MB page needs one clean block; under memhog-style
        // fragmentation the candidate block is splintered with
        // probability fragLevel and the allocation fails (khugepaged
        // compaction is not modeled — a failed region stays 4KB).
        TEMPO_ASSERT(nextBlockBase_ + kPage2MBytes <= cfg_.physBytes,
                     "simulated physical memory exhausted");
        const Addr base = nextBlockBase_;
        nextBlockBase_ += kPage2MBytes;
        if (cfg_.fragLevel > 0.0 && rng_.chance(cfg_.fragLevel)) {
            ++superFailures_;
            return kInvalidAddr;
        }
        dataBytes_ += kPage2MBytes;
        ++frames2m_;
        return base;
      }
      case PageSize::Page1G: {
        // Needs 512 consecutive clean blocks; succeeds with probability
        // (1-f)^512 per attempt. Sampled directly rather than walking
        // blocks (they are materialized lazily).
        const double p_clean =
            std::pow(1.0 - cfg_.fragLevel, 512.0);
        if (!rng_.chance(p_clean)) {
            ++superFailures_;
            return kInvalidAddr;
        }
        const Addr base = alignUp(nextBlockBase_, kPage1GBytes);
        TEMPO_ASSERT(base + kPage1GBytes <= cfg_.physBytes,
                     "simulated physical memory exhausted");
        nextBlockBase_ = base + kPage1GBytes;
        dataBytes_ += kPage1GBytes;
        ++frames1g_;
        return base;
      }
    }
    TEMPO_PANIC("unknown page size");
}

Addr
OsMemory::allocPtNode()
{
    if (open4kBase_ == kInvalidAddr || open4kNext_ >= kPage2MBytes)
        openBlock();
    const Addr frame = open4kBase_ + open4kNext_;
    open4kNext_ += kPageBytes;
    ptBytes_ += kPageBytes;
    return frame;
}

std::uint64_t
OsMemory::framesAllocated(PageSize size) const
{
    switch (size) {
      case PageSize::Page4K: return frames4k_;
      case PageSize::Page2M: return frames2m_;
      case PageSize::Page1G: return frames1g_;
    }
    return 0;
}

void
OsMemory::report(stats::Report &out) const
{
    out.add("data_bytes", dataBytes_);
    out.add("pt_bytes", ptBytes_);
    out.add("frames_4k", frames4k_);
    out.add("frames_2m", frames2m_);
    out.add("frames_1g", frames1g_);
    out.add("superpage_failures", superFailures_);
}

} // namespace tempo
