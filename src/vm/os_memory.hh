/**
 * @file
 * The OS physical-memory model: a frame allocator over a large, sparsely
 * materialized physical address space, with superpage policies and
 * controllable external fragmentation.
 *
 * This stands in for the Linux buddy allocator + THP/libhugetlbfs +
 * memhog setup the paper measures on real hardware (Sec. 6.2). What TEMPO
 * cares about is (a) the resulting page-size distribution and (b) the
 * physical interleaving of page-table pages with data pages — both are
 * properties of this model:
 *
 *  - 4KB frames are carved sequentially out of 2MB blocks, so data pages
 *    and page-table node pages allocated close in time share DRAM rows,
 *    as they do under a real first-touch allocator;
 *  - a fragmentation level f (the memhog knob) splinters a fraction of
 *    blocks, making 2MB allocations fail with probability ~f and 1GB
 *    allocations fail with probability 1-(1-f)^512.
 */

#ifndef TEMPO_VM_OS_MEMORY_HH
#define TEMPO_VM_OS_MEMORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace tempo {

struct OsMemoryConfig {
    /** Addressable physical bytes (frames are materialized lazily). */
    Addr physBytes = 1ull << 40;
    /** memhog-style external fragmentation level in [0, 1). */
    double fragLevel = 0.0;
    std::uint64_t seed = 1;
};

class OsMemory
{
  public:
    explicit OsMemory(const OsMemoryConfig &cfg);

    /** Why @p cfg cannot build an OsMemory, or "" when it can. The
     * constructor asserts this; config loading reports it as an input
     * error. */
    static std::string configError(const OsMemoryConfig &cfg);

    /**
     * Allocate one frame of the given size.
     * @return frame base physical address, or kInvalidAddr when a
     *         superpage-sized contiguous region is not available (the
     *         caller falls back to smaller pages).
     */
    Addr allocFrame(PageSize size);

    /** Allocate a 4KB frame for a page-table node. */
    Addr allocPtNode();

    /** Bytes handed out so far, split by consumer. */
    Addr dataBytesAllocated() const { return dataBytes_; }
    Addr ptBytesAllocated() const { return ptBytes_; }

    /** Frames handed out, by page size. */
    std::uint64_t framesAllocated(PageSize size) const;

    /** 2MB/1GB allocation attempts that failed due to fragmentation. */
    std::uint64_t superpageFailures() const { return superFailures_; }

    const OsMemoryConfig &config() const { return cfg_; }

    void report(stats::Report &out) const;

  private:
    /** Open a fresh 2MB block for 4KB carving; returns its base. */
    Addr openBlock();

    OsMemoryConfig cfg_;
    Rng rng_;

    Addr nextBlockBase_ = 0;   //!< bump pointer over 2MB blocks
    Addr open4kBase_ = kInvalidAddr; //!< current block for 4KB carving
    Addr open4kNext_ = 0;      //!< next free 4KB frame in that block

    Addr dataBytes_ = 0;
    Addr ptBytes_ = 0;
    std::uint64_t frames4k_ = 0;
    std::uint64_t frames2m_ = 0;
    std::uint64_t frames1g_ = 0;
    std::uint64_t superFailures_ = 0;
};

} // namespace tempo

#endif // TEMPO_VM_OS_MEMORY_HH
