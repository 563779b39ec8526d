/**
 * @file
 * Heap-allocation budget of the per-reference path. This executable
 * replaces the global operator new/delete with counting versions, so it
 * is built apart from tempo_tests (whose other suites must not see the
 * replacement).
 *
 * A point's allocations per reference are taken as the difference
 * between a long and a short run of the same point, divided by the
 * difference in references: construction and first-touch set-up cancel
 * out, and what is left is the steady-state cost of simulating one
 * more reference (page-table growth included).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "cli/config_file.hh"
#include "core/system.hh"

#ifndef TEMPO_CONFIG_DIR
#error "TEMPO_CONFIG_DIR must point at the committed configs/"
#endif

namespace {

// Plain (not atomic): every measured run is on the test's own thread.
std::uint64_t gAllocations = 0;

void *
countedAlloc(std::size_t n)
{
    ++gAllocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t align)
{
    ++gAllocations;
    const auto a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tempo {
namespace {

constexpr std::uint64_t kShortRefs = 20000;
constexpr std::uint64_t kLongRefs = 60000;

struct Budget {
    const char *name;     //!< test-case name
    const char *config;   //!< INI file under configs/
    const char *workload; //!< seed 1
    double maxPerRef;     //!< allocations per reference, exclusive
};

/** Heap allocations to build and run @p refs references of @p b. */
std::uint64_t
allocationsFor(const Budget &b, std::uint64_t refs)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cli::applyConfigFile(std::string(TEMPO_CONFIG_DIR) + "/" + b.config,
                         cfg);
    cfg.withSeed(1);
    const std::uint64_t before = gAllocations;
    {
        System system(cfg, makeWorkload(b.workload, cfg.seed));
        const RunResult result = system.run(refs);
        EXPECT_EQ(result.core().refs, refs);
    }
    return gAllocations - before;
}

void
PrintTo(const Budget &b, std::ostream *os)
{
    *os << b.name;
}

class AllocBudget : public ::testing::TestWithParam<Budget>
{
};

TEST_P(AllocBudget, PerReferenceBelowBound)
{
    const Budget &b = GetParam();
    const std::uint64_t short_run = allocationsFor(b, kShortRefs);
    const std::uint64_t long_run = allocationsFor(b, kLongRefs);
    const double per_ref =
        (static_cast<double>(long_run) - static_cast<double>(short_run))
        / static_cast<double>(kLongRefs - kShortRefs);
    RecordProperty("allocations_per_ref", std::to_string(per_ref));
    std::printf("%s: %.3f allocations per reference\n", b.name, per_ref);
    EXPECT_LT(per_ref, b.maxPerRef);
}

// Bounds for the points the TEMPO evaluation leans on. First-touch
// bookkeeping in vm/ (the page table's PTE words, the touched-granule
// set) grows with the footprint by doubling flat arrays, so no point
// allocates per new page either, and the indirect streams of xsbench
// and spmv keep their look-ahead in a fixed ring.
INSTANTIATE_TEST_SUITE_P(
    Points, AllocBudget,
    ::testing::Values(
        Budget{"AstarSmallBaseline", "paper_baseline.ini", "astar.small",
               0.05},
        Budget{"GccSmallBaseline", "paper_baseline.ini", "gcc.small",
               0.05},
        Budget{"McfTempo", "tempo_full.ini", "mcf", 0.05},
        Budget{"XsbenchTempo", "tempo_full.ini", "xsbench", 0.005},
        Budget{"SpmvTempo", "tempo_full.ini", "spmv", 0.005}),
    [](const ::testing::TestParamInfo<Budget> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tempo
