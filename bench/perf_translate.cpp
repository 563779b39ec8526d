/**
 * @file
 * perf_translate: translations/sec of the memoized translation fast
 * path (vm/translator.hh) vs the unmemoized PageTable lookups it
 * fronts, over the same page table and the same address streams.
 *
 *   perf_translate [--ops N]
 *
 * The table mixes all three page sizes (4K/2M/1G) like a THP-governed
 * heap. Four translation patterns bracket the design space:
 *
 *   page-streak — sequential 64B strides, long same-page runs: the
 *                 flat last-translation slot should dominate;
 *   hot-set     — skewed random pages (TLB-resident-like reuse): the
 *                 direct-mapped memo should dominate;
 *   uniform     — uniform random pages: memo with collision evictions;
 *   mutating    — uniform with a protect() flip every 4K translations:
 *                 measures epoch-based bulk invalidation overhead;
 *
 * plus a structural-walk trial (the walker's plan() feed). Both paths
 * fold every result (frame, permission, size, step addresses) into a
 * checksum; a mismatch means the memo diverged from the functional
 * walk and the run exits non-zero. Output is plain text plus a final
 * geomean speedup line; the CI perf-smoke job prints it
 * informationally.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "vm/os_memory.hh"
#include "vm/page_table.hh"
#include "vm/translator.hh"

namespace {

using namespace tempo;

struct TrialResult {
    double rate = 0;         //!< translations (or walks) per second
    std::uint64_t check = 0; //!< folded results of every lookup
};

/** Deterministic mixed-page-size table: ~8K leaves worth of 4K pages,
 * 2MB regions, and a pair of 1GB regions, in disjoint VA ranges. */
struct Arena {
    OsMemory os{OsMemoryConfig{}};
    PageTable table{os};
    std::vector<Addr> bases;     //!< one entry per mapped leaf
    std::vector<Addr> sizes;     //!< pageBytes of that leaf

    Arena()
    {
        Rng rng(12345);
        // 4K pages scattered through [0, 2GB).
        for (int i = 0; i < 6000; ++i) {
            const Addr base =
                alignDown(rng.below(Addr{2} << 30), kPageBytes);
            if (table.translate(base).valid)
                continue;
            table.map(base, PageSize::Page4K,
                      os.allocFrame(PageSize::Page4K));
            add(base, PageSize::Page4K);
        }
        // 2MB pages in [2GB, 4GB).
        for (int i = 0; i < 256; ++i) {
            const Addr base = (Addr{2} << 30)
                              + alignDown(rng.below(Addr{2} << 30),
                                          pageBytes(PageSize::Page2M));
            if (table.translate(base).valid)
                continue;
            table.map(base, PageSize::Page2M,
                      os.allocFrame(PageSize::Page2M));
            add(base, PageSize::Page2M);
        }
        // 1GB pages at [4GB, 6GB).
        for (int i = 0; i < 2; ++i) {
            const Addr base =
                (Addr{4} << 30)
                + static_cast<Addr>(i) * pageBytes(PageSize::Page1G);
            table.map(base, PageSize::Page1G,
                      os.allocFrame(PageSize::Page1G));
            add(base, PageSize::Page1G);
        }
    }

    void
    add(Addr base, PageSize size)
    {
        bases.push_back(base);
        sizes.push_back(pageBytes(size));
    }
};

enum class Pattern { PageStreak, HotSet, Uniform, Mutating };

/** The address stream each pattern feeds both translator paths. */
std::vector<Addr>
makeStream(const Arena &arena, Pattern pattern)
{
    constexpr std::size_t kStream = 1u << 16;
    Rng rng(777);
    std::vector<Addr> stream;
    stream.reserve(kStream);
    Addr cursor = arena.bases[0];
    Addr cursor_end = cursor + arena.sizes[0];
    for (std::size_t i = 0; i < kStream; ++i) {
        switch (pattern) {
          case Pattern::PageStreak:
            // 64B sequential strides; hop pages when one runs out.
            if (cursor + 64 >= cursor_end) {
                const std::size_t p = rng.below(arena.bases.size());
                cursor = arena.bases[p];
                cursor_end =
                    cursor + std::min<Addr>(arena.sizes[p], 1u << 20);
            }
            stream.push_back(cursor);
            cursor += 64;
            break;
          case Pattern::HotSet: {
            // 90% of picks land in 64 hot pages.
            const std::size_t p = rng.skewedBelow(
                arena.bases.size(), 64, 0.9);
            stream.push_back(arena.bases[p]
                             + rng.below(arena.sizes[p]));
            break;
          }
          case Pattern::Uniform:
          case Pattern::Mutating: {
            const std::size_t p = rng.below(arena.bases.size());
            stream.push_back(arena.bases[p]
                             + rng.below(arena.sizes[p]));
            break;
          }
        }
    }
    return stream;
}

std::uint64_t
fold(std::uint64_t check, std::uint64_t value)
{
    return (check ^ value) * 0x9e3779b97f4a7c15ULL;
}

/** Time @p translate (Addr -> Translation) over @p stream. */
template <typename Translate>
TrialResult
runTranslate(Arena &arena, Translate translate,
             const std::vector<Addr> &stream, std::uint64_t ops,
             bool mutate)
{
    // protect() flips on a fixed page: a full epoch-based memo flush
    // every 4096 translations, charged to the measured loop.
    const Addr flip_page = arena.bases[0];
    bool writable = false;

    TrialResult result;
    const auto start = std::chrono::steady_clock::now();
    std::size_t pos = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        if (mutate && (i & 0xfff) == 0) {
            arena.table.protect(flip_page, writable);
            writable = !writable;
        }
        const Addr vaddr = stream[pos];
        pos = (pos + 1 == stream.size()) ? 0 : pos + 1;
        const Translation t = translate(vaddr);
        result.check = fold(result.check,
                            t.physAddr(vaddr)
                                + (t.writable ? 1 : 0)
                                + static_cast<Addr>(t.size));
    }
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    result.rate = static_cast<double>(ops) / secs;
    return result;
}

/** Time @p walk (Addr -> step count plus every PTE address) over
 * @p stream. */
template <typename Walk>
TrialResult
runWalks(Walk walk, const std::vector<Addr> &stream, std::uint64_t ops)
{
    TrialResult result;
    const auto start = std::chrono::steady_clock::now();
    std::size_t pos = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const Addr vaddr = stream[pos];
        pos = (pos + 1 == stream.size()) ? 0 : pos + 1;
        result.check = fold(result.check, walk(vaddr));
    }
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    result.rate = static_cast<double>(ops) / secs;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t ops = 4000000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
            ops = std::strtoull(argv[++i], nullptr, 10);
            if (ops == 0) {
                std::fprintf(stderr,
                             "error: --ops needs a positive count, "
                             "got '%s'\n", argv[i]);
                return 2;
            }
        }
    }

    Arena arena;
    std::printf("table: %zu leaves, %llu nodes\n", arena.bases.size(),
                static_cast<unsigned long long>(
                    arena.table.nodeCount()));

    struct Row {
        const char *name;
        Pattern pattern;
        bool mutate;
    };
    static const Row rows[] = {
        {"page-streak", Pattern::PageStreak, false},
        {"hot-set", Pattern::HotSet, false},
        {"uniform", Pattern::Uniform, false},
        {"mutating", Pattern::Mutating, true},
    };

    bool diverged = false;
    double geomean = 1.0;
    std::size_t trials = 0;

    std::printf("%-12s %16s %16s %9s\n", "pattern", "table xlate/s",
                "memo xlate/s", "speedup");
    const auto tableTranslate = [&](Addr vaddr) {
        return arena.table.translate(vaddr);
    };
    for (const Row &row : rows) {
        const std::vector<Addr> stream =
            makeStream(arena, row.pattern);
        Translator memo(arena.table);
        const TrialResult a =
            runTranslate(arena, tableTranslate, stream, ops, row.mutate);
        const TrialResult b = runTranslate(
            arena, [&](Addr vaddr) { return memo.translate(vaddr); },
            stream, ops, row.mutate);
        if (a.check != b.check) {
            std::fprintf(
                stderr,
                "FAIL: translate divergence on %s "
                "(table %016llx vs memo %016llx)\n", row.name,
                static_cast<unsigned long long>(a.check),
                static_cast<unsigned long long>(b.check));
            diverged = true;
        }
        const double speedup = b.rate / a.rate;
        geomean *= speedup;
        ++trials;
        std::printf("%-12s %16.0f %16.0f %8.2fx\n", row.name, a.rate,
                    b.rate, speedup);
    }

    {
        // Structural walks over the hot-set stream (the TLB-miss feed).
        const std::vector<Addr> stream =
            makeStream(arena, Pattern::HotSet);
        Translator memo(arena.table);
        const TrialResult a = runWalks(
            [&](Addr vaddr) {
                WalkStep steps[4];
                Translation xlate;
                const int count = arena.table.walkInto(vaddr, steps, xlate);
                std::uint64_t acc = static_cast<std::uint64_t>(count);
                for (int s = 0; s < count; ++s)
                    acc += steps[s].pteAddr;
                return acc;
            },
            stream, ops / 2);
        const TrialResult b = runWalks(
            [&](Addr vaddr) {
                const CachedWalk &walk = memo.walk(vaddr);
                std::uint64_t acc = static_cast<std::uint64_t>(walk.count);
                for (int s = 0; s < walk.count; ++s)
                    acc += walk.steps[s].pteAddr;
                return acc;
            },
            stream, ops / 2);
        if (a.check != b.check) {
            std::fprintf(
                stderr,
                "FAIL: walk divergence "
                "(table %016llx vs memo %016llx)\n",
                static_cast<unsigned long long>(a.check),
                static_cast<unsigned long long>(b.check));
            diverged = true;
        }
        const double speedup = b.rate / a.rate;
        geomean *= speedup;
        ++trials;
        std::printf("%-12s %16.0f %16.0f %8.2fx\n", "walks", a.rate,
                    b.rate, speedup);
    }

    geomean = std::pow(geomean, 1.0 / static_cast<double>(trials));
    std::printf("geomean speedup: %.2fx\n", geomean);
    return diverged ? 1 : 0;
}
