/**
 * @file
 * Tests for the packed tag-array core (cache/tag_array.hh): directed
 * LRU-order cases, the invalidate-dirty contract, and randomized
 * differential runs pitting the packed SetAssocCache / AssocArray
 * against the linear-scan implementation (forced on through
 * CacheConfig::useReferenceCache) across associativities 1/2/4/8/16.
 * CacheByteIdentity checks the same equivalence end to end.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/set_assoc.hh"
#include "cache/tag_array.hh"
#include "cli/config_file.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/system.hh"
#include "stats/json.hh"
#include "vm/assoc_array.hh"

namespace tempo {
namespace {

CacheConfig
refConfig()
{
    CacheConfig cfg;
    cfg.useReferenceCache = true;
    return cfg;
}

// --- TagArray geometry and selection ---

TEST(TagArray, Packability)
{
    EXPECT_TRUE(TagArray::packable(1, 1));
    EXPECT_TRUE(TagArray::packable(64, 8));
    EXPECT_TRUE(TagArray::packable(1024, 16));
    EXPECT_FALSE(TagArray::packable(3, 4));   // non-pow2 sets
    EXPECT_FALSE(TagArray::packable(64, 17)); // too wide
    EXPECT_FALSE(TagArray::packable(64, 0));
}

TEST(TagArray, UnpackableGeometryFallsBackToReference)
{
    // 32 ways exceeds kMaxWays: the cache must silently run the
    // reference path rather than refuse the geometry.
    SetAssocCache wide(64 * 1024, 32);
    EXPECT_TRUE(wide.usingReference());
    wide.insert(0x1000);
    EXPECT_TRUE(wide.lookup(0x1000));

    SetAssocCache normal(64 * 1024, 16);
    EXPECT_FALSE(normal.usingReference());
}

TEST(TagArray, ConfigForcesReference)
{
    SetAssocCache cache(4096, 4, refConfig());
    EXPECT_TRUE(cache.usingReference());

    AssocArray<std::uint8_t> arr(64, 4, refConfig());
    EXPECT_TRUE(arr.usingReference());
}

// --- Directed LRU-order cases, run on both implementations ---

class LruOrder : public ::testing::TestWithParam<bool>
{
  protected:
    CacheConfig
    impl() const
    {
        CacheConfig cfg;
        cfg.useReferenceCache = GetParam();
        return cfg;
    }
};

TEST_P(LruOrder, HitPromotesToMru)
{
    // One set, 4 ways: after touching a, the eviction order of the
    // rest must be untouched (b, then c, then d).
    SetAssocCache cache(4 * kLineBytes, 4, impl());
    ASSERT_EQ(cache.numSets(), 1u);
    const Addr a = 0 * kLineBytes, b = 1 * kLineBytes * 1,
               c = 2 * kLineBytes, d = 3 * kLineBytes;
    // One set means every line maps to set 0 regardless of address.
    cache.insert(a);
    cache.insert(b);
    cache.insert(c);
    cache.insert(d);
    ASSERT_TRUE(cache.lookup(a)); // a: LRU -> MRU
    EXPECT_EQ(cache.insert(4 * kLineBytes), b);
    EXPECT_EQ(cache.insert(5 * kLineBytes), c);
    EXPECT_EQ(cache.insert(6 * kLineBytes), d);
    EXPECT_EQ(cache.insert(7 * kLineBytes), a);
}

TEST_P(LruOrder, VictimOfFullSetIsTrueLru)
{
    SetAssocCache cache(8 * kLineBytes, 8, impl());
    ASSERT_EQ(cache.numSets(), 1u);
    for (Addr i = 0; i < 8; ++i)
        cache.insert(i * kLineBytes);
    // Touch in an order that scrambles insertion order.
    const Addr touch[] = {3, 0, 7, 1, 6, 2, 5, 4};
    for (Addr i : touch)
        ASSERT_TRUE(cache.lookup(i * kLineBytes));
    // Evictions must now follow the touch order exactly.
    for (unsigned n = 0; n < 8; ++n) {
        EXPECT_EQ(cache.insert((100 + n) * kLineBytes),
                  touch[n] * kLineBytes);
    }
}

TEST_P(LruOrder, InvalidWayFillsBeforeEviction)
{
    SetAssocCache cache(4 * kLineBytes, 4, impl());
    ASSERT_EQ(cache.numSets(), 1u);
    for (Addr i = 0; i < 4; ++i)
        cache.insert(i * kLineBytes);
    cache.invalidate(1 * kLineBytes);
    // The freed way must absorb the next insert with no victim...
    EXPECT_EQ(cache.insert(10 * kLineBytes), kInvalidAddr);
    // ...and the LRU order of the surviving lines is unchanged.
    EXPECT_EQ(cache.insert(11 * kLineBytes), 0 * kLineBytes);
    EXPECT_EQ(cache.insert(12 * kLineBytes), 2 * kLineBytes);
}

INSTANTIATE_TEST_SUITE_P(Impls, LruOrder, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "Reference" : "Packed";
                         });

// --- invalidate() dirty contract (the lost-writeback fix) ---

TEST(SetAssocCacheInvalidate, ReportsDroppedDirtyState)
{
    for (bool use_ref : {false, true}) {
        CacheConfig cfg;
        cfg.useReferenceCache = use_ref;
        SetAssocCache cache(4096, 4, cfg);

        cache.insert(0x1000);
        EXPECT_FALSE(cache.invalidate(0x1000)) << "clean line";

        cache.insertTracked(0x2000, true);
        EXPECT_TRUE(cache.invalidate(0x2000)) << "dirty at install";

        cache.insert(0x3000);
        cache.markDirty(0x3000);
        EXPECT_TRUE(cache.invalidate(0x3000)) << "dirtied later";

        EXPECT_FALSE(cache.invalidate(0x4000)) << "absent line";
        EXPECT_FALSE(cache.invalidate(0x3000)) << "already gone";
    }
}

TEST(SetAssocCacheInvalidate, ReinsertAfterDirtyInvalidateIsClean)
{
    SetAssocCache cache(4096, 4);
    cache.insertTracked(0x5000, true);
    ASSERT_TRUE(cache.invalidate(0x5000));
    cache.insert(0x5000);
    EXPECT_FALSE(cache.isDirty(0x5000));
    EXPECT_FALSE(cache.invalidate(0x5000));
}

// --- Randomized differential: packed vs reference ---

/** Drive a packed and a reference SetAssocCache through one random
 * interleaving of operations, asserting identical observables at
 * every step. */
void
diffSetAssoc(Addr size_bytes, unsigned assoc, std::uint64_t seed,
             unsigned ops)
{
    SetAssocCache packed(size_bytes, assoc);
    SetAssocCache ref(size_bytes, assoc, refConfig());
    ASSERT_FALSE(packed.usingReference());
    ASSERT_TRUE(ref.usingReference());

    Rng rng(seed);
    // Footprint ~4x capacity so hits, misses, and evictions all occur.
    const Addr lines = 4 * (size_bytes / kLineBytes);
    for (unsigned i = 0; i < ops; ++i) {
        const Addr addr = (rng.next() % lines) * kLineBytes;
        switch (rng.next() % 8) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(packed.lookup(addr), ref.lookup(addr)) << i;
            break;
          case 3:
          case 4: {
            const bool dirty = rng.next() & 1;
            const auto pv = packed.insertTracked(addr, dirty);
            const auto rv = ref.insertTracked(addr, dirty);
            ASSERT_EQ(pv.addr, rv.addr) << i;
            ASSERT_EQ(pv.dirty, rv.dirty) << i;
            break;
          }
          case 5:
            ASSERT_EQ(packed.markDirty(addr), ref.markDirty(addr)) << i;
            break;
          case 6:
            ASSERT_EQ(packed.invalidate(addr), ref.invalidate(addr))
                << i;
            break;
          case 7:
            ASSERT_EQ(packed.isDirty(addr), ref.isDirty(addr)) << i;
            ASSERT_EQ(packed.contains(addr), ref.contains(addr)) << i;
            break;
        }
        if (i % 1024 == 0) {
            ASSERT_EQ(packed.hits(), ref.hits()) << i;
            ASSERT_EQ(packed.misses(), ref.misses()) << i;
        }
    }
    EXPECT_EQ(packed.hits(), ref.hits());
    EXPECT_EQ(packed.misses(), ref.misses());

    // reset() must bring both back to the same (empty) state.
    packed.reset();
    ref.reset();
    EXPECT_EQ(packed.lookup(0), ref.lookup(0));
}

TEST(TagArrayDifferential, SetAssocAcrossAssociativities)
{
    std::uint64_t seed = 0x7e3a11;
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(assoc);
        diffSetAssoc(assoc * 8 * kLineBytes, assoc, seed++, 20000);
    }
}

TEST(TagArrayDifferential, SetAssocSingleSet)
{
    // Degenerate single-set geometry exercises the full rank word.
    for (unsigned assoc : {1u, 4u, 16u}) {
        SCOPED_TRACE(assoc);
        diffSetAssoc(assoc * kLineBytes, assoc, 0xbee5 + assoc, 20000);
    }
}

/** Same differential for the generic AssocArray, including payload
 * refresh semantics. */
void
diffAssocArray(unsigned entries, unsigned assoc, std::uint64_t seed,
               unsigned ops)
{
    AssocArray<std::uint32_t> packed(entries, assoc);
    AssocArray<std::uint32_t> ref(entries, assoc, refConfig());
    ASSERT_FALSE(packed.usingReference());
    ASSERT_TRUE(ref.usingReference());
    ASSERT_EQ(packed.capacity(), ref.capacity());

    Rng rng(seed);
    const std::uint64_t keys = 4 * packed.capacity();
    for (unsigned i = 0; i < ops; ++i) {
        const std::uint64_t key = rng.next() % keys;
        switch (rng.next() % 8) {
          case 0:
          case 1:
          case 2: {
            const std::uint32_t *p = packed.lookup(key);
            const std::uint32_t *r = ref.lookup(key);
            ASSERT_EQ(p != nullptr, r != nullptr) << i;
            if (p) {
                ASSERT_EQ(*p, *r) << i;
            }
            break;
          }
          case 3:
          case 4:
          case 5: {
            const auto payload =
                static_cast<std::uint32_t>(rng.next());
            packed.insert(key, payload);
            ref.insert(key, payload);
            break;
          }
          case 6:
            packed.invalidate(key);
            ref.invalidate(key);
            break;
          case 7:
            ASSERT_EQ(packed.contains(key), ref.contains(key)) << i;
            break;
        }
    }
    EXPECT_EQ(packed.hits(), ref.hits());
    EXPECT_EQ(packed.misses(), ref.misses());
}

TEST(TagArrayDifferential, AssocArrayAcrossAssociativities)
{
    std::uint64_t seed = 0x51de;
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(assoc);
        diffAssocArray(assoc * 16, assoc, seed++, 20000);
    }
}

TEST(TagArrayDifferential, TlbLikeGeometry)
{
    // The STLB's 1536/12 geometry (128 sets, 12 ways — a non-pow2,
    // non-multiple-of-4 way count exercising the padded rank lanes).
    diffAssocArray(1536, 12, 0xd0c5, 40000);
}

// --- End-to-end byte identity ---

/**
 * Full simulations of two paper workloads under both committed
 * presets, serialized through the bench JSON writer, must be
 * byte-identical with every cache, TLB and MMU-cache array on the
 * packed path and with all of them on the linear scan.
 */
TEST(CacheByteIdentity, BenchJsonIdenticalPackedVsLinearScan)
{
    constexpr std::uint64_t kRefs = 20000;
    for (const char *preset : {"paper_baseline.ini", "tempo_full.ini"}) {
        for (const char *workload : {"mcf", "astar.small"}) {
            SystemConfig cfg = SystemConfig::skylakeScaled();
            cli::applyConfigFile(
                std::string(TEMPO_CONFIG_DIR) + "/" + preset, cfg);
            SystemConfig scan_cfg = cfg;
            scan_cfg.cache.useReferenceCache = true;

            const auto dumpOf = [&](const SystemConfig &c) {
                std::vector<stats::BenchPoint> points;
                points.push_back(toBenchPoint(
                    workload, {{"config_file", preset}},
                    runWorkload(c, workload, kRefs)));
                return stats::benchJson("cache_identity", kRefs, 42,
                                        points)
                    .dump();
            };
            EXPECT_EQ(dumpOf(cfg), dumpOf(scan_cfg))
                << workload << " " << preset;
        }
    }
}

} // namespace
} // namespace tempo
