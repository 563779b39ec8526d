#include <gtest/gtest.h>

#include "dram/address_map.hh"

namespace tempo {
namespace {

DramConfig
defaultConfig()
{
    return DramConfig{};
}

TEST(AddressMap, AdjacentLinesShareRow)
{
    const DramConfig cfg = defaultConfig();
    AddressMap map(cfg);
    // An aligned row-buffer-sized block maps to a single row.
    const Addr base = 16 * cfg.rowBufferBytes;
    for (Addr off = 0; off < cfg.rowBufferBytes; off += kLineBytes)
        EXPECT_TRUE(map.sameRow(base, base + off)) << off;
}

TEST(AddressMap, AdjacentPagesShareRowWith8KRows)
{
    // The paper's Fig. 8 layout: 8KB rows, 4KB pages => two
    // spatially-adjacent physical pages share a DRAM row.
    DramConfig cfg = defaultConfig();
    cfg.rowBufferBytes = 8192;
    AddressMap map(cfg);
    const Addr page0 = 0x40000;
    EXPECT_TRUE(map.sameRow(page0, page0 + kPageBytes));
    EXPECT_FALSE(map.sameRow(page0, page0 + 2 * kPageBytes));
}

TEST(AddressMap, ConsecutiveRowsInterleaveChannels)
{
    DramConfig cfg = defaultConfig();
    ASSERT_GT(cfg.channels, 1u);
    AddressMap map(cfg);
    const DramCoord a = map.decode(0);
    const DramCoord b = map.decode(cfg.rowBufferBytes);
    EXPECT_NE(a.channel, b.channel);
}

TEST(AddressMap, DecodeFieldsInRange)
{
    const DramConfig cfg = defaultConfig();
    AddressMap map(cfg);
    for (Addr addr = 0; addr < (1ull << 34); addr += 0x3fff1) {
        const DramCoord coord = map.decode(addr);
        EXPECT_LT(coord.channel, cfg.channels);
        EXPECT_LT(coord.rank, cfg.ranksPerChannel);
        EXPECT_LT(coord.bank, cfg.banksPerRank);
        EXPECT_LT(coord.col, cfg.rowBufferBytes / kLineBytes);
        EXPECT_LT(coord.flatBank(cfg), cfg.totalBanks());
    }
}

TEST(AddressMap, DecodeIsInjectivePerLine)
{
    const DramConfig cfg = defaultConfig();
    AddressMap map(cfg);
    const DramCoord a = map.decode(0x12340);
    const DramCoord b = map.decode(0x12340 + kLineBytes);
    EXPECT_FALSE(a == b);
}

TEST(AddressMap, SegmentsPartitionTheRow)
{
    const DramConfig cfg = defaultConfig();
    AddressMap map(cfg);
    const unsigned subrows = 8;
    const Addr base = 128 * cfg.rowBufferBytes; // row-aligned
    const Addr seg_bytes = cfg.rowBufferBytes / subrows;
    for (Addr off = 0; off < cfg.rowBufferBytes; off += kLineBytes) {
        EXPECT_EQ(map.segment(base + off, subrows), off / seg_bytes)
            << off;
    }
}

TEST(AddressMap, SegmentOfMonolithicRowIsZero)
{
    const DramConfig cfg = defaultConfig();
    AddressMap map(cfg);
    EXPECT_EQ(map.segment(0xabcdef, 1), 0u);
}

struct GeometryParam {
    unsigned channels, ranks, banks;
    // Fills what would be padding: gtest names each case by the
    // object's bytes, so padding would put stack garbage into the name.
    unsigned zero = 0;
    Addr rowBytes;
};

class AddressMapGeometry : public ::testing::TestWithParam<GeometryParam>
{
};

TEST_P(AddressMapGeometry, RoundTripFieldsStayInRange)
{
    const GeometryParam p = GetParam();
    DramConfig cfg;
    cfg.channels = p.channels;
    cfg.ranksPerChannel = p.ranks;
    cfg.banksPerRank = p.banks;
    cfg.rowBufferBytes = p.rowBytes;
    AddressMap map(cfg);
    for (Addr addr = 0; addr < (1ull << 32); addr += 0x10003f) {
        const DramCoord coord = map.decode(addr);
        EXPECT_LT(coord.channel, p.channels);
        EXPECT_LT(coord.rank, p.ranks);
        EXPECT_LT(coord.bank, p.banks);
        EXPECT_LT(coord.col, p.rowBytes / kLineBytes);
    }
}

TEST_P(AddressMapGeometry, SameRowIsReflexive)
{
    const GeometryParam p = GetParam();
    DramConfig cfg;
    cfg.channels = p.channels;
    cfg.ranksPerChannel = p.ranks;
    cfg.banksPerRank = p.banks;
    cfg.rowBufferBytes = p.rowBytes;
    AddressMap map(cfg);
    for (Addr addr = 0; addr < (1ull << 30); addr += 0x7ffff)
        EXPECT_TRUE(map.sameRow(addr, addr));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AddressMapGeometry,
    ::testing::Values(GeometryParam{.channels = 1, .ranks = 1, .banks = 8,
                                    .rowBytes = 8192},
                      GeometryParam{.channels = 2, .ranks = 1, .banks = 8,
                                    .rowBytes = 8192},
                      GeometryParam{.channels = 4, .ranks = 2, .banks = 16,
                                    .rowBytes = 4096},
                      GeometryParam{.channels = 2, .ranks = 2, .banks = 8,
                                    .rowBytes = 16384},
                      GeometryParam{.channels = 8, .ranks = 1, .banks = 4,
                                    .rowBytes = 2048}));

} // namespace
} // namespace tempo
