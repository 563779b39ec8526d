/**
 * @file
 * Configuration-matrix property tests: the full system must run
 * correctly — and TEMPO must keep its invariants — across a sweep of
 * hardware geometries, not just the default preset.
 */

#include <gtest/gtest.h>

#include "core/tempo_system.hh"

namespace tempo {
namespace {

struct MatrixPoint {
    const char *label;
    unsigned channels;
    unsigned banks;
    Addr rowBytes;
    Addr llcBytes;
    unsigned stlbEntries;
    RowPolicyKind rowPolicy;
};

// gtest prints each parameter into the registered test name; the
// default byte dump would include the label's address, which ASLR
// changes on every test discovery.
void
PrintTo(const MatrixPoint &p, std::ostream *os)
{
    *os << p.label;
}

class ConfigMatrix : public ::testing::TestWithParam<MatrixPoint>
{
  protected:
    SystemConfig
    make() const
    {
        const MatrixPoint &p = GetParam();
        SystemConfig cfg = SystemConfig::skylakeScaled();
        cfg.dram.channels = p.channels;
        cfg.dram.banksPerRank = p.banks;
        cfg.dram.rowBufferBytes = p.rowBytes;
        cfg.caches.llc.sizeBytes = p.llcBytes;
        cfg.tlb.l2Entries = p.stlbEntries;
        cfg.dram.rowPolicy = p.rowPolicy;
        return cfg;
    }
};

TEST_P(ConfigMatrix, RunsToCompletion)
{
    const RunResult result = runWorkload(make(), "graph500", 15000);
    EXPECT_EQ(result.core.refs, 15000u);
    EXPECT_GT(result.runtime, 0u);
}

TEST_P(ConfigMatrix, Deterministic)
{
    const RunResult a = runWorkload(make(), "canneal", 10000);
    const RunResult b = runWorkload(make(), "canneal", 10000);
    EXPECT_EQ(a.runtime, b.runtime);
}

TEST_P(ConfigMatrix, TempoNeverHurts)
{
    SystemConfig base = make();
    SystemConfig tempo_cfg = make();
    tempo_cfg.withTempo(true);
    const RunResult off = runWorkload(base, "xsbench", 15000);
    const RunResult on = runWorkload(tempo_cfg, "xsbench", 15000);
    EXPECT_LE(on.runtime, off.runtime * 101 / 100)
        << GetParam().label;
}

TEST_P(ConfigMatrix, TempoPrefetchAccountingHolds)
{
    SystemConfig cfg = make();
    cfg.withTempo(true);
    TempoSystem system(cfg, makeWorkload("illustris", cfg.seed));
    const RunResult result = system.run(15000);
    const auto &mc = system.machine().mc;
    EXPECT_EQ(mc.tempoPrefetchesIssued() + mc.tempoPrefetchesDropped()
                  + mc.tempoFaultSuppressed(),
              result.core.leafPtDramAccesses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConfigMatrix,
    ::testing::Values(
        MatrixPoint{"default", 2, 8, 8192, 256 * 1024, 1536,
                    RowPolicyKind::Adaptive},
        MatrixPoint{"one-channel", 1, 8, 8192, 256 * 1024, 1536,
                    RowPolicyKind::Adaptive},
        MatrixPoint{"four-channel", 4, 8, 8192, 256 * 1024, 1536,
                    RowPolicyKind::Open},
        MatrixPoint{"small-rows", 2, 16, 2048, 256 * 1024, 1536,
                    RowPolicyKind::Closed},
        MatrixPoint{"big-rows", 2, 4, 16384, 256 * 1024, 1536,
                    RowPolicyKind::Adaptive},
        MatrixPoint{"big-llc", 2, 8, 8192, 2 * 1024 * 1024, 1536,
                    RowPolicyKind::Adaptive},
        MatrixPoint{"tiny-llc", 2, 8, 8192, 64 * 1024, 1536,
                    RowPolicyKind::Adaptive},
        MatrixPoint{"small-stlb", 2, 8, 8192, 256 * 1024, 192,
                    RowPolicyKind::Adaptive},
        MatrixPoint{"huge-stlb", 2, 8, 8192, 256 * 1024, 12288,
                    RowPolicyKind::Adaptive}),
    [](const ::testing::TestParamInfo<MatrixPoint> &info) {
        std::string name = info.param.label;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

class SubRowMatrix : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SubRowMatrix, SubRowCountsAllWork)
{
    for (SubRowAlloc alloc : {SubRowAlloc::FOA, SubRowAlloc::POA}) {
        SystemConfig cfg = SystemConfig::skylakeScaled();
        cfg.dram.subRowAlloc = alloc;
        cfg.dram.subRowCount = GetParam();
        cfg.dram.subRowsForPrefetch =
            GetParam() > 2 ? 2 : GetParam() - 1;
        cfg.withTempo(true);
        const RunResult result = runWorkload(cfg, "mcf", 10000);
        EXPECT_EQ(result.core.refs, 10000u);
    }
}

INSTANTIATE_TEST_SUITE_P(Counts, SubRowMatrix,
                         ::testing::Values(2u, 4u, 8u, 16u));

} // namespace
} // namespace tempo
