/**
 * @file
 * Full-report digests: every simulated statistic of a fixed-seed run,
 * hashed. GoldenStats pins headline counters only; these pins also
 * catch a shift in a counter nobody looks at (MSHR merges, merged
 * replays, per-level PT traffic, queue delays) and cover a BLISS mix.
 *
 * The hash is FNV-1a over each (name, value) entry in report order,
 * skipping the wall-clock profile.* keys — the digest
 * perfbench/perf_ledger.cpp prints as `sim_digest`. A mismatch prints
 * the new digest; an intentional model change re-pins it by pasting
 * that value and calling the shift out in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/config_file.hh"
#include "core/experiment.hh"

#ifndef TEMPO_CONFIG_DIR
#error "TEMPO_CONFIG_DIR must point at the committed configs/"
#endif

namespace tempo {
namespace {

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
digest(const stats::Report &report)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &[name, value] : report.entries()) {
        if (name.rfind("profile.", 0) == 0)
            continue;
        h = fnv(h, name.data(), name.size());
        h = fnv(h, &value, sizeof value);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

SystemConfig
presetConfig(const char *file)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cli::applyConfigFile(std::string(TEMPO_CONFIG_DIR) + "/" + file, cfg);
    return cfg;
}

struct PinnedPoint {
    const char *config;   //!< INI file under configs/
    const char *workload; //!< default seed, 20000 refs
    const char *digest;
};

const PinnedPoint kPoints[] = {
    {"tempo_full.ini", "mcf", "39dce4d116f8c24a"},
    {"tempo_full.ini", "xsbench", "57abac9cfb91c4fe"},
    {"paper_baseline.ini", "astar.small", "a6669a70e4ff3c70"},
    {"paper_baseline.ini", "gcc.small", "49f5d07ab7fb0fac"},
};

/** The single-app points, run once through the parallel engine. */
const std::vector<RunResult> &
pointResults()
{
    static const std::vector<RunResult> results = [] {
        std::vector<ExperimentPoint> points;
        for (const PinnedPoint &pinned : kPoints) {
            ExperimentPoint p;
            p.workload = pinned.workload;
            p.config = presetConfig(pinned.config);
            p.refs = 20000;
            points.push_back(std::move(p));
        }
        return runExperiments(points, 4);
    }();
    return results;
}

TEST(ReportDigest, SingleAppPoints)
{
    for (std::size_t i = 0; i < std::size(kPoints); ++i) {
        const RunResult &r = pointResults()[i];
        SCOPED_TRACE(std::string(kPoints[i].config) + " / "
                     + kPoints[i].workload);
        ASSERT_TRUE(r.status.ok()) << r.status.error;
        stats::Report report = r.report;
        report.add("runtime", static_cast<std::uint64_t>(r.runtime));
        EXPECT_EQ(hex(digest(report)), kPoints[i].digest);
    }
}

/** The eight-app BLISS mix of the fairness studies, on the machine
 * multiprogMachine() in bench/tempo_bench.cpp builds for eight cores. */
TEST(ReportDigest, BlissMix8)
{
    const std::vector<std::string> mix = {
        "xsbench", "mcf",         "lbm.medium", "astar.small",
        "canneal", "milc.medium", "gcc.small",  "hmmer.small",
    };
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.caches.llc.sizeBytes *= mix.size();
    cfg.dram.channels = 4;
    cli::applyConfigFile(std::string(TEMPO_CONFIG_DIR) + "/tempo_full.ini",
                         cfg);
    cfg.withSched(SchedKind::Bliss);

    System system(cfg, makeMix(mix, cfg.seed));
    const RunResult result = system.run(3000, 1000);
    ASSERT_EQ(result.appFinish.size(), mix.size());

    stats::Report report;
    report.add("runtime", static_cast<std::uint64_t>(result.runtime));
    for (std::size_t i = 0; i < system.numCores(); ++i) {
        SimCore &core = system.core(i);
        const std::string app = "app" + std::to_string(i) + ".";
        report.add(app + "finish",
                   static_cast<std::uint64_t>(result.appFinish[i]));
        stats::Report part, tlb, mmu, caches, vm;
        result.appStats[i].report(part);
        report.merge(app, part);
        core.tlb.report(tlb);
        report.merge(app + "tlb.", tlb);
        core.mmu.report(mmu);
        report.merge(app + "mmu.", mmu);
        core.caches.report(caches);
        report.merge(app + "cache.", caches);
        core.addressSpace.report(vm);
        report.merge(app + "vm.", vm);
    }
    stats::Report dram, mc, energy;
    system.machine().dram.report(dram);
    report.merge("dram.", dram);
    system.machine().mc.report(mc);
    report.merge("mc.", mc);
    result.energy.report(energy);
    report.merge("energy.", energy);

    EXPECT_EQ(hex(digest(report)), "6f14b40ef3c77a98");
}

} // namespace
} // namespace tempo
