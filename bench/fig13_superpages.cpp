/**
 * @file
 * Figure 13: TEMPO performance improvement as a function of the
 * fraction of the footprint backed by superpages. Points per workload:
 * 4KB-only (triangle), THP with memhog at 0/25/50/75% fragmentation
 * (circles; memhog=0 is the red circle used throughout the paper),
 * libhugetlbfs 2MB, and libhugetlbfs 1GB (boxes).
 */

#include "bench_common.hh"

namespace {

struct Config13 {
    const char *label;
    tempo::PagePolicy policy;
    double frag;
};

} // namespace

int
main()
{
    using namespace tempo;
    using namespace tempo::bench;

    header("Figure 13",
           "TEMPO benefit vs superpage coverage",
           "benefit declines as coverage rises but stays positive: "
           "high-coverage 2MB still +8-25%, 1GB pages still +5%-ish");

    const Config13 configs[] = {
        {"4K-only", PagePolicy::Base4K, 0.0},
        {"THP+memhog75", PagePolicy::Thp, 0.75},
        {"THP+memhog50", PagePolicy::Thp, 0.50},
        {"THP+memhog25", PagePolicy::Thp, 0.25},
        {"THP (red dot)", PagePolicy::Thp, 0.0},
        {"hugetlbfs-2M", PagePolicy::Hugetlbfs2M, 0.0},
        {"hugetlbfs-1G", PagePolicy::Hugetlbfs1G, 0.0},
    };

    const std::vector<std::string> &names = bigDataWorkloadNames();
    const std::size_t num_configs = std::size(configs);

    std::vector<ExperimentPoint> points;
    for (const std::string &name : names) {
        for (const Config13 &config : configs) {
            SystemConfig cfg = SystemConfig::skylakeScaled();
            cfg.vm.policy = config.policy;
            cfg.os.fragLevel = config.frag;
            SystemConfig tempo_cfg = cfg;
            tempo_cfg.withTempo(true);
            points.push_back(point(cfg, name, refs()));
            points.push_back(point(tempo_cfg, name, refs()));
        }
    }
    Bench bench("fig13_superpages");
    const std::vector<RunResult> results = bench.runAll(points);

    std::size_t idx = 0;
    for (const std::string &name : names) {
        std::printf("%s:\n", name.c_str());
        std::printf("  %-14s %12s %10s\n", "config", "coverage%",
                    "benefit%");
        for (std::size_t c = 0; c < num_configs; ++c, idx += 2) {
            const Pair pair{results[idx], results[idx + 1]};
            std::printf("  %-14s %12.1f %10.1f\n", configs[c].label,
                        pct(pair.base.superpageCoverage),
                        pct(pair.tempo.speedupOver(pair.base)));
            const std::vector<std::pair<std::string, std::string>>
                base_overrides = {{"vm.page_policy", configs[c].label},
                                  {"mc.tempo", "false"}};
            auto tempo_overrides = base_overrides;
            tempo_overrides[1].second = "true";
            bench.add(name, base_overrides, pair.base);
            bench.add(name, tempo_overrides, pair.tempo);
        }
    }
    bench.write(refs());
    footer();
    return 0;
}
