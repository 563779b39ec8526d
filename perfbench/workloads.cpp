/**
 * @file
 * The ledger's workloads. Machine configs are frozen here as INI text
 * (copies of configs/paper_baseline.ini and configs/tempo_full.ini at
 * the time the ledger was defined) so that editing a shipped config
 * never silently changes what the ledger measures.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cli/config_file.hh"
#include "ledger.hh"
#include "workloads/workload.hh"

namespace perfbench {

using tempo::SystemConfig;

namespace {

constexpr const char *kPaperBaselineIni = R"(
[dram]
channels = 2
banks = 8
row_bytes = 8192
row_policy = adaptive
refresh = true

[mc]
sched = frfcfs
tempo = false

[vm]
page_policy = thp
frag = 0.0
)";

constexpr const char *kTempoFullIni = R"(
[mc]
tempo = true
llc_fill = true
grouping = true
pt_row_hold = 10
grace_period = 15
engine_delay = 2
)";

/** First mix of the fairness studies (bench/fig16_bliss.cpp). */
const std::vector<std::string> kMix8 = {
    "xsbench", "mcf",         "lbm.medium", "astar.small",
    "canneal", "milc.medium", "gcc.small",  "hmmer.small",
};

SystemConfig
withIni(SystemConfig cfg, const char *ini, std::uint64_t seed)
{
    tempo::cli::applyConfigText(ini, cfg);
    cfg.withSeed(seed);
    return cfg;
}

std::uint64_t
scaled(std::uint64_t refs, double scale)
{
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(refs) * scale));
}

/** Apps are seeded like makeMix(): seed + 13 * index. */
Point
makePoint(const std::string &label, const SystemConfig &cfg,
          const std::vector<std::string> &names, std::uint64_t refs,
          std::uint64_t warmup, double scale)
{
    Point point;
    point.label = label;
    point.config = cfg;
    for (std::size_t i = 0; i < names.size(); ++i)
        point.apps.push_back(App{names[i], cfg.seed + 13 * i});
    point.refs = std::max<std::uint64_t>(1, scaled(refs, scale));
    point.warmup = scaled(warmup, scale);
    return point;
}

} // namespace

BenchWorkload
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  double scale)
{
    const SystemConfig skylake = SystemConfig::skylakeScaled();
    BenchWorkload w;
    w.name = name;
    if (name == "bigdata-tempo") {
        const SystemConfig cfg = withIni(skylake, kTempoFullIni, seed);
        for (const char *app : {"mcf", "xsbench"})
            w.points.push_back(
                makePoint(app, cfg, {app}, 150000, 50000, scale));
    } else if (name == "small-baseline") {
        const SystemConfig cfg =
            withIni(skylake, kPaperBaselineIni, seed);
        for (const char *app : {"astar.small", "gcc.small"})
            w.points.push_back(
                makePoint(app, cfg, {app}, 150000, 50000, scale));
    } else if (name == "mix8-bliss") {
        // multiprogMachine(..., 8) from bench/bench_common.hh: the LLC
        // grows with the core count and DRAM gets four channels.
        SystemConfig machine = skylake;
        machine.caches.llc.sizeBytes *= kMix8.size();
        machine.dram.channels = 4;
        SystemConfig cfg = withIni(machine, kTempoFullIni, seed);
        cfg.withSched(tempo::SchedKind::Bliss);
        w.points.push_back(
            makePoint("mix8", cfg, kMix8, 30000, 10000, scale));
    } else if (name == "sweep-jobs") {
        const SystemConfig cfg = withIni(skylake, kTempoFullIni, seed);
        for (const std::string &app : tempo::bigDataWorkloadNames())
            w.points.push_back(
                makePoint(app, cfg, {app}, 45000, 15000, scale));
        w.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    } else {
        throw std::invalid_argument("unknown workload " + name);
    }
    return w;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
