/**
 * @file
 * tempo_bench: the figure driver. Each row of the figure table below
 * regenerates one table or figure of the paper: a workload set, a base
 * machine, and variants, each named by the config keys that build it
 * (src/cli/config_file.hh). A row's printer prints the paper's axes as
 * an aligned text table under the paper's expected band.
 *
 *   tempo_bench FIGURE...      # e.g. tempo_bench fig13_superpages
 *   tempo_bench all            # every figure, in table order
 *
 * The TEMPO_* variables of the run-option table (src/cli/run_options.hh,
 * EXPERIMENTS.md "Run options") set trace lengths, outputs, fault
 * handling, checkpoints and the sweep fabric. A figure's points run
 * concurrently as one batch (a mix figure's alone runs included) and land
 * in BENCH_<name>.json (tempo-bench-1, src/stats/json.hh), each with the
 * settings that built it as its "config".
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/config_file.hh"
#include "cli/run_options.hh"
#include "core/experiment.hh"
#include "workloads/workload.hh"

namespace tempo::bench {
namespace {

/** key=value pairs, set in order through cli::setConfigKey(). */
using Settings = std::vector<std::pair<std::string, std::string>>;

/** One variant of a figure: a display label and the settings that
 * build it on top of the figure's machine. In a mix figure a baseline
 * variant also runs each app of each mix alone on its machine; it and
 * the variants after it, up to the next baseline, are measured against
 * those alone runtimes, so a mix figure's first variant is a baseline. */
struct Variant {
    std::string label;
    Settings settings;
    bool baseline = false;
};

enum class Apps {
    BigData, //!< bigDataWorkloadNames(), one app per point
    Small,   //!< smallWorkloadNames(), one app per point
    Mixes,   //!< fairnessMixes(), eight apps per point
};

/** Weighted speedup and maximum slowdown: of one mix, or as the gains
 * of a variant over its baseline averaged over the mixes. */
struct Fairness {
    double weightedSpeedup = 0;
    double maxSlowdown = 0;
};

struct Grid;

/** One row of the figure table. */
struct Figure {
    const char *name; //!< the argument, and BENCH_<name>.json
    const char *title;
    const char *description;
    const char *expected; //!< the paper's expectation
    Apps apps;
    Settings machine; //!< the base machine, on skylakeScaled()
    std::vector<Variant> variants;
    /** Print the table; returns what to print after the JSON path. */
    std::string (*print)(const Grid &grid);
};

/** A figure's finished points. */
struct Grid {
    const Figure &figure;
    /** The apps, or mix0, mix1, ... */
    std::vector<std::string> workloads;
    /** Single-app figures: the run of workload w under variant v at
     * w * |variants| + v. */
    std::vector<RunResult> runs;
    /** Mix figures: each variant's gains over its baseline. */
    std::vector<Fairness> gains;

    const RunResult &
    at(std::size_t w, std::size_t v) const
    {
        return runs[w * figure.variants.size() + v];
    }
};

/** This process's run options, read from the environment on first use;
 * a malformed variable is a usage error, as in the tools: exit 2. */
const cli::RunOptions &
options()
{
    static const cli::RunOptions run = [] {
        try {
            return cli::RunOptions::fromEnv(cli::kEngine | cli::kObs
                                            | cli::kBench);
        } catch (const std::invalid_argument &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            std::exit(2);
        }
    }();
    return run;
}

/** Leave with a front-end exit status other than 0. */
void
exitOn(int status)
{
    if (status)
        std::exit(status);
}

double
pct(double fraction)
{
    return 100.0 * fraction;
}

/** Report lookup that tolerates failed points, whose zeroed results
 * carry an empty report: absent keys read 0. */
double
rget(const RunResult &result, const std::string &key)
{
    return result.report.has(key) ? result.report.get(key) : 0.0;
}

/** Run @p points concurrently; results come back in point order,
 * bit-identical to a serial run. Checkpoints into
 * TEMPO_BENCH_CHECKPOINT_DIR/<name> when that is set and
 * TEMPO_FABRIC_DIR is not; a DIR that is no directory exits 2. */
std::vector<RunResult>
runAll(const std::string &name, const std::vector<ExperimentPoint> &points)
{
    cli::RunOptions run = options();
    run.engine.progressLabel = name;
    const std::string &dir = run.benchCheckpointDir;
    std::error_code error;
    if (!dir.empty() && !run.engine.fabricActive()) {
        if (!std::filesystem::is_directory(dir, error)) {
            std::fprintf(stderr, "error: TEMPO_BENCH_CHECKPOINT_DIR: "
                         "no directory %s\n", dir.c_str());
            std::exit(2);
        }
        useCheckpointDir(run.engine, dir + "/" + name);
    }
    std::vector<RunResult> results;
    exitOn(cli::runBatch(run, name, points, results));
    return results;
}

/** The config of @p variant of @p figure, built as tempo_sweep --key
 * builds one; a setting the table got wrong exits 2. */
SystemConfig
build(const Figure &figure, const Variant &variant)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    try {
        for (const auto &[key, value] : figure.machine)
            cli::setConfigKey(cfg, key, value);
        for (const auto &[key, value] : variant.settings)
            cli::setConfigKey(cfg, key, value);
        cli::checkConfig(cfg);
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "error: %s: %s\n", figure.name, error.what());
        std::exit(2);
    }
    return cfg;
}

/** The multiprogrammed mixes used for the fairness studies (paper
 * Sec. 6.3: Spec/Parsec applications "with a range of memory
 * intensities"; we mix big-data, medium, and small apps). */
std::vector<WorkloadList>
fairnessMixes()
{
    return {
        {"xsbench", "mcf", "lbm.medium", "astar.small", "canneal",
         "milc.medium", "gcc.small", "hmmer.small"},
        {"illustris", "graph500", "libquantum.medium", "bzip2.small",
         "lsh", "lbm.medium", "x264.small", "swaptions.small"},
    };
}

/** Run the mixes of @p figure as one batch, so one manifest and one
 * checkpoint directory cover the figure: first every alone point of
 * its baselines (alonePoints()), then every (variant, mix) pair,
 * variant-major. Records each mix as its weighted speedup and maximum
 * slowdown over the alone runtimes, zero for a failed mix, whose
 * status the JSON records instead, followed by its full report. */
void
runMixes(const std::vector<SystemConfig> &configs, std::uint64_t refs,
         Grid &grid, std::vector<stats::BenchPoint> &points)
{
    const Figure &figure = grid.figure;
    const auto mixes = fairnessMixes();
    std::vector<ExperimentPoint> mix_points, batch;
    for (std::size_t v = 0; v < configs.size(); ++v) {
        for (const WorkloadList &mix : mixes) {
            ExperimentPoint &point = mix_points.emplace_back();
            point.workload = mix;
            point.config = configs[v];
            point.refs = refs;
            if (!figure.variants[v].baseline)
                continue;
            for (ExperimentPoint &alone : alonePoints(point))
                batch.push_back(std::move(alone));
        }
    }
    const std::size_t first_mix = batch.size();
    batch.insert(batch.end(), mix_points.begin(), mix_points.end());
    for (std::size_t m = 0; m < mixes.size(); ++m)
        grid.workloads.push_back("mix" + std::to_string(m));
    const std::vector<RunResult> results = runAll(figure.name, batch);

    auto next_alone = results.begin();
    std::vector<std::vector<Cycle>> alone(mixes.size());
    std::vector<Fairness> base(mixes.size());
    for (std::size_t v = 0; v < configs.size(); ++v) {
        const Variant &variant = figure.variants[v];
        Fairness &gain = grid.gains.emplace_back();
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            if (variant.baseline) {
                alone[m].clear();
                for (std::size_t i = 0; i < mixes[m].size(); ++i)
                    alone[m].push_back((next_alone++)->runtime);
            }
            const RunResult &result =
                results[first_mix + v * mixes.size() + m];
            const RunStatus &status = result.status;
            const Fairness fairness = status.ok()
                ? Fairness{weightedSpeedup(result.appFinish, alone[m]),
                           maxSlowdown(result.appFinish, alone[m])}
                : Fairness{};
            if (variant.baseline)
                base[m] = fairness;
            else if (status.ok() && base[m].weightedSpeedup > 0) {
                gain.weightedSpeedup += fairness.weightedSpeedup
                    / base[m].weightedSpeedup - 1.0;
                gain.maxSlowdown += 1.0
                    - fairness.maxSlowdown / base[m].maxSlowdown;
            }
            stats::BenchPoint &point = points.emplace_back();
            point.workload = grid.workloads[m];
            point.config = variant.settings;
            point.runtimeCycles = result.runtime;
            point.counters = {
                {"weighted_speedup", fairness.weightedSpeedup},
                {"max_slowdown", fairness.maxSlowdown}};
            for (const auto &[name, value] : result.report.entries())
                point.counters.emplace_back("report." + name, value);
            point.status = status.codeName();
            point.error = status.error;
            point.attempts = status.attempts;
            point.seedUsed = status.seedUsed;
            point.digest = status.digest;
        }
        gain.weightedSpeedup /= mixes.size();
        gain.maxSlowdown /= mixes.size();
    }
}

/** Run @p figure, print it and write BENCH_<name>.json. */
void
runFigure(const Figure &figure)
{
    std::printf("==============================================================================\n");
    std::printf("%s — %s\n", figure.title, figure.description);
    std::printf("paper expectation: %s\n", figure.expected);
    std::printf("==============================================================================\n");

    std::vector<SystemConfig> configs;
    for (const Variant &variant : figure.variants)
        configs.push_back(build(figure, variant));
    Grid grid{figure, {}, {}, {}};
    std::vector<stats::BenchPoint> points;
    const bool mixes = figure.apps == Apps::Mixes;
    const std::uint64_t refs =
        mixes ? options().benchRefsMp : options().benchRefs;
    if (mixes) {
        runMixes(configs, refs, grid, points);
    } else {
        grid.workloads = figure.apps == Apps::BigData
            ? bigDataWorkloadNames()
            : smallWorkloadNames();
        std::vector<ExperimentPoint> batch;
        for (const std::string &workload : grid.workloads) {
            for (const SystemConfig &cfg : configs) {
                ExperimentPoint &point = batch.emplace_back();
                point.workload = workload;
                point.config = cfg;
                point.refs = refs;
            }
        }
        grid.runs = runAll(figure.name, batch);
        for (std::size_t i = 0; i < batch.size(); ++i)
            points.push_back(toBenchPoint(
                batch[i].workload.front(),
                figure.variants[i % configs.size()].settings,
                grid.runs[i]));
    }

    const std::string verdict = figure.print(grid);
    const std::string &dir = options().benchJsonDir;
    exitOn(cli::writeJson(stdout,
                          (dir.empty() ? "" : dir + "/") + "BENCH_"
                              + figure.name + ".json",
                          figure.name, refs,
                          SystemConfig::skylakeScaled().seed, points));
    std::printf("%s\n", verdict.c_str());
}

/** Each of @p variants without and with TEMPO: its settings followed
 * by mc.tempo=false, then by mc.tempo=true. */
std::vector<Variant>
tempoPairs(const std::vector<Variant> &variants)
{
    std::vector<Variant> pairs;
    for (const Variant &variant : variants) {
        for (const char *on : {"false", "true"}) {
            Variant &pair = pairs.emplace_back(variant);
            pair.settings.emplace_back("mc.tempo", on);
        }
    }
    return pairs;
}

const Variant kBaseline{"baseline", {{"mc.tempo", "false"}}};
const Variant kTempo{"TEMPO", {{"mc.tempo", "true"}}};

/** The shared machine of the eight-app mixes: the LLC grows with core
 * count (the paper's 32-core part shares a large LLC) and the memory
 * system gets more channels, keeping per-core cache and bandwidth
 * shares comparable to the single-app machine. */
Settings
multiprogMachine()
{
    return {{"caches.llc_bytes",
             std::to_string(8 * SystemConfig::skylakeScaled()
                                    .caches.llc.sizeBytes)},
            {"dram.channels", "4"}};
}

// Figure 1: fraction of total application runtime spent on DRAM page
// table accesses (DRAM-PTW-Access), DRAM accesses for post-walk replays
// (DRAM-Replay-Access), and all other DRAM accesses (DRAM-Other), for
// the eight big-data workloads on the baseline (no-TEMPO) machine.
std::string
printRuntimeBreakdown(const Grid &grid)
{
    std::printf("%-10s %14s %17s %12s %12s\n", "workload",
                "DRAM-PTW-Acc%", "DRAM-Replay-Acc%", "DRAM-Other%",
                "non-DRAM%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const RunResult &result = grid.at(w, 0);
        const double ptw = result.fracRuntimePtwDram();
        const double replay = result.fracRuntimeReplayDram();
        const double other = result.fracRuntimeOtherDram();
        std::printf("%-10s %14.1f %17.1f %12.1f %12.1f\n",
                    grid.workloads[w].c_str(), pct(ptw), pct(replay),
                    pct(other), pct(1.0 - ptw - replay - other));
    }
    return "";
}

// Figure 4: fraction of total DRAM references devoted to page-table
// walk accesses, replay accesses, and other accesses — plus the two
// side observations quoted in Secs. 1/2.2: 96%+ of DRAM page-table
// accesses are for leaf PTs, and 98%+ of DRAM page-table walks are
// followed by a DRAM access for the replay.
std::string
printDramBreakdown(const Grid &grid)
{
    std::printf("%-10s %10s %12s %10s | %10s %15s\n", "workload",
                "PTW%", "Replay%", "Other%", "leaf-PT%",
                "replay-follows%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const RunResult &result = grid.at(w, 0);
        const CoreStats &core = result.core();
        std::printf("%-10s %10.1f %12.1f %10.1f | %10.1f %15.1f\n",
                    grid.workloads[w].c_str(), pct(result.fracDramPtw()),
                    pct(result.fracDramReplay()),
                    pct(result.fracDramOther()),
                    pct(stats::ratio(core.leafPtDramAccesses,
                                     core.ptDramAccesses)),
                    pct(stats::ratio(core.replayDramAfterDramWalk,
                                     core.replayAfterDramWalk)));
    }
    return "";
}

// Figure 10: TEMPO's performance (left axis, blue in the paper) and
// energy (green) improvements as a fraction of baseline execution, plus
// the fraction of the memory footprint backed by 2MB superpages (right
// graph). Footer reports the hardware-overhead numbers from Sec. 4.1.
std::string
printPerfEnergy(const Grid &grid)
{
    std::printf("%-10s %8s %8s %14s\n", "workload", "perf%", "energy%",
                "2MB-coverage%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const RunResult &base = grid.at(w, 0);
        const RunResult &tempo = grid.at(w, 1);
        std::printf("%-10s %8.1f %8.1f %14.1f\n",
                    grid.workloads[w].c_str(),
                    pct(tempo.speedupOver(base)),
                    pct(tempo.energySavingOver(base)),
                    pct(base.coverage2M));
    }
    const EnergyConfig energy;
    std::printf("\nhardware overheads (paper Sec. 4.1, synthesis): "
                "memory controller +%.1f%%, page table walker +%.1f%% "
                "(paper: +3%% / +0.5%%)\n",
                pct(energy.tempoMcAreaOverhead),
                pct(energy.tempoWalkerAreaOverhead));
    return "";
}

// Figure 11 (left): where TEMPO-eligible replays are serviced — the LLC
// (prefetch landed in time), the DRAM row buffer / an in-flight
// prefetch (partial overlap), or the DRAM array (the pathological
// unaided tail).
std::string
printReplayBreakdown(const Grid &grid)
{
    std::printf("%-10s %8s %18s %10s %10s\n", "workload", "LLC%",
                "rowbuf+overlap%", "unaided%", "L1/L2%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const CoreStats &core = grid.at(w, 0).core();
        const char *name = grid.workloads[w].c_str();
        const double total = static_cast<double>(core.replayAfterDramWalk);
        if (total == 0) {
            std::printf("%-10s (no eligible replays)\n", name);
            continue;
        }
        std::printf("%-10s %8.1f %18.1f %10.1f %10.1f\n", name,
                    pct(core.replayLlcHits / total),
                    pct((core.replayRowHits + core.replayMerged) / total),
                    pct(core.replayArray / total),
                    pct(core.replayPrivateHits / total));
    }
    return "";
}

// Figure 11 (right): TEMPO on smaller-footprint Spec/Parsec workloads —
// the do-no-harm study. The paper reports ~1-2% performance and ~1%
// energy improvements, and crucially not a single slowdown.
std::string
printSmallFootprint(const Grid &grid)
{
    std::printf("%-18s %8s %8s %12s\n", "workload", "perf%", "energy%",
                "TLB-miss%");
    bool any_harm = false;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const RunResult &base = grid.at(w, 0);
        const RunResult &tempo = grid.at(w, 1);
        const double perf = tempo.speedupOver(base);
        const double energy = tempo.energySavingOver(base);
        any_harm |= perf < -0.005 || energy < -0.005;
        std::printf("%-18s %8.1f %8.1f %12.1f\n", grid.workloads[w].c_str(),
                    pct(perf), pct(energy), pct(rget(base, "tlb.miss_rate")));
    }
    return std::string("\n")
        + (any_harm ? "WARNING: a workload was harmed"
                    : "no workload harmed (matches paper)")
        + "\n";
}

// Figure 12: TEMPO's benefits with and without the IMP indirect memory
// prefetcher (Sec. 4.2). The paper's claim — "TEMPO improves the
// performance of systems using IMP by as much as 40%, going beyond its
// 10-30% improvements of systems without prefetching" — is reported
// here as the combined IMP+TEMPO improvement over the no-prefetching
// baseline, alongside the IMP-relative TEMPO delta.
//
// Mechanics reproduced: IMP's cross-page prefetches do their own page
// table walks (thrashing the TLB and generating extra DRAM PT accesses
// that trigger TEMPO), and its mispredicted prefetches waste bandwidth
// that TEMPO's row-buffer hits partially recover.
std::string
printImpInteraction(const Grid &grid)
{
    std::printf("%-10s | %12s %12s %14s | %12s\n", "workload",
                "TEMPO alone%", "TEMPO on IMP%", "IMP+TEMPO tot%",
                "energy tot%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const RunResult &plain = grid.at(w, 0);
        const RunResult &plain_tempo = grid.at(w, 1);
        const RunResult &imp = grid.at(w, 2);
        const RunResult &imp_tempo = grid.at(w, 3);
        std::printf("%-10s | %12.1f %12.1f %14.1f | %12.1f\n",
                    grid.workloads[w].c_str(),
                    pct(plain_tempo.speedupOver(plain)),
                    pct(imp_tempo.speedupOver(imp)),
                    pct(imp_tempo.speedupOver(plain)),
                    pct(imp_tempo.energySavingOver(plain)));
    }
    return "";
}

// Figure 13: TEMPO performance improvement as a function of the
// fraction of the footprint backed by superpages. Points per workload:
// 4KB-only (triangle), THP with memhog at 0/25/50/75% fragmentation
// (circles; memhog=0 is the red circle used throughout the paper),
// libhugetlbfs 2MB, and libhugetlbfs 1GB (boxes).
std::string
printSuperpages(const Grid &grid)
{
    const std::vector<Variant> &variants = grid.figure.variants;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        std::printf("%s:\n", grid.workloads[w].c_str());
        std::printf("  %-14s %12s %10s\n", "config", "coverage%",
                    "benefit%");
        for (std::size_t v = 0; v < variants.size(); v += 2) {
            const RunResult &base = grid.at(w, v);
            std::printf("  %-14s %12.1f %10.1f\n", variants[v].label.c_str(),
                        pct(base.superpageCoverage),
                        pct(grid.at(w, v + 1).speedupOver(base)));
        }
    }
    return "";
}

// Figure 14: TEMPO's performance improvement under adaptive, open, and
// closed row-buffer management, each normalized to a baseline running
// the *same* policy without TEMPO.
std::string
printRowPolicies(const Grid &grid)
{
    std::printf("%-10s %10s %10s %10s\n", "workload", "adaptive%",
                "open%", "closed%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        std::printf("%-10s", grid.workloads[w].c_str());
        for (std::size_t v = 0; v < grid.figure.variants.size(); v += 2)
            std::printf(" %10.1f",
                        pct(grid.at(w, v + 1).speedupOver(grid.at(w, v))));
        std::printf("\n");
    }
    return "";
}

/** One row per workload: each variant's speedup over variant 0. */
std::string
printOverBaseline(const Grid &grid, const char *format)
{
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        std::printf("%-10s", grid.workloads[w].c_str());
        for (std::size_t v = 1; v < grid.figure.variants.size(); ++v)
            std::printf(format,
                        pct(grid.at(w, v).speedupOver(grid.at(w, 0))));
        std::printf("\n");
    }
    return "";
}

// Figure 15: the PT-row anticipation delay sweep. After serving a page
// table access, TEMPO leaves the row open for a few cycles anticipating
// more PT requests to the same row (Sec. 4.3a). The paper finds 5-10
// cycles gain ~1-4% over wait=0, while 15 cycles starts to hurt by
// delaying prefetches and demand accesses.
std::string
printPtWait(const Grid &grid)
{
    std::printf("%-10s %8s %8s %8s %8s\n", "workload", "wait0%",
                "wait5%", "wait10%", "wait15%");
    return printOverBaseline(grid, " %8.2f");
}

// Ablation study of TEMPO's design choices (DESIGN.md Sec. 4): which
// part of the mechanism buys what. Each variant is measured against the
// common no-TEMPO baseline on every big-data workload.
std::string
printAblation(const Grid &grid)
{
    std::printf("%-10s", "workload");
    for (std::size_t v = 1; v < grid.figure.variants.size(); ++v)
        std::printf(" %12s", grid.figure.variants[v].label.c_str());
    std::printf("\n");
    return printOverBaseline(grid, " %11.1f%%");
}

/** One row of a fairness table: a variant's gains over its baseline. */
void
printGains(const Grid &grid, std::size_t v, int width)
{
    std::printf("%*s %20.2f %20.2f\n", width,
                grid.figure.variants[v].label.c_str(),
                pct(grid.gains[v].weightedSpeedup),
                pct(grid.gains[v].maxSlowdown));
}

// Figure 16: TEMPO atop the BLISS fairness scheduler on multiprogrammed
// mixes. Left: fractional improvement in weighted speedup and maximum
// slowdown as a function of the BLISS counter weight charged to TEMPO
// prefetches (paper: half the demand weight is best). Right: the same
// metrics as a function of the post-prefetch grace period (paper: 15
// cycles is best).
std::string
printBliss(const Grid &grid)
{
    const std::vector<Variant> &variants = grid.figure.variants;
    const std::string *swept = nullptr;
    for (std::size_t v = 1; v < variants.size(); ++v) {
        const std::string &key = variants[v].settings[0].first;
        if (!swept || key != *swept) {
            std::printf("\n%s\n", key == "mc.grace_period"
                        ? "right: grace period after prefetch (cycles)"
                        : "left: prefetch counter weight (demand "
                          "weight = 2)");
            std::printf("%6s %20s %20s\n", "x", "d-weighted-speedup%",
                        "d-max-slowdown%");
            swept = &key;
        }
        printGains(grid, v, 6);
    }
    return "";
}

// Figure 17: sub-row buffers (8 x 1KB per bank, Gulur et al.) under the
// FOA and POA allocation policies, sweeping how many sub-rows are
// dedicated to TEMPO's post-translation prefetches. The paper finds
// that dedicating 2 of 8 is the sweet spot (~15% weighted speedup,
// ~20% for the slowest app); dedicating too many starves demand.
std::string
printSubrow(const Grid &grid)
{
    const std::vector<Variant> &variants = grid.figure.variants;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        if (!variants[v].baseline) {
            printGains(grid, v, 12);
            continue;
        }
        std::printf("\n%s:\n", variants[v].label.c_str());
        std::printf("%12s %20s %20s\n", "dedicated",
                    "d-weighted-speedup%", "d-max-slowdown%");
    }
    return "";
}

// TEMPO x prefetcher interaction matrix (Sec. 4.2 generalized). The
// paper's orthogonality argument — TEMPO prefetches the *translation
// replay target* from the memory controller, so it composes with any
// core-side data prefetcher — is tested here across the whole registry.
// For every engine the table reports TEMPO's speedup on top of that
// engine plus the engine's prefetch accuracy from the registry taxonomy
// (useful / issued). Engine cells carry the full prefetch.<name>.*
// taxonomy so the CI matrix-smoke job can check useful + late + useless
// == issued on real runs.
std::string
printMatrix(const Grid &grid)
{
    std::printf("%-10s | %-8s | %12s %12s %12s %12s\n", "workload",
                "engine", "TEMPO dC%", "accuracy%", "late%", "energy%");
    const std::vector<Variant> &variants = grid.figure.variants;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t v = 0; v < variants.size(); v += 2) {
            const RunResult &base = grid.at(w, v);
            const RunResult &tempo = grid.at(w, v + 1);
            const std::string &engine = variants[v].label;
            const std::string prefix = "prefetch." + engine + ".";
            const double issued = rget(base, prefix + "issued");
            const double useful = rget(base, prefix + "useful");
            const double late = rget(base, prefix + "late");
            std::printf("%-10s | %-8s | %12.1f %12.1f %12.1f %12.1f\n",
                        grid.workloads[w].c_str(), engine.c_str(),
                        pct(tempo.speedupOver(base)),
                        issued > 0 ? pct(useful / issued) : 0.0,
                        issued > 0 ? pct(late / issued) : 0.0,
                        pct(tempo.energySavingOver(base)));
        }
    }
    return "";
}

std::vector<Figure>
makeFigures()
{
    // Label, vm.page_policy, vm.frag (the memhog fragmentation).
    const char *const superpage_rows[][3] = {
        {"4K-only", "4k", "0"},
        {"THP+memhog75", "thp", "0.75"},
        {"THP+memhog50", "thp", "0.5"},
        {"THP+memhog25", "thp", "0.25"},
        {"THP (red dot)", "thp", "0"},
        {"hugetlbfs-2M", "hugetlbfs2m", "0"},
        {"hugetlbfs-1G", "hugetlbfs1g", "0"},
    };
    std::vector<Variant> superpages;
    for (const auto &row : superpage_rows)
        superpages.push_back(
            {row[0], {{"vm.page_policy", row[1]}, {"vm.frag", row[2]}}});

    std::vector<Variant> pt_wait{kBaseline};
    for (const char *wait : {"0", "5", "10", "15"})
        pt_wait.push_back({std::string("wait") + wait,
                           {{"mc.tempo", "true"}, {"mc.pt_row_hold", wait}}});

    std::vector<Variant> bliss{{"baseline", {{"mc.tempo", "false"}}, true}};
    for (const char *weight : {"0", "1", "2", "3", "4"})
        bliss.push_back({weight, {{"mc.bliss_prefetch_weight", weight},
                                  {"mc.tempo", "true"}}});
    for (const char *grace : {"0", "5", "15", "30", "60"})
        bliss.push_back(
            {grace, {{"mc.grace_period", grace}, {"mc.tempo", "true"}}});

    std::vector<Variant> subrow;
    for (const char *alloc : {"foa", "poa"}) {
        subrow.push_back({alloc,
                          {{"dram.subrow_alloc", alloc}, {"mc.tempo", "false"}},
                          true});
        for (const char *dedicated : {"0", "1", "2", "4", "6"})
            subrow.push_back({dedicated,
                              {{"dram.subrow_alloc", alloc},
                               {"dram.subrows_for_prefetch", dedicated},
                               {"mc.tempo", "true"}}});
    }

    std::vector<Variant> engines;
    for (const char *engine :
         {"none", "stride", "imp", "tskid", "misb", "temporal"})
        engines.push_back({engine, {{"prefetch.engines", engine}}});

    Settings bliss_machine = multiprogMachine();
    bliss_machine.emplace_back("mc.sched", "bliss");

    return {
        {"fig01_runtime_breakdown", "Figure 1",
         "runtime breakdown of DRAM overheads (baseline)",
         "DRAM-PTW-Access ~5-25%, DRAM-Replay-Access ~10-30% (nearly as "
         "large as PTW), DRAM-Other substantial",
         Apps::BigData, {}, {kBaseline}, printRuntimeBreakdown},
        {"fig04_dram_breakdown", "Figure 4",
         "DRAM reference breakdown (baseline)",
         "DRAM-PTW-Access 20-40% of DRAM references; DRAM-Replay-Access "
         "comparable; leaf PTEs ~96%+ of PT DRAM traffic; 98%+ of DRAM "
         "walks followed by DRAM replays",
         Apps::BigData, {}, {kBaseline}, printDramBreakdown},
        {"fig10_perf_energy", "Figure 10",
         "TEMPO performance & energy improvement + 2MB coverage",
         "performance +10-30% (xsbench near the top), energy +1-14%, "
         ">50% of footprint in 2MB superpages, no workload hurt",
         Apps::BigData, {}, {kBaseline, kTempo}, printPerfEnergy},
        {"fig11_replay_breakdown", "Figure 11 (left)",
         "replay service points under TEMPO",
         "75%+ of replays serviced from the LLC; most of the rest from the "
         "row buffer / overlapping prefetch; only a tiny unaided tail",
         Apps::BigData, {}, {kTempo}, printReplayBreakdown},
        {"fig11_small_footprint", "Figure 11 (right)",
         "small-footprint workloads: TEMPO does no harm",
         "every workload >= 0%; typical gains ~1-2% perf, ~1% energy",
         Apps::Small, {}, {kBaseline, kTempo}, printSmallFootprint},
        {"fig12_imp_interaction", "Figure 12",
         "TEMPO x IMP prefetcher interaction",
         "combined IMP+TEMPO reaches well beyond TEMPO-alone (paper: up to "
         "~40% vs 10-30%); energy tracks performance",
         Apps::BigData, {},
         tempoPairs({{"plain", {{"imp.enabled", "false"}}},
                     {"IMP", {{"imp.enabled", "true"}}}}),
         printImpInteraction},
        {"fig13_superpages", "Figure 13",
         "TEMPO benefit vs superpage coverage",
         "benefit declines as coverage rises but stays positive: "
         "high-coverage 2MB still +8-25%, 1GB pages still +5%-ish",
         Apps::BigData, {}, tempoPairs(superpages), printSuperpages},
        {"fig14_row_policies", "Figure 14",
         "TEMPO benefit per row-buffer policy",
         "TEMPO improves every policy on every workload; exact ordering is "
         "workload-dependent (canneal likes open rows, illustris is best "
         "with closed rows)",
         Apps::BigData, {},
         tempoPairs({{"adaptive", {{"dram.row_policy", "adaptive"}}},
                     {"open", {{"dram.row_policy", "open"}}},
                     {"closed", {{"dram.row_policy", "closed"}}}}),
         printRowPolicies},
        {"fig15_pt_wait", "Figure 15",
         "TEMPO benefit vs PT-row anticipation delay (cycles)",
         "sweet spot around 10 cycles; 15 no better or slightly worse "
         "(y-axis is zoomed in the paper: differences are single percents)",
         Apps::BigData, {}, pt_wait, printPtWait},
        {"fig16_bliss", "Figure 16", "BLISS fairness scheduler x TEMPO",
         "weighted speedup improves in every configuration; the slowest "
         "app improves ~10%+; best prefetch weight = half of demand (1 vs "
         "2); best grace period ~15 cycles",
         Apps::Mixes, bliss_machine, bliss, printBliss},
        {"fig17_subrow", "Figure 17",
         "sub-row buffers: FOA/POA x dedicated prefetch sub-rows",
         "2 dedicated sub-rows is the sweet spot; more dedication "
         "deprioritizes demand and degrades",
         Apps::Mixes, multiprogMachine(), subrow, printSubrow},
        {"fig_matrix", "Interaction matrix",
         "TEMPO x {none, stride, imp, tskid, misb, temporal}",
         "TEMPO helps under every engine (Sec. 4.2 orthogonality); "
         "prefetch-heavy engines walk more, so TEMPO recovers more",
         Apps::BigData, {}, tempoPairs(engines), printMatrix},
        // Variants: full (row-buffer + LLC prefetch, Tx-Q grouping,
        // holds); row-only (the prefetch opens the DRAM row but never
        // fills the LLC, the stages paper Sec. 2.2 / Fig. 3 tell apart);
        // no-grouping (FR-FCFS without the Sec. 4.3(b) PT/prefetch
        // groups); no-holds (no anticipation delay, no grace period);
        // slow-engine (Prefetch Engine latency 2 -> 20 cycles: the
        // timeliness headroom the slack window leaves); drop-all
        // (prefetches always dropped, a sanity check that must read ~0).
        {"ablation_tempo", "Ablation", "TEMPO variants vs common baseline",
         "full >= row-only > drop-all ~ 0; grouping and engine speed "
         "matter less than the LLC fill",
         Apps::BigData, {},
         {kBaseline,
          {"full", {{"mc.tempo", "true"}}},
          {"row-only", {{"mc.tempo", "true"}, {"mc.llc_fill", "false"}}},
          {"no-grouping", {{"mc.tempo", "true"}, {"mc.grouping", "false"}}},
          {"no-holds",
           {{"mc.tempo", "true"},
            {"mc.pt_row_hold", "0"},
            {"mc.grace_period", "0"}}},
          {"slow-engine", {{"mc.tempo", "true"}, {"mc.engine_delay", "20"}}},
          {"drop-all", {{"mc.tempo", "true"}, {"mc.drop_depth", "0"}}}},
         printAblation},
    };
}

} // namespace
} // namespace tempo::bench

int
main(int argc, char **argv)
{
    using namespace tempo::bench;
    const std::vector<Figure> figures = makeFigures();
    std::string usage = "usage: tempo_bench FIGURE... | all\nfigures:\n";
    for (const Figure &figure : figures)
        usage += std::string("  ") + figure.name + "\n";

    std::vector<const Figure *> chosen;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const std::size_t before = chosen.size();
        for (const Figure &figure : figures) {
            if (arg == "all" || arg == figure.name)
                chosen.push_back(&figure);
        }
        if (chosen.size() == before) {
            std::fprintf(stderr, "error: unknown figure '%s'\n%s", argv[i],
                         usage.c_str());
            return 2;
        }
    }
    if (chosen.empty()) {
        std::fprintf(stderr, "%s", usage.c_str());
        return 2;
    }
    // Read the run options before any output, so a malformed variable
    // exits 2 first. A fabric directory holds the manifest of one sweep.
    const bool fabric = options().engine.fabricActive();
    if (chosen.size() > 1 && fabric) {
        std::fprintf(stderr, "error: TEMPO_FABRIC_DIR runs one figure, "
                             "not %zu\n", chosen.size());
        return 2;
    }
    for (const Figure *figure : chosen)
        runFigure(*figure);
    return 0;
}
