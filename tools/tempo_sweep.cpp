/**
 * @file
 * tempo_sweep: sweep one configuration key (any key of the table in
 * src/cli/config_file.hh, which INI config files also set) across a
 * list of values and print a CSV of runtime,
 * energy, and the headline statistics — optionally with a TEMPO
 * comparison column per point.
 *
 *   tempo_sweep --workload xsbench --key dram.row_policy \
 *               --values open,closed,adaptive --compare
 *   tempo_sweep --workload mcf --key mc.pt_row_hold --values 0,5,10,15 \
 *               --tempo --jobs 8 --json sweep.json
 *   tempo_sweep --workload graph500 --key vm.frag \
 *               --values 0,0.25,0.5,0.75 --compare --refs 200000
 *
 * `tempo_sweep --help` lists every key with its values.
 * All points run concurrently on the experiment engine (--jobs N,
 * default all cores); output is byte-identical for any job count.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/config_file.hh"
#include "cli/run_options.hh"
#include "common/parse.hh"
#include "common/profiler.hh"
#include "core/experiment.hh"
#include "fabric/snapshot.hh"

namespace {

using namespace tempo;

struct SweepArgs {
    std::string workload = "xsbench";
    std::string key;
    std::vector<std::string> values;
    std::uint64_t refs = 150000;
    std::uint64_t warmup = 0;
    std::string jsonPath;
    bool tempo = false;
    bool compare = false;
    bool profile = false;
    std::string dashboardDir; //!< "" = no dashboard
    cli::RunOptions run; //!< the TEMPO_* variables, run flags on top
};

[[noreturn]] void
usage()
{
    std::fputs(
        "usage: tempo_sweep --key SECTION.KEY --values V1,V2,...\n"
        "  [--workload NAME] [--refs N] [--warmup N] [--json PATH]\n"
        "  [--profile] [--dashboard DIR] [--tempo | --compare]\n"
        "  [run flags]\n"
        "Keys are the config keys INI files set as [SECTION] KEY; the\n"
        "list below gives each key's values. Results are identical at\n"
        "any job count. A failed point does not kill the sweep: its row\n"
        "shows the status, details go to stderr and the JSON.\n"
        "--dashboard DIR rewrites DIR/snapshot.json (the machine-\n"
        "readable snapshot) and DIR/dashboard.html (a live page to\n"
        "open in a browser) every second.\n"
        "Scale-out: with TEMPO_FABRIC_DIR/TEMPO_FABRIC_ROLE set (see\n"
        "EXPERIMENTS.md \"Fabric sweeps\"), several worker processes\n"
        "share one sweep; --dashboard then reports the whole fabric (and\n"
        "implies the coordinator role when none is set).\n"
        "Exit status: 0 when at least one\n"
        "point succeeded, 3 when all failed, 2 on usage errors.\n\n",
        stdout);
    std::fputs(cli::runFlagUsage(cli::kSweep).c_str(), stdout);
    std::printf("\nKeys:\n");
    for (const cli::ConfigKey &key : cli::configKeys())
        std::printf("  %-32s %s\n", key.name, key.values().c_str());
    std::exit(0);
}

SweepArgs
parseArgs(const std::vector<std::string> &argv)
{
    SweepArgs args;
    args.run = cli::RunOptions::fromEnv();
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        auto next = [&]() -> const std::string & {
            if (i + 1 >= argv.size())
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            args.workload = next();
        else if (arg == "--key")
            args.key = next();
        else if (arg == "--values")
            args.values = splitCommas(next());
        else if (arg == "--refs") {
            args.refs = parseU64(arg, next());
            if (args.refs == 0)
                throw std::invalid_argument("--refs must be positive");
        } else if (arg == "--warmup")
            args.warmup = parseU64(arg, next());
        else if (cli::applyRunFlag(args.run, cli::kSweep,
                                   argv, i))
            ;
        else if (arg == "--json")
            args.jsonPath = next();
        else if (arg == "--tempo")
            args.tempo = true;
        else if (arg == "--compare")
            args.compare = true;
        else if (arg == "--profile")
            args.profile = true;
        else if (arg == "--dashboard")
            args.dashboardDir = next();
        else if (arg == "--help" || arg == "-h")
            usage();
        else
            throw std::invalid_argument("unknown option '" + arg
                                        + "' (try --help)");
    }
    if (args.key.empty() || args.values.empty())
        throw std::invalid_argument("--key and --values are required "
                                    "(try --help)");
    (void)cli::configKey(args.key);
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepArgs args;
    // One point per value, plus the TEMPO twin when comparing. All
    // points are independent: each builds its own config and workload
    // (seeded from the config), so the engine may run them in any
    // order on any thread.
    std::vector<ExperimentPoint> points;
    std::vector<std::vector<std::pair<std::string, std::string>>>
        overrides;
    try {
        args = parseArgs({argv + 1, argv + argc});
        ExperimentPoint point;
        point.workload = args.workload;
        point.refs = args.refs;
        point.warmup = args.warmup;
        for (const std::string &value : args.values) {
            for (int twin = 0; twin <= args.compare; ++twin) {
                const bool tempo = twin || args.tempo;
                point.config = SystemConfig::skylakeScaled();
                point.config.withTempo(tempo);
                cli::setConfigKey(point.config, args.key, value);
                cli::checkConfig(point.config);
                points.push_back(point);
                overrides.push_back(
                    {{args.key, value},
                     {"mc.tempo", tempo ? "true" : "false"}});
            }
        }
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    prof::setEnabled(args.profile);

    ExperimentOptions &opts = args.run.engine;
    opts.progressLabel = args.workload + ":" + args.key;

    // --dashboard: snapshot and page files. With a fabric directory
    // the snapshot merges the whole directory (and absent an explicit
    // role, this process supervises as the coordinator); without one
    // it reports this process's own progress tracker.
    fabric::SweepProgress progress;
    std::unique_ptr<fabric::DashboardWriter> dashboard;
    if (!args.dashboardDir.empty()) {
        if (!opts.fabricDir.empty() &&
            opts.fabricRole == ExperimentOptions::FabricRole::None)
            opts.fabricRole =
                ExperimentOptions::FabricRole::Coordinator;
        opts.progress = &progress;
        fabric::DashboardWriter::Provider provider;
        if (!opts.fabricDir.empty()) {
            const std::string dir = opts.fabricDir;
            const double stale = opts.fabricStaleSec;
            provider = [dir, stale] {
                return fabric::buildDirSnapshotJson(dir, stale);
            };
        } else {
            // The first write then shows every point pending.
            progress.configure(opts.progressLabel, points.size(),
                               opts.progressEvery);
            provider = [&progress] { return progress.snapshotJson(); };
        }
        try {
            dashboard = std::make_unique<fabric::DashboardWriter>(
                args.dashboardDir, std::move(provider));
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: --dashboard: %s\n",
                         error.what());
            return 2;
        }
    }

    std::vector<RunResult> results;
    const int status =
        cli::runBatch(args.run, "tempo_sweep", points, results);
    if (dashboard)
        dashboard->stop();
    if (status)
        return status;

    std::printf("%s,runtime,energy,tlb_miss_rate,dram_ptw_frac,"
                "superpage_coverage%s\n",
                args.key.c_str(),
                args.compare ? ",tempo_runtime,tempo_perf_gain" : "");

    const std::size_t stride = args.compare ? 2 : 1;
    for (std::size_t v = 0; v < args.values.size(); ++v) {
        const RunResult &base = results[v * stride];
        if (base.status.ok()) {
            std::printf("%s,%llu,%.1f,%.4f,%.4f,%.4f",
                        args.values[v].c_str(),
                        static_cast<unsigned long long>(base.runtime),
                        base.energy.total(),
                        base.report.get("tlb.miss_rate"),
                        base.fracDramPtw(), base.superpageCoverage);
        } else {
            // Keep the column count: status marker in the runtime
            // column, zeros for the measurements.
            std::printf("%s,%s,0,0,0,0", args.values[v].c_str(),
                        base.status.codeName());
        }
        if (args.compare) {
            const RunResult &with_tempo = results[v * stride + 1];
            if (with_tempo.status.ok() && base.status.ok()) {
                std::printf(",%llu,%.4f",
                            static_cast<unsigned long long>(
                                with_tempo.runtime),
                            with_tempo.speedupOver(base));
            } else if (with_tempo.status.ok()) {
                std::printf(",%llu,0",
                            static_cast<unsigned long long>(
                                with_tempo.runtime));
            } else {
                std::printf(",%s,0", with_tempo.status.codeName());
            }
        }
        std::printf("\n");
    }

    if (!args.jsonPath.empty()) {
        std::vector<stats::BenchPoint> bench_points;
        for (std::size_t i = 0; i < results.size(); ++i)
            bench_points.push_back(toBenchPoint(
                points[i].workload, overrides[i], results[i]));
        if (const int status = cli::writeJson(
                stderr, args.jsonPath, "tempo_sweep", args.refs,
                SystemConfig::skylakeScaled().seed, bench_points))
            return status;
    }
    return std::ranges::any_of(results, &RunStatus::ok, &RunResult::status)
        ? 0 : 3;
}
