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

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/config_file.hh"
#include "common/parse.hh"
#include "common/profiler.hh"
#include "core/experiment.hh"
#include "fabric/snapshot.hh"
#include "obs/obs.hh"

namespace {

using namespace tempo;

struct SweepArgs {
    std::string workload = "xsbench";
    std::string key;
    std::vector<std::string> values;
    std::uint64_t refs = 150000;
    std::uint64_t warmup = 0;
    unsigned jobs = 0;
    unsigned retries = 0;
    double pointTimeout = 0;
    std::string checkpointDir;
    std::string jsonPath;
    bool tempo = false;
    bool compare = false;
    bool profile = false;
    unsigned progressEvery = 0;
    std::string dashboardDir; //!< "" = no dashboard
};

[[noreturn]] void
usage(int status)
{
    std::fputs(
        "usage: tempo_sweep --key SECTION.KEY --values V1,V2,...\n"
        "  [--workload NAME] [--refs N] [--warmup N]\n"
        "  [--jobs N] [--json PATH] [--profile]\n"
        "  [--retries N] [--point-timeout S] [--checkpoint DIR]\n"
        "  [--progress [N]] [--dashboard DIR]\n"
        "  [--tempo | --compare]\n"
        "Keys are the config keys INI files set as [SECTION] KEY; the\n"
        "list below gives each key's values.\n"
        "Points run in parallel (--jobs N, default all cores or the\n"
        "TEMPO_JOBS env var); results are identical at any job count.\n"
        "A failing or timed-out point does not kill the sweep: its row\n"
        "shows the status, details go to stderr and the JSON failures\n"
        "array, and --checkpoint DIR lets a killed sweep resume without\n"
        "re-running finished points (DIR serves one sweep; a changed\n"
        "sweep against it exits 2).\n"
        "--progress [N] prints a stderr line (done/failed/total,\n"
        "elapsed, ETA) every N completed points (default 10).\n"
        "--dashboard DIR rewrites DIR/snapshot.json (the machine-\n"
        "readable snapshot) and DIR/dashboard.html (a live page to\n"
        "open in a browser) every second.\n"
        "Scale-out: with TEMPO_FABRIC_DIR/TEMPO_FABRIC_ROLE set (see\n"
        "EXPERIMENTS.md \"Fabric sweeps\"), several worker processes\n"
        "share one sweep; --dashboard then reports the whole fabric (and\n"
        "implies the coordinator role when none is set).\n"
        "Exit status: 0 when at least one\n"
        "point succeeded, 3 when all failed, 2 on usage errors.\n",
        status == 0 ? stdout : stderr);
    if (status == 0) {
        std::printf("\nKeys:\n");
        for (const cli::ConfigKey &key : cli::configKeys())
            std::printf("  %-32s %s\n", key.name, key.values().c_str());
    }
    std::exit(status);
}

SweepArgs
parseArgs(int argc, char **argv)
{
    SweepArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(2);
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
        else if (arg == "--jobs")
            args.jobs = parseUnsigned(arg, next());
        else if (arg == "--retries")
            args.retries = parseUnsigned(arg, next());
        else if (arg == "--point-timeout")
            args.pointTimeout = parseSeconds(arg, next());
        else if (arg == "--checkpoint")
            args.checkpointDir = next();
        else if (arg == "--json")
            args.jsonPath = next();
        else if (arg == "--tempo")
            args.tempo = true;
        else if (arg == "--compare")
            args.compare = true;
        else if (arg == "--profile")
            args.profile = true;
        else if (arg == "--progress") {
            // Optional period: consume the next token only when it
            // starts with a digit (so "--progress --json x" parses).
            args.progressEvery = 10;
            if (i + 1 < argc && argv[i + 1][0] >= '0' &&
                argv[i + 1][0] <= '9')
                args.progressEvery = parseUnsigned(arg, next());
            if (args.progressEvery == 0)
                args.progressEvery = 10;
        } else if (arg == "--dashboard")
            args.dashboardDir = next();
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else
            usage(2);
    }
    if (args.key.empty() || args.values.empty())
        usage(2);
    (void)cli::configKey(args.key);
    return args;
}

SystemConfig
configFor(const SweepArgs &args, const std::string &value, bool tempo)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(tempo);
    cli::setConfigKey(cfg, args.key, value);
    cli::checkConfig(cfg);
    return cfg;
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
    // Engine options: environment first (so CI can inject faults), then
    // explicit flags on top.
    ExperimentOptions opts;
    try {
        args = parseArgs(argc, argv);
        // Observability is environment-driven here (TEMPO_TRACE_DIR,
        // TEMPO_TRACE_FILTER, TEMPO_TIMESERIES_WINDOW); time series
        // land in the --json output, traces in TEMPO_TRACE_DIR.
        obs::configure(obs::configFromEnv());
        opts = ExperimentOptions::fromEnv();
        for (const std::string &value : args.values) {
            ExperimentPoint base;
            base.workload = args.workload;
            base.config = configFor(args, value, args.tempo);
            base.refs = args.refs;
            base.warmup = args.warmup;
            points.push_back(std::move(base));
            overrides.push_back(
                {{args.key, value},
                 {"mc.tempo", args.tempo ? "true" : "false"}});
            if (args.compare) {
                ExperimentPoint with_tempo;
                with_tempo.workload = args.workload;
                with_tempo.config = configFor(args, value, true);
                with_tempo.refs = args.refs;
                with_tempo.warmup = args.warmup;
                points.push_back(std::move(with_tempo));
                overrides.push_back(
                    {{args.key, value}, {"mc.tempo", "true"}});
            }
        }
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
    prof::setEnabled(args.profile);

    opts.jobs = args.jobs;
    if (args.retries)
        opts.retries = args.retries;
    if (args.pointTimeout > 0)
        opts.pointTimeoutSec = args.pointTimeout;
    if (!args.checkpointDir.empty())
        useCheckpointDir(opts, args.checkpointDir);

    if (args.progressEvery)
        opts.progressEvery = args.progressEvery;
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
    try {
        results = runExperiments(points, opts);
        if (dashboard)
            dashboard->stop();
    } catch (const std::exception &error) {
        // Only infrastructure errors (an unusable fabric or checkpoint
        // directory, a changed sweep against one) reach here; point
        // failures are captured in the results.
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }

    std::size_t num_ok = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunStatus &status = results[i].status;
        if (status.ok()) {
            ++num_ok;
            continue;
        }
        std::fprintf(stderr,
                     "point %zu (%s, %s=%s): %s after %u attempt(s): "
                     "%s\n",
                     i, points[i].workload.c_str(), args.key.c_str(),
                     args.values[i / (args.compare ? 2 : 1)].c_str(),
                     status.codeName(), status.attempts,
                     status.error.c_str());
    }

    // Pipeline traces (TEMPO_TRACE_DIR only; no --trace flag here).
    if (!obs::config().traceDir.empty()) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &run_obs = results[i].obs;
            if (!run_obs || !run_obs->cfg.trace)
                continue; // obs off, or point restored from a checkpoint
            const std::string path = obs::config().traceDir
                + "/TRACE_tempo_sweep_" + std::to_string(i) + ".json";
            try {
                obs::writeChromeTrace(path, *run_obs);
            } catch (const std::exception &error) {
                std::fprintf(stderr, "error: %s\n", error.what());
                return 1;
            }
            std::fprintf(stderr, "wrote %s\n", path.c_str());
        }
    }

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
        try {
            stats::writeBenchJson(args.jsonPath, "tempo_sweep",
                                  args.refs,
                                  SystemConfig::skylakeScaled().seed,
                                  bench_points);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            return 1;
        }
        std::fprintf(stderr, "wrote %s\n", args.jsonPath.c_str());
    }
    return (num_ok == 0 && !results.empty()) ? 3 : 0;
}
