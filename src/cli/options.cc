#include "cli/options.hh"

#include "cli/config_file.hh"
#include "common/parse.hh"
#include "obs/obs.hh"
#include "prefetch/registry.hh"

#include <stdexcept>

namespace tempo::cli {
namespace {

[[noreturn]] void
bad(const std::string &message)
{
    throw std::invalid_argument(message);
}

} // namespace

std::string
usage()
{
    return
        "tempo_sim — run the TEMPO simulator on one workload\n"
        "\n"
        "usage: tempo_sim [options]\n"
        "  --workload NAME     workload generator (default xsbench);\n"
        "                      see README for the full list\n"
        "  --refs N            references to simulate (default 300000)\n"
        "  --tempo             enable TEMPO\n"
        "  --compare           run baseline AND TEMPO, print the delta\n"
        "  --imp               enable the IMP indirect prefetcher\n"
        "  --prefetcher LIST   comma-separated core prefetch engines\n"
        "                      (stride,imp,tskid,misb,temporal; \"none\"\n"
        "                      disables all); selecting engines this way\n"
        "                      also reports the per-engine\n"
        "                      prefetch.<name>.* taxonomy\n"
        "  --sched S           frfcfs | bliss (default frfcfs)\n"
        "  --row-policy P      open | closed | adaptive (default "
        "adaptive)\n"
        "  --page-policy P     4k | thp | hugetlbfs2m | hugetlbfs1g\n"
        "  --frag F            memhog fragmentation level in [0,1)\n"
        "  --subrow A          none | foa | poa sub-row buffers\n"
        "  --subrow-dedicated N  sub-rows reserved for prefetches\n"
        "  --seed N            RNG seed (default 42)\n"
        "  --jobs N            worker threads for --compare runs\n"
        "                      (default: all cores, or TEMPO_JOBS)\n"
        "  --retries N         re-run a failed point up to N times with\n"
        "                      a reseeded workload (default 0)\n"
        "  --point-timeout S   mark a point timed_out after S seconds\n"
        "                      of wall-clock time (default: none)\n"
        "  --checkpoint DIR    record finished points in DIR and skip\n"
        "                      them when re-run after a crash\n"
        "  --full-report       dump every statistic\n"
        "  --csv PATH          write the full report as CSV\n"
        "  --json PATH         write results as tempo-bench-1 JSON\n"
        "  --trace-in PATH     replay a recorded trace file\n"
        "  --trace-out PATH    record the workload to a trace file and "
        "exit\n"
        "  --trace PATH        write a deterministic pipeline trace\n"
        "                      (Chrome trace-event JSON; load in "
        "Perfetto)\n"
        "  --trace-filter C    comma-separated trace categories:\n"
        "                      walk,pt,txq,prefetch,replay,row,bliss,"
        "all\n"
        "  --timeseries-window N  sample time-series metrics every N\n"
        "                      cycles into the bench JSON (default "
        "off)\n"
        "  --config PATH       apply an INI config file (see "
        "src/cli/config_file.hh)\n"
        "  --profile           report per-component wall-clock "
        "attribution\n"
        "                      (profile.* keys; nondeterministic)\n"
        "  --help              this text\n";
}

Options
parse(const std::vector<std::string> &args)
{
    Options options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&](const char *flag) -> const std::string & {
            if (i + 1 >= args.size())
                bad(std::string(flag) + " needs a value");
            return args[++i];
        };

        if (arg == "--help" || arg == "-h") {
            options.help = true;
        } else if (arg == "--workload") {
            options.workload = next("--workload");
        } else if (arg == "--refs") {
            options.refs = parseU64(arg, next("--refs"));
            if (options.refs == 0)
                bad("--refs must be positive");
        } else if (arg == "--tempo") {
            options.tempo = true;
        } else if (arg == "--compare") {
            options.compare = true;
        } else if (arg == "--imp") {
            options.imp = true;
        } else if (arg == "--prefetcher") {
            options.prefetcher = next("--prefetcher");
        } else if (arg.rfind("--prefetcher=", 0) == 0) {
            options.prefetcher = arg.substr(13);
            if (options.prefetcher.empty())
                bad("--prefetcher needs a value");
        } else if (arg == "--sched") {
            options.sched = next("--sched");
            if (options.sched != "frfcfs" && options.sched != "bliss")
                bad("--sched must be frfcfs or bliss");
        } else if (arg == "--row-policy") {
            options.rowPolicy = next("--row-policy");
            if (options.rowPolicy != "open"
                && options.rowPolicy != "closed"
                && options.rowPolicy != "adaptive") {
                bad("--row-policy must be open, closed, or adaptive");
            }
        } else if (arg == "--page-policy") {
            options.pagePolicy = next("--page-policy");
            if (options.pagePolicy != "4k"
                && options.pagePolicy != "thp"
                && options.pagePolicy != "hugetlbfs2m"
                && options.pagePolicy != "hugetlbfs1g") {
                bad("--page-policy must be 4k, thp, hugetlbfs2m, or "
                    "hugetlbfs1g");
            }
        } else if (arg == "--frag") {
            options.frag = parseDouble(arg, next("--frag"));
            if (options.frag < 0.0 || options.frag >= 1.0)
                bad("--frag must be in [0,1)");
        } else if (arg == "--subrow") {
            options.subrow = next("--subrow");
            if (options.subrow != "none" && options.subrow != "foa"
                && options.subrow != "poa") {
                bad("--subrow must be none, foa, or poa");
            }
        } else if (arg == "--subrow-dedicated") {
            options.subrowDedicated =
                parseUnsigned(arg, next("--subrow-dedicated"));
        } else if (arg == "--seed") {
            options.seed = parseU64(arg, next("--seed"));
        } else if (arg == "--jobs") {
            options.jobs = parseUnsigned(arg, next("--jobs"));
        } else if (arg == "--retries") {
            options.retries = parseUnsigned(arg, next("--retries"));
        } else if (arg == "--point-timeout") {
            options.pointTimeout =
                parseSeconds(arg, next("--point-timeout"));
        } else if (arg == "--checkpoint") {
            options.checkpointDir = next("--checkpoint");
        } else if (arg == "--full-report") {
            options.fullReport = true;
        } else if (arg == "--csv") {
            options.csvPath = next("--csv");
        } else if (arg == "--json") {
            options.jsonPath = next("--json");
        } else if (arg == "--trace-in") {
            options.traceIn = next("--trace-in");
        } else if (arg == "--trace-out") {
            options.traceOut = next("--trace-out");
        } else if (arg == "--trace") {
            options.tracePath = next("--trace");
        } else if (arg.rfind("--trace=", 0) == 0) {
            options.tracePath = arg.substr(8);
            if (options.tracePath.empty())
                bad("--trace needs a value");
        } else if (arg == "--trace-filter") {
            options.traceFilter = next("--trace-filter");
        } else if (arg.rfind("--trace-filter=", 0) == 0) {
            options.traceFilter = arg.substr(15);
        } else if (arg == "--timeseries-window") {
            options.timeseriesWindow =
                parseU64(arg, next("--timeseries-window"));
        } else if (arg.rfind("--timeseries-window=", 0) == 0) {
            options.timeseriesWindow =
                parseU64("--timeseries-window", arg.substr(20));
        } else if (arg == "--config") {
            options.configPath = next("--config");
        } else if (arg == "--profile") {
            options.profile = true;
        } else {
            bad("unknown option '" + arg + "' (try --help)");
        }
    }
    if (options.tempo && options.compare)
        bad("--tempo and --compare are mutually exclusive "
            "(--compare runs both)");
    // Validate the filter at parse time so typos fail before a long run
    // (throws std::invalid_argument, the same contract as bad()).
    if (!options.traceFilter.empty())
        obs::parseCategories(options.traceFilter);
    if (!options.prefetcher.empty())
        parsePrefetcherList(options.prefetcher);
    return options;
}

SystemConfig
toConfig(const Options &options)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withSeed(options.seed);
    cfg.withTempo(options.tempo);
    cfg.withImp(options.imp);
    cfg.withSched(options.sched == "bliss" ? SchedKind::Bliss
                                           : SchedKind::FrFcfs);
    if (options.rowPolicy == "open")
        cfg.withRowPolicy(RowPolicyKind::Open);
    else if (options.rowPolicy == "closed")
        cfg.withRowPolicy(RowPolicyKind::Closed);
    else
        cfg.withRowPolicy(RowPolicyKind::Adaptive);

    PagePolicy policy = PagePolicy::Thp;
    if (options.pagePolicy == "4k")
        policy = PagePolicy::Base4K;
    else if (options.pagePolicy == "hugetlbfs2m")
        policy = PagePolicy::Hugetlbfs2M;
    else if (options.pagePolicy == "hugetlbfs1g")
        policy = PagePolicy::Hugetlbfs1G;
    cfg.withPagePolicy(policy, options.frag);

    if (options.subrow == "foa")
        cfg.withSubRows(SubRowAlloc::FOA, options.subrowDedicated);
    else if (options.subrow == "poa")
        cfg.withSubRows(SubRowAlloc::POA, options.subrowDedicated);

    if (!options.prefetcher.empty()) {
        cfg.withPrefetchers(options.prefetcher);
        if (cfg.prefetch.engines.empty()) {
            // "--prefetcher none" means explicitly no engines — it
            // overrides --imp rather than falling back to the flags.
            cfg.imp.enabled = false;
            cfg.stride.enabled = false;
        }
    }

    // Config files layer on top of (and can override) the flags.
    if (!options.configPath.empty())
        applyConfigFile(options.configPath, cfg);

    return cfg;
}

} // namespace tempo::cli
