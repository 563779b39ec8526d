#include "cli/options.hh"

#include "cli/config_file.hh"
#include "common/parse.hh"

#include <stdexcept>
#include <string_view>

namespace tempo::cli {
namespace {

[[noreturn]] void
bad(const std::string &message)
{
    throw std::invalid_argument(message);
}

/** A config flag: an alias that sets one config key, to the flag's
 * argument or, for a flag that takes none, to @c fixed. */
struct KeyFlag {
    std::string_view flag;
    const char *key;
    const char *fixed = nullptr;
};

constexpr KeyFlag kKeyFlags[] = {
    {"--tempo", "mc.tempo", "true"},
    {"--imp", "imp.enabled", "true"},
    {"--prefetcher", "prefetch.engines"},
    {"--sched", "mc.sched"},
    {"--row-policy", "dram.row_policy"},
    {"--page-policy", "vm.page_policy"},
    {"--frag", "vm.frag"},
    {"--subrow", "dram.subrow_alloc"},
    {"--subrow-dedicated", "dram.subrows_for_prefetch"},
    {"--seed", "core.seed"},
};

/** The config flag @p arg names ("--sched" or "--sched=V"), or null. */
const KeyFlag *
keyFlag(std::string_view arg)
{
    for (const KeyFlag &alias : kKeyFlags) {
        const std::size_t n = alias.flag.size();
        if (arg == alias.flag
            || (!alias.fixed && arg.size() > n && arg.starts_with(alias.flag)
                && arg[n] == '=')) {
            return &alias;
        }
    }
    return nullptr;
}

/** The kKeyFlags lines of usage(), with each key's values read from
 * the key table. */
std::string
keyFlagUsage()
{
    std::string out;
    for (const KeyFlag &alias : kKeyFlags) {
        std::string line = "  " + std::string(alias.flag)
            + (alias.fixed ? "" : " V");
        line.resize(std::max<std::size_t>(line.size() + 1, 22), ' ');
        line += std::string(alias.key)
            + (alias.fixed ? std::string(" = ") + alias.fixed
                           : ": " + configKey(alias.key).values());
        out += line + "\n";
    }
    return out;
}

} // namespace

std::string
usage()
{
    return std::string(
        "tempo_sim — run the TEMPO simulator on one workload\n"
        "\n"
        "usage: tempo_sim [options]\n"
        "  --workload NAME     workload generator (default xsbench);\n"
        "                      see README for the full list\n"
        "  --refs N            references to simulate (default 300000)\n"
        "  --compare           run baseline AND TEMPO, print the delta\n"
        "  --full-report       dump every statistic\n"
        "  --csv PATH          write the full report as CSV\n"
        "  --json PATH         write results as tempo-bench-1 JSON\n"
        "  --trace-in PATH     replay a recorded trace file\n"
        "  --trace-out PATH    record the workload to a trace file and "
        "exit\n"
        "  --config PATH       apply an INI config file (every key and\n"
        "                      its values: tempo_sweep --help)\n"
        "  --profile           report per-component wall-clock "
        "attribution\n"
        "                      (profile.* keys; nondeterministic)\n"
        "  --help              this text\n"
        "\n"
        "Config flags: each sets one config key, in command-line order,\n"
        "and --config PATH applies on top. --imp (like \"[imp] enabled =\n"
        "true\" in a config file) appends imp to prefetch.engines; the list\n"
        "order is the engines' dispatch order.\n")
        + keyFlagUsage() + "\n" + runFlagUsage(kSim);
}

Options
parse(const std::vector<std::string> &args)
{
    Options options;
    options.run = RunOptions::fromEnv();
    bool tempo_flag = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&](std::string_view flag) -> const std::string & {
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
        } else if (arg == "--compare") {
            options.compare = true;
        } else if (const KeyFlag *alias = keyFlag(arg)) {
            const std::string value = alias->fixed ? alias->fixed
                : arg.size() > alias->flag.size()
                ? arg.substr(alias->flag.size() + 1)
                : next(alias->flag);
            if (value.empty())
                bad(std::string(alias->flag) + " needs a value");
            try {
                setConfigKey(options.config, alias->key, value);
            } catch (const std::invalid_argument &error) {
                bad(std::string(alias->flag) + ": " + error.what());
            }
            tempo_flag = tempo_flag || arg == "--tempo";
        } else if (applyRunFlag(options.run, kSim, args, i)) {
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
        } else if (arg == "--config") {
            options.configPath = next("--config");
        } else if (arg == "--profile") {
            options.profile = true;
        } else {
            bad("unknown option '" + arg + "' (try --help)");
        }
    }
    if (tempo_flag && options.compare)
        bad("--tempo and --compare are mutually exclusive "
            "(--compare runs both)");
    checkConfig(options.config);
    return options;
}

SystemConfig
toConfig(const Options &options)
{
    SystemConfig cfg = options.config;
    if (!options.configPath.empty())
        applyConfigFile(options.configPath, cfg);
    checkConfig(cfg);
    return cfg;
}

} // namespace tempo::cli
