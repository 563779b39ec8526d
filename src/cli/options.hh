/**
 * @file
 * Command-line options for the tempo_sim driver, in a library so the
 * parsing logic is unit-testable. See tools/tempo_sim.cpp for usage.
 */

#ifndef TEMPO_CLI_OPTIONS_HH
#define TEMPO_CLI_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cli/run_options.hh"
#include "core/config.hh"

namespace tempo::cli {

struct Options {
    std::string workload = "xsbench";
    std::uint64_t refs = 300000;
    /** Run baseline and TEMPO back-to-back and print the comparison. */
    bool compare = false;
    /** The machine: the baseline preset at seed 42 with the config
     * flags (--tempo, --sched, ...; see usage()) applied in
     * command-line order and checkConfig()ed. toConfig() adds --config
     * on top. */
    SystemConfig config = SystemConfig::skylakeScaled().withSeed(42);
    RunOptions run; //!< the TEMPO_* variables, run flags on top
    bool fullReport = false;
    std::string csvPath;    //!< write the full report as CSV here
    std::string jsonPath;   //!< write results as tempo-bench-1 JSON
    std::string traceIn;    //!< replay this trace file instead of the
                            //!< named generator
    std::string traceOut;   //!< record the workload to this file and
                            //!< exit without simulating
    std::string configPath; //!< INI file applied on top of the preset
    /** Collect wall-clock per-component attribution and report it under
     * the "profile." prefix (numbers are nondeterministic). */
    bool profile = false;
    bool help = false;
};

/**
 * Parse argv-style arguments (excluding the program name), on top of
 * RunOptions::fromEnv().
 * @throws std::invalid_argument with a user-readable message on bad
 *         input (the tool prints it and exits with status 2).
 */
Options parse(const std::vector<std::string> &args);

/** The --help text. */
std::string usage();

/** The machine @p options describes: its config with the --config file
 * applied, checked by checkConfig().
 * @throws std::invalid_argument naming the file line or keys. */
SystemConfig toConfig(const Options &options);

} // namespace tempo::cli

#endif // TEMPO_CLI_OPTIONS_HH
