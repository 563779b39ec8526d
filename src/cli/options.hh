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

#include "core/config.hh"

namespace tempo::cli {

struct Options {
    std::string workload = "xsbench";
    std::uint64_t refs = 300000;
    bool tempo = false;
    /** Run baseline and TEMPO back-to-back and print the comparison. */
    bool compare = false;
    bool imp = false;
    /** Explicit registry engine list ("stride,tskid"; "none" = no
     * engines; "" = legacy --imp / [stride] flag resolution). */
    std::string prefetcher;
    std::string sched = "frfcfs";      //!< frfcfs | bliss
    std::string rowPolicy = "adaptive"; //!< open | closed | adaptive
    std::string pagePolicy = "thp";    //!< 4k | thp | hugetlbfs2m |
                                       //!< hugetlbfs1g
    double frag = 0.0;                 //!< memhog fragmentation level
    std::string subrow = "none";       //!< none | foa | poa
    unsigned subrowDedicated = 0;
    std::uint64_t seed = 42;
    /** Worker threads for parallel runs (--compare); 0 = all cores
     * (or the TEMPO_JOBS env var). */
    unsigned jobs = 0;
    /** Extra attempts for a failed/timed-out point (reseeded). */
    unsigned retries = 0;
    /** Per-point wall-clock budget in seconds; 0 = no watchdog. */
    double pointTimeout = 0;
    /** Checkpoint directory for kill/resume (a one-worker sweep
     * fabric; see useCheckpointDir()); "" = off. */
    std::string checkpointDir;
    bool fullReport = false;
    std::string csvPath;    //!< write the full report as CSV here
    std::string jsonPath;   //!< write results as tempo-bench-1 JSON
    std::string traceIn;    //!< replay this trace file instead of the
                            //!< named generator
    std::string traceOut;   //!< record the workload to this file and
                            //!< exit without simulating
    /** Pipeline trace (Chrome trace-event JSON) output path; "" = off.
     * Unrelated to --trace-in/--trace-out workload traces. */
    std::string tracePath;
    /** Comma-separated trace categories ("" = all). */
    std::string traceFilter;
    /** Time-series sampling window in cycles; 0 = off. */
    std::uint64_t timeseriesWindow = 0;
    std::string configPath; //!< INI file applied on top of the preset
    /** Collect wall-clock per-component attribution and report it under
     * the "profile." prefix (numbers are nondeterministic). */
    bool profile = false;
    bool help = false;
};

/**
 * Parse argv-style arguments (excluding the program name).
 * @throws std::invalid_argument with a user-readable message on bad
 *         input (the tool prints it and exits with status 2).
 */
Options parse(const std::vector<std::string> &args);

/** The --help text. */
std::string usage();

/** Build the SystemConfig an Options selection describes. */
SystemConfig toConfig(const Options &options);

} // namespace tempo::cli

#endif // TEMPO_CLI_OPTIONS_HH
