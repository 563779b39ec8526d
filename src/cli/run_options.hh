/**
 * @file
 * The run front end that tempo_sim, tempo_sweep and the figure drivers
 * share: the run-option table and runBatch().
 *
 * A run option says how points run and what is observed, never what is
 * simulated: a TEMPO_* variable, the tool flag that mirrors it, or both.
 * Every front end reads the variables first (RunOptions::fromEnv()), so
 * a flag (applyRunFlag()) always wins, a zero included. A reader applies
 * only the variables of the parts it serves, so a variable the figure
 * drivers alone read never stops a tool. TEMPO_JOBS keeps its own
 * reader, ThreadPool::defaultThreads().
 */

#ifndef TEMPO_CLI_RUN_OPTIONS_HH
#define TEMPO_CLI_RUN_OPTIONS_HH

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/obs.hh"

namespace tempo::cli {

/** Parts: what a row sets, and so which readers apply its variable. */
constexpr unsigned kEngine = 1; //!< ExperimentOptions
constexpr unsigned kObs = 2;    //!< obs::Config and --trace
constexpr unsigned kBench = 4;  //!< the figure drivers' own
/** Tools: which take a row's flag, and in which forms. */
constexpr unsigned kSim = 1;    //!< tempo_sim
constexpr unsigned kSweep = 2;  //!< tempo_sweep
constexpr unsigned kEquals = 4; //!< "--flag=V" besides "--flag V"

/** Everything the run-option table sets. */
struct RunOptions {
    ExperimentOptions engine;
    obs::Config obs;
    /** --trace PATH: point i's trace goes to PATH, or PATH.i for
     * i > 0; "" = the TEMPO_TRACE_DIR names. */
    std::string tracePath;
    std::uint64_t benchRefs = 300000;
    std::uint64_t benchRefsMp = 60000;
    std::string benchJsonDir;
    std::string benchCheckpointDir;

    /** The defaults with the variables of @p parts applied: the tools
     * read the engine and obs parts, the figure drivers kBench too. A
     * malformed TEMPO_JOBS fails here as well, before any batch.
     * @throws std::invalid_argument naming the variable. */
    static RunOptions fromEnv(unsigned parts = kEngine | kObs);
};

/** One row of the run-option table. */
struct RunOption {
    const char *var;  //!< the TEMPO_* variable, or null
    const char *flag; //!< the tool flag, or null
    const char *arg;  //!< the flag's value; "[N]" when it is optional
    const char *help; //!< the meaning, with the default
    unsigned part;    //!< kEngine, kObs or kBench
    unsigned tools;   //!< kSim and/or kSweep, maybe kEquals; 0 = no flag
    /** The field the row sets, as text. */
    std::string (*get)(const RunOptions &run);
    /** Parse @p value and set the field.
     * @throws std::invalid_argument naming @p source. */
    void (*set)(RunOptions &run, const std::string &source,
                const std::string &value);
};

std::span<const RunOption> runOptionTable();

/** If args[i] is a run flag that @p tool (kSim or kSweep)
 * takes, in a form the row allows, apply it, leave @p i on its last
 * token and return true; else return false.
 * @throws std::invalid_argument naming the flag. */
bool applyRunFlag(RunOptions &run, unsigned tool,
                  const std::vector<std::string> &args, std::size_t &i);

/** The --help lines of the run flags @p tool takes. */
std::string runFlagUsage(unsigned tool);

/**
 * Run one batch: install run.obs, run the engine, print each failed
 * point as "LABEL point I: STATUS after N attempt(s): ERROR" and
 * write the traces, to run.tracePath or else as
 * TEMPO_TRACE_DIR/TRACE_<label>_<n>.json, n counting the points of
 * every batch of this process with that label.
 * @return 0; 2 after an infrastructure error (an unusable fabric or
 *         checkpoint directory); 1 when a trace cannot be written.
 */
int runBatch(const RunOptions &run, const std::string &label,
             const std::vector<ExperimentPoint> &points,
             std::vector<RunResult> &results);

/** runBatch() for mixes, which run in process and write no traces. */
int runBatch(const RunOptions &run, const std::string &label,
             const std::vector<MixPoint> &points,
             std::vector<MultiResult> &results);

/** stats::writeBenchJson(), then "wrote PATH" on @p log.
 * @return 0, or 1 when @p path cannot be written. */
int writeJson(std::FILE *log, const std::string &path,
              const std::string &bench, std::uint64_t refs,
              std::uint64_t seed,
              const std::vector<stats::BenchPoint> &points);

} // namespace tempo::cli

#endif // TEMPO_CLI_RUN_OPTIONS_HH
