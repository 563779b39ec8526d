/**
 * @file
 * The parallel experiment engine: run independent (workload, config)
 * simulation points concurrently on a work-stealing thread pool and
 * return their results in submission order.
 *
 * Determinism: every point constructs its own System and draws all
 * randomness from an explicit per-point seed, so a batch
 * produces bit-identical results at any thread count. Callers that want
 * distinct seeds per point derive them with derivedSeed() — never from
 * a shared RNG, whose draw order would depend on scheduling.
 *
 * Fault isolation (ISSUE 3): one faulting point must not kill the
 * sweep. Each point runs behind an exception barrier; whatever it
 * throws — including a watchdog timeout — is captured into the
 * result's RunStatus, and every other point still completes. A bounded
 * retry policy can re-run a failed point with a decorrelated seed, and
 * a checkpoint directory (a one-worker sweep fabric, useCheckpointDir())
 * lets an interrupted sweep resume without re-simulating finished
 * points.
 */

#ifndef TEMPO_CORE_EXPERIMENT_HH
#define TEMPO_CORE_EXPERIMENT_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hh"
#include "stats/json.hh"

namespace tempo {

namespace fabric {
class SweepProgress;
} // namespace fabric

/** The apps of a point, one core each, in core order. Assigning one
 * name makes a one-app list: `point.workload = "mcf"`. */
struct WorkloadList : std::vector<std::string> {
    using std::vector<std::string>::vector;
    WorkloadList(std::string name) : vector{std::move(name)} {}
    WorkloadList(const char *name) : WorkloadList(std::string(name)) {}
};

/** One simulation point: one app, or a multiprogrammed mix. */
struct ExperimentPoint {
    /** Workload generator names (makeWorkload), or one label when
     * makeWorkloadFn is set. */
    WorkloadList workload;
    SystemConfig config;
    std::uint64_t refs = 0;   //!< measured references per app
    std::uint64_t warmup = 0; //!< warmup references per app
    /** Workload seed override; nullopt selects config.seed. App i is
     * seeded appSeed(seed, i). An explicit 0 is a real seed
     * (historically 0 meant "unset", which silently made seed 0
     * unusable). */
    std::optional<std::uint64_t> seed;
    /** Optional factory override of a one-app point (e.g. trace
     * replay). Must be safe to invoke from a worker thread. */
    std::function<std::unique_ptr<Workload>()> makeWorkloadFn;
};

/** The workload seed of app @p app of a point seeded @p seed, so a
 * mix's apps draw distinct streams and an app run alone draws the
 * stream it has in the mix. */
inline std::uint64_t
appSeed(std::uint64_t seed, std::size_t app)
{
    return seed + 13 * app;
}

/** Build workload instances for a mix of names, app i seeded
 * appSeed(seed, i). */
std::vector<std::unique_ptr<Workload>>
makeMix(const std::vector<std::string> &names, std::uint64_t seed);

/** The one-app points of @p mix: each app alone on the mix's machine,
 * with the references and seed it has in the mix. */
std::vector<ExperimentPoint> alonePoints(const ExperimentPoint &mix);

/** Per-app alone runtimes of @p mix (the denominators of the fairness
 * metrics), run concurrently; rethrows the first failure. */
std::vector<Cycle> aloneRuntimes(const ExperimentPoint &mix);

/** splitmix64 finalizer: a decorrelated seed for point @p index. */
std::uint64_t derivedSeed(std::uint64_t base, std::uint64_t index);

/** Deterministic fault injection for tests and the CI fault-smoke job:
 * make point @p index throw or hang at the start of its run. */
struct FaultInjection {
    enum class Kind {
        Throw, //!< throw std::runtime_error("injected fault")
        Hang,  //!< spin (polling the watchdog) until timed out
    };
    std::size_t index = 0;
    Kind kind = Kind::Throw;
};

/** Knobs of one engine invocation. */
struct ExperimentOptions {
    /** Worker threads; 0 = ThreadPool::defaultThreads(). */
    unsigned jobs = 0;
    /** Extra attempts for a failed/timed-out point. Attempt k > 0
     * re-runs with derivedSeed(seed, k) so a seed-sensitive crash can
     * side-step the bad draw; a deterministic bug fails every
     * attempt. 0 = fail fast (the default: retries change results, so
     * they are opt-in). */
    unsigned retries = 0;
    /** Per-point wall-clock budget in seconds; a point exceeding it is
     * marked timed_out and its worker freed. 0 = no watchdog. */
    double pointTimeoutSec = 0;
    /** Test hook: injected faults (see FaultInjection). */
    std::vector<FaultInjection> inject;
    /** Progress callback, invoked under the engine lock as each point
     * finishes (in completion order, not index order). Under fabric
     * execution it fires for the points THIS process ran, not for
     * points other workers completed. */
    std::function<void(std::size_t index, const RunResult &)> onPointDone;

    // --- Scale-out sweep fabric (src/fabric/, ISSUE 9) ---

    /** Which side of the fabric protocol this process plays. */
    enum class FabricRole {
        None,        //!< not chosen: a worker when fabricDir is set
        Worker,      //!< claim points, run them, stream shard records
        Coordinator, //!< run nothing; wait for workers and merge
    };

    /** Shared fabric directory (claims, heartbeats, per-worker result
     * shards, status snapshots). Empty = fabric off; set, it opts the
     * process in, as a worker unless fabricRole says otherwise. The
     * shard files are the sweep's journal: a restarted sweep resumes
     * from them. */
    std::string fabricDir;
    FabricRole fabricRole = FabricRole::None;
    /** Stable worker identity (names the heartbeat/shard/status
     * files); "" derives "w<pid>". */
    std::string fabricWorkerId;
    /** A claim whose owner has not heartbeat for this long is presumed
     * dead and reclaimed by another worker. */
    double fabricStaleSec = 30.0;
    /** Liveness heartbeat period for fabric workers. */
    double fabricHeartbeatSec = 1.0;

    // --- Progress reporting (tempo_sweep --progress / --dashboard) ---

    /** Emit a stderr progress line (done/failed/total, elapsed, ETA)
     * every this many completed points; 0 = silent. */
    unsigned progressEvery = 0;
    /** Label for progress lines, fabric manifests, and snapshots. */
    std::string progressLabel = "sweep";
    /** Optional external tracker (tempo_sweep --dashboard writes its
     * local snapshot file from one); the engine reports point starts and
     * completions into it. When null and progressEvery > 0 the engine
     * uses an internal tracker. Not owned. */
    fabric::SweepProgress *progress = nullptr;

    /** The engine fields of cli::RunOptions::fromEnv() (defined beside
     * the run-option table, src/cli/run_options.cc).
     * @throws std::invalid_argument naming a malformed variable. */
    static ExperimentOptions fromEnv();

    /** A fabric directory alone opts in; runFabric() treats an
     * unchosen role as a worker. */
    bool fabricActive() const { return !fabricDir.empty(); }
};

/** Worker id of a checkpoint run (useCheckpointDir()). */
inline constexpr const char *kCheckpointWorker = "checkpoint";

/**
 * `--checkpoint DIR`: make @p opts a fabric worker in @p dir under the
 * fixed id kCheckpointWorker, unless a worker id is already set
 * (TEMPO_FABRIC_WORKER). The explicit Worker role keeps --dashboard from
 * turning the run into a coordinator, and the fixed id lets a restarted
 * run reclaim the claims its killed predecessor held at once.
 */
void useCheckpointDir(ExperimentOptions &opts, const std::string &dir);

/**
 * A stable identity for a point within a sweep: hashes the workload
 * names in order (no count, so a one-app point hashes its name alone),
 * refs/warmup, seed override, the full config digest, and the point's
 * index. Keys fabric claims, shard records and failure reports.
 */
std::uint64_t pointDigest(const ExperimentPoint &point, std::size_t index);

/**
 * Run all @p points and return results in point order, bit-identical
 * for any job count. Never throws for a point failure: each result's
 * status records how the point ended, and failed/timed-out results
 * have every measured field zero. A resumed fabric or checkpoint sweep
 * returns exactly the bytes an uninterrupted one would.
 * @throws std::runtime_error on an infrastructure error (an unusable
 *         fabric directory, a manifest for a different sweep).
 */
std::vector<RunResult>
runExperiments(const std::vector<ExperimentPoint> &points,
               const ExperimentOptions &opts);

/**
 * Back-compat wrapper: run with default options and rethrow the first
 * (lowest-index) captured failure, preserving the pre-ISSUE-3
 * contract that exceptions propagate after all points complete.
 */
std::vector<RunResult>
runExperiments(const std::vector<ExperimentPoint> &points,
               unsigned jobs = 0);

/**
 * Flatten a finished point into the "tempo-bench-1" JSON schema:
 * runtime, the full energy breakdown, and the headline counters
 * (walks, prefetch issue/drop, replay service points, DRAM mix,
 * coverage, TLB miss rate) plus every report entry, and the status /
 * failure fields.
 */
stats::BenchPoint
toBenchPoint(const std::string &workload,
             std::vector<std::pair<std::string, std::string>> config,
             const RunResult &result);

} // namespace tempo

#endif // TEMPO_CORE_EXPERIMENT_HH
