/**
 * @file
 * Sweep status observability: per-worker status files, the in-process
 * progress tracker behind `tempo_sweep --progress`, the merged
 * "tempo-fabric-snapshot-1" JSON, and the writer behind `tempo_sweep
 * --dashboard DIR` that keeps that snapshot and a page showing it in
 * DIR.
 *
 * Snapshot schema (all keys always present):
 *
 *   {
 *     "schema": "tempo-fabric-snapshot-1",
 *     "sweep": "<label>",
 *     "points": <uint>, "ok": <uint>, "failed": <uint>,
 *     "timed_out": <uint>, "in_flight": <uint>, "pending": <uint>,
 *     "retries": <uint>,
 *     "elapsed_sec": <num>, "eta_sec": <num>,
 *     "points_per_sec": <num>,
 *     "events_per_sec": <num>,   // simulated references per second
 *     "workers": [ { "worker": "<id>", "alive": <bool>,
 *                    "heartbeat_age_sec": <num>,
 *                    ...embedded tempo-fabric-worker-1 fields... } ],
 *     "failures": [ { "digest": "<16-hex>", "status": "...",
 *                     "error": "...", "attempts": <uint> } ],
 *     "timeseries": { "<column>": { "count": <uint>, "mean": <num> } }
 *   }
 *
 * Counting invariant (checked by CI at every poll): ok + failed +
 * timed_out + in_flight + pending == points, exactly. The snapshot
 * builder computes done counts from one shard scan, in-flight as
 * claimed-but-not-done, and pending as the remainder, so the identity
 * holds by construction even while workers race ahead of the poll.
 */

#ifndef TEMPO_FABRIC_SNAPSHOT_HH
#define TEMPO_FABRIC_SNAPSHOT_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "stats/json.hh"

namespace tempo::fabric {

/**
 * One worker's running tally, serialized to `status_<workerId>.json`
 * ("tempo-fabric-worker-1") after every completed point. Callers
 * provide their own locking.
 */
struct WorkerTally {
    std::string worker;
    std::string sweep;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t retries = 0;   //!< extra attempts consumed
    std::uint64_t pointsRun = 0; //!< points this worker executed
    std::uint64_t refsDone = 0;  //!< simulated references completed
    double wallSec = 0;          //!< summed per-point wall clock
    double lastWallSec = 0;
    std::set<std::uint64_t> inFlight; //!< digests being run right now
    /** Windowed obs rollup: column -> (sample count, sample sum). */
    std::map<std::string, std::pair<std::uint64_t, double>> timeseries;

    /** Fold one finished point in (status, refs, retries, obs). */
    void add(const RunResult &result, double pointWallSec);

    stats::Json toJson() const;
};

/** Atomically (re)write @p tally's status file in @p dir. */
void writeWorkerStatus(const std::string &dir, const WorkerTally &tally);

/**
 * Thread-safe sweep progress tracker. The experiment engine reports
 * point starts and completions into one; it prints a stderr line every
 * `every` completions and can render a snapshot JSON for the local
 * (non-fabric) `--dashboard` mode. Fabric loops additionally feed
 * globalTick() with directory-wide counts so a worker's progress line
 * reflects the whole sweep, not just its own share.
 */
class SweepProgress
{
  public:
    void configure(const std::string &label, std::size_t total,
                   unsigned every);

    /** A point began executing in this process. */
    void start(std::size_t index);

    /** A point this process started finished. */
    void done(std::size_t index, const RunResult &result);

    /** Directory-wide completion counts (fabric mode); also prints the
     * progress line on period boundaries. */
    void globalTick(std::size_t doneCount, std::size_t failedCount,
                    std::size_t total);

    /** "tempo-fabric-snapshot-1" built from in-process state only
     * (workers is []); the --dashboard provider when no fabric dir. */
    std::string snapshotJson() const;

  private:
    void maybePrint(std::size_t doneCount, std::size_t failedCount,
                    std::size_t total, bool final);

    mutable std::mutex mutex_;
    std::string label_ = "sweep";
    std::size_t total_ = 0;
    unsigned every_ = 0;
    std::chrono::steady_clock::time_point t0_{};
    bool started_ = false;
    std::size_t printedAt_ = 0; //!< done count of the last line
    // Local (this-process) accounting.
    std::size_t done_ = 0;
    std::size_t ok_ = 0;
    std::size_t failed_ = 0;
    std::size_t timedOut_ = 0;
    std::size_t inFlight_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t refsDone_ = 0;
    std::vector<RunStatus> failures_;
    std::map<std::string, std::pair<std::uint64_t, double>> timeseries_;
    // Directory-wide view (fabric), used for printing when present.
    bool haveGlobal_ = false;
    std::size_t globalDone_ = 0;
    std::size_t globalFailed_ = 0;
};

/**
 * Build the merged "tempo-fabric-snapshot-1" for a fabric directory:
 * one fresh scan of the manifest, every result shard, every claim,
 * heartbeat, and worker status file. Never throws — before the
 * manifest exists it reports an all-zero snapshot, and unreadable
 * worker files are skipped — so the dashboard writer can poll at any
 * time.
 */
std::string buildDirSnapshotJson(const std::string &dir,
                                 double staleSec);

/** The self-contained ops page (progress bar, stat tiles, worker
 * table, failure feed, throughput sparkline) with @p snapshotJson
 * inlined, every '<' escaped so no error text can close the data
 * block. It reloads itself every 2 s and needs no other file, so it
 * works over file://. */
std::string dashboardHtml(const std::string &snapshotJson);

/**
 * `tempo_sweep --dashboard DIR`: writes DIR/snapshot.json (the
 * provider's bytes) and DIR/dashboard.html through writeFileAtomic(),
 * once on construction, every kPeriod on a background thread, and once
 * more on stop(). Neither name matches a fabric file pattern, so DIR
 * may be the fabric directory itself.
 */
class DashboardWriter
{
  public:
    /** Builds the snapshot JSON; called from the writer thread, so it
     * must be thread-safe. */
    using Provider = std::function<std::string()>;
    static constexpr std::chrono::seconds kPeriod{1};

    /** @throws std::runtime_error when the first write fails. */
    DashboardWriter(std::string dir, Provider provider);
    ~DashboardWriter();
    DashboardWriter(const DashboardWriter &) = delete;
    DashboardWriter &operator=(const DashboardWriter &) = delete;

    /** Join the thread, then write the final snapshot (idempotent). */
    void stop();

  private:
    void write(bool first);

    std::string dir_;
    Provider provider_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace tempo::fabric

#endif // TEMPO_FABRIC_SNAPSHOT_HH
