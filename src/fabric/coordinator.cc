#include "fabric/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/thread_pool.hh"
#include "core/checkpoint.hh"
#include "fabric/claim.hh"
#include "fabric/heartbeat.hh"
#include "fabric/snapshot.hh"

namespace tempo::fabric {

namespace fs = std::filesystem;
using stats::Json;
using stats::JsonValue;

namespace {

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t h)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::vector<std::string>
listManifests(const std::string &dir)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("manifest_", 0) == 0 && name.size() > 14 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

/** Poll period of idle workers and the coordinator. Fabric liveness
 * is heartbeat-file based, so nothing here needs to be faster than
 * the filesystem round trip. */
constexpr auto kPollPeriod = std::chrono::milliseconds(200);

} // namespace

std::string
manifestPath(const std::string &dir,
             const std::vector<std::uint64_t> &digests)
{
    std::uint64_t h = kFnvBasis;
    for (std::uint64_t digest : digests)
        h = fnv1a64(&digest, sizeof(digest), h);
    return dir + "/manifest_" + digestHex(h) + ".json";
}

void
writeManifest(const std::string &dir, const std::string &sweep,
              const std::vector<std::uint64_t> &digests)
{
    const std::string path = manifestPath(dir, digests);
    const std::string want =
        fs::path(path).filename().string();
    for (const std::string &name : listManifests(dir)) {
        if (name != want)
            throw std::runtime_error(
                "fabric: directory " + dir +
                " already holds a manifest for a different sweep (" +
                name + "); every participant must run the identical "
                "point list, and one directory serves one sweep");
    }
    if (fs::exists(path))
        return; // idempotent republish (workers race; content equal)
    Json doc = Json::object();
    doc.set("v", std::uint64_t(1));
    doc.set("sweep", sweep);
    doc.set("points", std::uint64_t(digests.size()));
    Json list = Json::array();
    for (std::uint64_t digest : digests)
        list.push(digestHex(digest));
    doc.set("digests", std::move(list));
    writeFileAtomic(path, doc.dump());
}

bool
readManifest(const std::string &dir, Manifest &out, double *ageSec)
{
    const std::vector<std::string> names = listManifests(dir);
    if (names.empty())
        return false;
    const std::string path = dir + "/" + names.front();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue doc = stats::parseJson(text.str());
    out.sweep = doc.at("sweep").asString();
    out.digests.clear();
    for (const JsonValue &digest : doc.at("digests").elements)
        out.digests.push_back(parseDigestHex(digest.asString()));
    if (ageSec)
        *ageSec = fileAgeSec(path);
    return true;
}

ShardScanner::ShardScanner(std::string dir) : dir_(std::move(dir)) {}

std::size_t
ShardScanner::poll()
{
    const std::size_t before = done_.size();
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard_", 0) == 0 && name.size() > 12 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0)
            files.push_back(name);
    }
    std::sort(files.begin(), files.end());
    for (const std::string &name : files) {
        std::uint64_t &offset = offsets_[name];
        std::ifstream in(dir_ + "/" + name, std::ios::binary);
        if (!in)
            continue;
        in.seekg(static_cast<std::streamoff>(offset));
        std::ostringstream tail;
        tail << in.rdbuf();
        const std::string buf = tail.str();
        std::size_t pos = 0;
        for (;;) {
            const std::size_t nl = buf.find('\n', pos);
            if (nl == std::string::npos)
                break; // incomplete tail: leave for the next poll
            const std::string line = buf.substr(pos, nl - pos);
            pos = nl + 1;
            if (line.empty())
                continue;
            try {
                JournalRecord record = decodeJournalLine(line);
                const auto [it, inserted] = done_.try_emplace(
                    record.digest, std::move(record.result));
                if (!inserted && !it->second.status.ok() &&
                    record.result.status.ok())
                    it->second = std::move(record.result);
            } catch (const std::exception &) {
                // A complete-but-corrupt line cannot happen through
                // AtomicAppendFile; skipping it leaves its point
                // "not done", so the fabric simply re-runs it.
            }
        }
        offset += pos;
    }
    return done_.size() - before;
}

namespace {

/** Shared view of sweep completion, updated from shard polls and from
 * the points this process ran. */
struct DoneTracker {
    std::map<std::uint64_t, std::size_t> indexOf;
    std::vector<char> mask;
    /** Points whose only record was a failure when this worker
     * started: a failure record alone does not finish them. */
    std::vector<char> rerun;
    std::size_t done = 0;
    std::size_t failed = 0;

    explicit DoneTracker(const std::vector<std::uint64_t> &digests)
        : mask(digests.size(), 0), rerun(digests.size(), 0)
    {
        for (std::size_t i = 0; i < digests.size(); ++i)
            indexOf.emplace(digests[i], i);
    }

    void
    mark(std::size_t i, const RunResult &result)
    {
        if (mask[i])
            return;
        mask[i] = 1;
        ++done;
        if (!result.status.ok())
            ++failed;
    }

    void
    refresh(ShardScanner &scanner)
    {
        scanner.poll();
        for (const auto &[digest, result] : scanner.done()) {
            const auto it = indexOf.find(digest);
            if (it != indexOf.end() &&
                (result.status.ok() || !rerun[it->second]))
                mark(it->second, result);
        }
    }
};

void
workerLoop(const ExperimentOptions &opts,
           const std::vector<std::uint64_t> &digests,
           const std::function<RunResult(std::size_t)> &runPoint,
           SweepProgress *progress, ShardScanner &scanner,
           const std::string &worker, std::vector<RunResult> &results,
           std::vector<char> &ran)
{
    const std::string &dir = opts.fabricDir;
    const std::size_t total = digests.size();
    ClaimDir claims(dir, worker);
    Heartbeat heartbeat(dir, worker, opts.fabricHeartbeatSec);
    const std::string shardPath = dir + "/shard_" + worker + ".jsonl";
    cutUnterminatedTail(shardPath);
    AtomicAppendFile shard(shardPath);

    std::mutex mutex; // scanner, tracker, tally, shard appends
    DoneTracker tracker(digests);
    // A point whose only record is a failure runs again: a transient
    // failure gets another chance, a deterministic one reproduces. Its
    // claim is the finished failed run's, so it is re-contested.
    scanner.poll();
    for (const auto &[digest, result] : scanner.done()) {
        const auto it = tracker.indexOf.find(digest);
        if (it != tracker.indexOf.end() && !result.status.ok()) {
            tracker.rerun[it->second] = 1;
            claims.remove(digest);
        }
    }
    WorkerTally tally;
    tally.worker = worker;
    tally.sweep = opts.progressLabel;
    writeWorkerStatus(dir, tally);

    std::atomic<bool> abort{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    const std::uint64_t scanStart =
        total ? fnv1a64(worker.data(), worker.size(), kFnvBasis) % total
              : 0;

    auto body = [&] {
        while (!abort.load(std::memory_order_relaxed)) {
            std::size_t pick = std::numeric_limits<std::size_t>::max();
            std::size_t waiting = 0; // unfinished, not run by us
            {
                const std::lock_guard<std::mutex> lock(mutex);
                tracker.refresh(scanner);
                if (tracker.done >= total)
                    return;
                if (progress)
                    progress->globalTick(tracker.done, tracker.failed,
                                         total);
                // Start scanning at a per-worker offset so workers
                // racing from the same instant contend on different
                // points instead of serializing on claim files.
                for (std::size_t k = 0; k < total; ++k) {
                    const std::size_t i =
                        (scanStart + k) % total;
                    if (tracker.mask[i])
                        continue;
                    const std::uint64_t digest = digests[i];
                    if (tally.inFlight.count(digest))
                        continue; // this process is running it
                    ++waiting;
                    const std::string owner = claims.owner(digest);
                    if (owner.empty()) {
                        if (!claims.tryClaim(digest))
                            continue; // lost the race
                    } else if (owner == worker) {
                        // Our previous incarnation died holding it
                        // (same worker id, not in our in-flight set).
                        claims.remove(digest);
                        if (!claims.tryClaim(digest))
                            continue;
                    } else {
                        // An owner whose process exited on this host
                        // (say, a default-id worker killed and
                        // restarted under a new pid) is stale at once;
                        // other owners go stale by age.
                        const double hbAge =
                            Heartbeat::ageSec(dir, owner);
                        const bool stale =
                            Heartbeat::ownerExited(dir, owner)
                            || (hbAge ==
                                        std::numeric_limits<
                                            double>::infinity()
                                    ? claims.ageSec(digest) >
                                          opts.fabricStaleSec
                                    : hbAge > opts.fabricStaleSec);
                        if (!stale)
                            continue;
                        claims.remove(digest);
                        if (!claims.tryClaim(digest))
                            continue;
                    }
                    pick = i;
                    tally.inFlight.insert(digest);
                    writeWorkerStatus(dir, tally);
                    break;
                }
            }
            if (pick == std::numeric_limits<std::size_t>::max()) {
                // Everything left runs on this process's other threads,
                // which finish the sweep without this one.
                if (waiting == 0)
                    return;
                std::this_thread::sleep_for(kPollPeriod);
                continue;
            }
            if (progress)
                progress->start(pick);
            const auto t0 = std::chrono::steady_clock::now();
            RunResult result = runPoint(pick);
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    t0)
                                    .count();
            const std::lock_guard<std::mutex> lock(mutex);
            shard.appendLine(
                encodeJournalLine(digests[pick], result));
            tally.inFlight.erase(digests[pick]);
            tally.add(result, wall);
            writeWorkerStatus(dir, tally);
            tracker.mark(pick, result);
            // Keep the in-memory result: a shard record has no trace.
            results[pick] = std::move(result);
            ran[pick] = 1;
            if (progress)
                progress->done(pick, results[pick]);
            if (opts.onPointDone)
                opts.onPointDone(pick, results[pick]);
        }
    };

    const unsigned jobs = opts.jobs ? opts.jobs : ThreadPool::defaultThreads();
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) {
        threads.emplace_back([&] {
            try {
                body();
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(errorMutex);
                    if (!firstError)
                        firstError = std::current_exception();
                }
                abort.store(true, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    heartbeat.stop();
    if (firstError)
        std::rethrow_exception(firstError);
    const std::lock_guard<std::mutex> lock(mutex);
    tracker.refresh(scanner);
    writeWorkerStatus(dir, tally);
    if (progress)
        progress->globalTick(tracker.done, tracker.failed, total);
}

void
coordinatorLoop(const ExperimentOptions &opts,
                const std::vector<std::uint64_t> &digests,
                SweepProgress *progress, ShardScanner &scanner)
{
    const std::string &dir = opts.fabricDir;
    const std::size_t total = digests.size();
    DoneTracker tracker(digests);
    // A sweep with points left but no live worker for this long is
    // declared stalled: generous enough to ride out worker restarts
    // and slow shared filesystems, finite so CI cannot hang forever.
    const double stallLimit = std::max(30.0, opts.fabricStaleSec * 5);
    auto lastAlive = std::chrono::steady_clock::now();
    for (;;) {
        tracker.refresh(scanner);
        if (progress)
            progress->globalTick(tracker.done, tracker.failed, total);
        if (tracker.done >= total)
            return;
        bool alive = false;
        for (const std::string &id : Heartbeat::listWorkers(dir)) {
            if (Heartbeat::ageSec(dir, id) <= opts.fabricStaleSec) {
                alive = true;
                break;
            }
        }
        const auto now = std::chrono::steady_clock::now();
        if (alive)
            lastAlive = now;
        else if (std::chrono::duration<double>(now - lastAlive)
                     .count() > stallLimit)
            throw std::runtime_error(
                "fabric sweep stalled: " +
                std::to_string(total - tracker.done) +
                " points remain but no worker has heartbeat within " +
                std::to_string(stallLimit) + "s");
        std::this_thread::sleep_for(kPollPeriod);
    }
}

/** An exclusive flock(2) on DIR/checkpoint.lock for a checkpoint run.
 * Two live processes under the fixed checkpoint id would each take the
 * other's claims for a dead predecessor's and run every unfinished
 * point twice. The kernel drops the lock when the process dies, on
 * kill -9 too, so a restart resumes at once. */
class CheckpointLock
{
  public:
    explicit CheckpointLock(const std::string &dir)
        : fd_(::open((dir + "/checkpoint.lock").c_str(),
                     O_RDWR | O_CREAT | O_CLOEXEC, 0644))
    {
        if (fd_ < 0)
            throw std::runtime_error("cannot open " + dir
                                     + "/checkpoint.lock: "
                                     + std::strerror(errno));
        // A predecessor killed a moment ago holds the lock until the
        // kernel has torn it down (milliseconds); a live one for good.
        // Any other failure (no lock support on the filesystem) is final.
        const auto give_up = std::chrono::steady_clock::now() + kLockWait;
        while (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
            const int error = errno;
            if (error == EINTR)
                continue;
            if (error != EWOULDBLOCK
                || std::chrono::steady_clock::now() > give_up) {
                ::close(fd_);
                throw std::runtime_error(
                    error == EWOULDBLOCK
                        ? "checkpoint directory in use: " + dir
                        : "cannot lock " + dir + "/checkpoint.lock: "
                            + std::strerror(error));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    ~CheckpointLock() { ::close(fd_); }
    CheckpointLock(const CheckpointLock &) = delete;
    CheckpointLock &operator=(const CheckpointLock &) = delete;

  private:
    static constexpr std::chrono::seconds kLockWait{2};
    int fd_;
};

} // namespace

std::vector<RunResult>
runFabric(const ExperimentOptions &opts,
          const std::vector<std::uint64_t> &digests,
          const std::function<RunResult(std::size_t)> &runPoint,
          SweepProgress *progress)
{
    const std::string &dir = opts.fabricDir;
    fs::create_directories(dir);
    writeManifest(dir, opts.progressLabel, digests);

    ShardScanner scanner(dir);
    std::vector<RunResult> results(digests.size());
    std::vector<char> ran(digests.size(), 0);
    if (opts.fabricRole == ExperimentOptions::FabricRole::Coordinator)
        coordinatorLoop(opts, digests, progress, scanner);
    else {
        const std::string worker =
            opts.fabricWorkerId.empty()
                ? "w" + std::to_string(::getpid())
                : opts.fabricWorkerId;
        std::optional<CheckpointLock> lock;
        if (worker == kCheckpointWorker)
            lock.emplace(dir);
        workerLoop(opts, digests, runPoint, progress, scanner, worker,
                   results, ran);
    }

    // Merge: every participant leaves with the complete result set,
    // so any of them can emit the canonical single-process bytes.
    scanner.poll();
    for (std::size_t i = 0; i < digests.size(); ++i) {
        if (ran[i])
            continue;
        const auto it = scanner.done().find(digests[i]);
        if (it == scanner.done().end())
            throw std::runtime_error(
                "fabric: no shard record for point " +
                std::to_string(i) + " (digest " +
                digestHex(digests[i]) + ")");
        results[i] = it->second;
    }
    return results;
}

} // namespace tempo::fabric
