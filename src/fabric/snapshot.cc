#include "fabric/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "fabric/claim.hh"
#include "fabric/coordinator.hh"
#include "fabric/heartbeat.hh"
#include "obs/obs.hh"

namespace tempo::fabric {

namespace fs = std::filesystem;
using stats::Json;
using stats::JsonValue;

namespace {

/** References a finished point simulated, over all its apps. */
std::uint64_t
refsOf(const RunResult &result)
{
    std::uint64_t refs = 0;
    for (const CoreStats &app : result.appStats)
        refs += app.refs;
    return refs;
}

/** Cap on the failures array in snapshots (the dashboard feed; the
 * bench JSON still reports every failure). */
constexpr std::size_t kMaxSnapshotFailures = 50;

void
rollupTimeseries(
    std::map<std::string, std::pair<std::uint64_t, double>> &rollup,
    const RunResult &result)
{
    if (!result.obs)
        return;
    for (const auto &[column, values] : result.obs->timeseries.columns) {
        if (column == "cycle") // the x axis, not a metric
            continue;
        auto &[count, sum] = rollup[column];
        count += values.size();
        sum = std::accumulate(values.begin(), values.end(), sum);
    }
}

Json
timeseriesJson(
    const std::map<std::string, std::pair<std::uint64_t, double>> &rollup)
{
    Json out = Json::object();
    for (const auto &[column, stats] : rollup) {
        const auto &[count, sum] = stats;
        Json cell = Json::object();
        cell.set("count", count);
        cell.set("mean", count ? sum / static_cast<double>(count) : 0.0);
        out.set(column, std::move(cell));
    }
    return out;
}

/** The failure feed, ordered by digest in both snapshot kinds. */
Json
failuresJson(std::vector<const RunStatus *> failures)
{
    std::sort(failures.begin(), failures.end(),
              [](const RunStatus *a, const RunStatus *b) {
                  return a->digest < b->digest;
              });
    Json out = Json::array();
    for (const RunStatus *status : failures) {
        Json f = Json::object();
        f.set("digest", digestHex(status->digest));
        f.set("status", status->codeName());
        f.set("error", status->error);
        f.set("attempts", std::uint64_t(status->attempts));
        out.push(std::move(f));
    }
    return out;
}

double
rate(double numerator, double seconds)
{
    return seconds > 0 ? numerator / seconds : 0.0;
}

/** The "points" through "events_per_sec" members of a snapshot. Done
 * and in-flight counts are capped and pending is the remainder, so
 * ok + failed + timed_out + in_flight + pending == points exactly. */
void
setCounts(Json &doc, std::size_t points, std::size_t ok,
          std::size_t failed, std::size_t timedOut, std::size_t inFlight,
          std::uint64_t retries, std::uint64_t refsDone, double elapsed)
{
    const std::size_t done = std::min(ok + failed + timedOut, points);
    const std::size_t inflight = std::min(inFlight, points - done);
    const std::size_t pending = points - done - inflight;
    const double pps = rate(static_cast<double>(done), elapsed);
    doc.set("points", std::uint64_t(points));
    doc.set("ok", std::uint64_t(ok));
    doc.set("failed", std::uint64_t(failed));
    doc.set("timed_out", std::uint64_t(timedOut));
    doc.set("in_flight", std::uint64_t(inflight));
    doc.set("pending", std::uint64_t(pending));
    doc.set("retries", retries);
    doc.set("elapsed_sec", elapsed);
    doc.set("eta_sec",
            pps > 0 ? static_cast<double>(pending + inflight) / pps
                    : 0.0);
    doc.set("points_per_sec", pps);
    doc.set("events_per_sec",
            rate(static_cast<double>(refsDone), elapsed));
}

} // namespace

void
WorkerTally::add(const RunResult &result, double pointWallSec)
{
    switch (result.status.code) {
      case RunStatus::Code::Ok: ++ok; break;
      case RunStatus::Code::Failed: ++failed; break;
      case RunStatus::Code::TimedOut: ++timedOut; break;
    }
    retries += result.status.attempts > 0 ? result.status.attempts - 1 : 0;
    ++pointsRun;
    refsDone += refsOf(result);
    wallSec += pointWallSec;
    lastWallSec = pointWallSec;
    rollupTimeseries(timeseries, result);
}

Json
WorkerTally::toJson() const
{
    Json doc = Json::object();
    doc.set("schema", "tempo-fabric-worker-1");
    doc.set("worker", worker);
    doc.set("sweep", sweep);
    doc.set("ok", ok);
    doc.set("failed", failed);
    doc.set("timed_out", timedOut);
    doc.set("retries", retries);
    doc.set("points_run", pointsRun);
    doc.set("refs_done", refsDone);
    doc.set("wall_sec", wallSec);
    doc.set("last_wall_sec", lastWallSec);
    doc.set("events_per_sec",
            rate(static_cast<double>(refsDone), wallSec));
    Json inflight = Json::array();
    for (std::uint64_t digest : inFlight)
        inflight.push(digestHex(digest));
    doc.set("in_flight", std::move(inflight));
    doc.set("timeseries", timeseriesJson(timeseries));
    return doc;
}

void
writeWorkerStatus(const std::string &dir, const WorkerTally &tally)
{
    writeFileAtomic(dir + "/status_" + tally.worker + ".json",
                    tally.toJson().dump());
}

void
SweepProgress::configure(const std::string &label, std::size_t total,
                         unsigned every)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    label_ = label;
    total_ = total;
    every_ = every;
    if (!started_) {
        t0_ = std::chrono::steady_clock::now();
        started_ = true;
    }
}

void
SweepProgress::start(std::size_t)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ++inFlight_;
}

void
SweepProgress::done(std::size_t, const RunResult &result)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (inFlight_ > 0)
        --inFlight_;
    ++done_;
    switch (result.status.code) {
      case RunStatus::Code::Ok: ++ok_; break;
      case RunStatus::Code::Failed: ++failed_; break;
      case RunStatus::Code::TimedOut: ++timedOut_; break;
    }
    retries_ +=
        result.status.attempts > 0 ? result.status.attempts - 1 : 0;
    refsDone_ += refsOf(result);
    if (!result.status.ok() && failures_.size() < kMaxSnapshotFailures) {
        RunStatus status = result.status;
        status.exception = nullptr; // snapshots never rethrow
        failures_.push_back(std::move(status));
    }
    rollupTimeseries(timeseries_, result);
    if (!haveGlobal_)
        maybePrint(done_, failed_ + timedOut_, total_,
                   done_ == total_);
}

void
SweepProgress::globalTick(std::size_t doneCount,
                          std::size_t failedCount, std::size_t total)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    haveGlobal_ = true;
    globalDone_ = doneCount;
    globalFailed_ = failedCount;
    maybePrint(doneCount, failedCount, total, doneCount == total);
}

void
SweepProgress::maybePrint(std::size_t doneCount,
                          std::size_t failedCount, std::size_t total,
                          bool final)
{
    if (every_ == 0 || doneCount == 0)
        return;
    if (doneCount - printedAt_ < every_ && !(final && doneCount != printedAt_))
        return;
    printedAt_ = doneCount;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0_)
                               .count();
    const double pps = rate(static_cast<double>(doneCount), elapsed);
    const double eta =
        pps > 0 ? static_cast<double>(total - doneCount) / pps : 0.0;
    std::fprintf(stderr,
                 "[%s] %zu/%zu done (%zu failed), elapsed %.1fs, "
                 "eta %.1fs\n",
                 label_.c_str(), doneCount, total, failedCount,
                 elapsed, eta);
}

std::string
SweepProgress::snapshotJson() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const double elapsed =
        started_ ? std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0_)
                       .count()
                 : 0.0;
    Json doc = Json::object();
    doc.set("schema", "tempo-fabric-snapshot-1");
    doc.set("sweep", label_);
    setCounts(doc, total_, ok_, failed_, timedOut_, inFlight_, retries_,
              refsDone_, elapsed);
    doc.set("workers", Json::array());
    std::vector<const RunStatus *> failures;
    for (const RunStatus &status : failures_)
        failures.push_back(&status);
    doc.set("failures", failuresJson(std::move(failures)));
    doc.set("timeseries", timeseriesJson(timeseries_));
    return doc.dump();
}

std::string
buildDirSnapshotJson(const std::string &dir, double staleSec)
{
    Json doc = Json::object();
    doc.set("schema", "tempo-fabric-snapshot-1");

    Manifest manifest;
    double elapsed = 0;
    bool haveManifest = false;
    try {
        haveManifest = readManifest(dir, manifest, &elapsed);
    } catch (const std::exception &) {
        haveManifest = false; // unreadable manifest -> empty snapshot
    }
    doc.set("sweep", manifest.sweep);

    std::size_t okCount = 0, failedCount = 0, timedOutCount = 0;
    std::size_t claimed = 0;
    std::uint64_t retries = 0, refsDone = 0;
    std::vector<const RunStatus *> failures;
    std::set<std::uint64_t> doneSet;
    ShardScanner scanner(dir);
    std::map<std::string, std::pair<std::uint64_t, double>> rollup;
    if (haveManifest) {
        const std::set<std::uint64_t> wanted(manifest.digests.begin(),
                                             manifest.digests.end());
        try {
            scanner.poll();
        } catch (const std::exception &) {
            // A malformed shard line mid-write is a reader problem
            // only; report what parsed.
        }
        for (const auto &[digest, result] : scanner.done()) {
            if (!wanted.count(digest))
                continue;
            doneSet.insert(digest);
            switch (result.status.code) {
              case RunStatus::Code::Ok: ++okCount; break;
              case RunStatus::Code::Failed: ++failedCount; break;
              case RunStatus::Code::TimedOut: ++timedOutCount; break;
            }
            retries += result.status.attempts > 0
                           ? result.status.attempts - 1
                           : 0;
            refsDone += refsOf(result);
            rollupTimeseries(rollup, result);
            if (!result.status.ok() &&
                failures.size() < kMaxSnapshotFailures)
                failures.push_back(&result.status);
        }
        // In-flight: claimed manifest digests with no shard record.
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("claim_", 0) != 0)
                continue;
            std::uint64_t digest = 0;
            try {
                digest = parseDigestHex(name.substr(6));
            } catch (const std::exception &) {
                continue;
            }
            if (wanted.count(digest) && !doneSet.count(digest))
                ++claimed;
        }
    }
    // Without a manifest every count is 0.
    setCounts(doc, manifest.digests.size(), okCount, failedCount,
              timedOutCount, claimed, retries, refsDone, elapsed);

    // Workers: anyone with a heartbeat or a status file.
    std::set<std::string> ids;
    for (const std::string &id : Heartbeat::listWorkers(dir))
        ids.insert(id);
    {
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("status_", 0) == 0 &&
                name.size() > 12 &&
                name.compare(name.size() - 5, 5, ".json") == 0)
                ids.insert(name.substr(7, name.size() - 12));
        }
    }
    Json workers = Json::array();
    for (const std::string &id : ids) {
        Json w = Json::object();
        w.set("worker", id);
        const double hbAge = Heartbeat::ageSec(dir, id);
        const bool never = hbAge == std::numeric_limits<double>::infinity();
        w.set("alive", !never && hbAge <= staleSec);
        // -1 means "never heartbeat" (infinity is not valid JSON).
        w.set("heartbeat_age_sec", never ? -1.0 : hbAge);
        std::ifstream in(dir + "/status_" + id + ".json",
                         std::ios::binary);
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            try {
                const JsonValue status = stats::parseJson(text.str());
                for (const auto &[key, value] : status.members) {
                    if (key == "schema" || key == "worker")
                        continue;
                    w.set(key, stats::toJson(value));
                }
            } catch (const std::exception &) {
                // Torn read of a status mid-publish: skip its fields.
            }
        }
        workers.push(std::move(w));
    }
    doc.set("workers", std::move(workers));

    doc.set("failures", failuresJson(std::move(failures)));
    doc.set("timeseries", timeseriesJson(rollup));
    return doc.dump();
}

} // namespace tempo::fabric
