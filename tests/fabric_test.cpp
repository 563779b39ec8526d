/**
 * @file
 * Sweep fabric tests: claim exclusivity under racing contenders, stale
 * detection and reclaim, the streaming shard scanner's handling of a
 * truncated tail, snapshot JSON round-trips and the counting
 * invariant, the dashboard files, and the headline property — a
 * multi-worker fabric sweep returns byte-identical results to a
 * single-process run, failures included.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include <climits>
#include <sys/wait.h>
#include <unistd.h>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "fabric/claim.hh"
#include "fabric/coordinator.hh"
#include "fabric/heartbeat.hh"
#include "fabric/snapshot.hh"
#include "obs/obs.hh"

namespace tempo {
namespace {

namespace fs = std::filesystem;
using fabric::ClaimDir;
using fabric::Heartbeat;
using fabric::ShardScanner;

constexpr std::uint64_t kRefs = 2000;

/** A scratch directory removed on scope exit. */
struct TempDir {
    std::string path;
    explicit TempDir(const std::string &name)
        : path("fabric_test_" + name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ignore;
        fs::remove_all(path, ignore);
    }
};

std::vector<ExperimentPoint>
sweepPoints()
{
    std::vector<ExperimentPoint> points;
    for (const char *name : {"mcf", "xsbench", "canneal", "spmv"}) {
        ExperimentPoint p;
        p.workload = name;
        p.config = SystemConfig::skylakeScaled();
        p.refs = kRefs;
        points.push_back(std::move(p));
    }
    return points;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

/** Names of every file in @p dir, sorted. */
std::set<std::string>
listDir(const std::string &dir)
{
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    return names;
}

/** Flatten results to the full tempo-bench-1 document for byte
 * comparisons (status, failures array and all). */
std::string
emitJson(const std::vector<RunResult> &results)
{
    std::vector<stats::BenchPoint> points;
    for (std::size_t i = 0; i < results.size(); ++i)
        points.push_back(
            toBenchPoint("p" + std::to_string(i), {}, results[i]));
    return stats::benchJson("fabric", kRefs, 42, points).dump();
}

TEST(FabricClaim, ExactlyOneRacingContenderWins)
{
    TempDir dir("claim_race");
    constexpr int kContenders = 8;
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    std::vector<ClaimDir> claims;
    claims.reserve(kContenders);
    for (int i = 0; i < kContenders; ++i)
        claims.emplace_back(dir.path, "w" + std::to_string(i));
    for (int i = 0; i < kContenders; ++i)
        threads.emplace_back([&, i] {
            if (claims[i].tryClaim(0xfeedu))
                ++winners;
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(winners.load(), 1);
    // The claim file names exactly one of the contenders.
    const std::string owner = claims[0].owner(0xfeedu);
    EXPECT_EQ(owner.rfind('w', 0), 0u);
    // Erase + re-contest: claimable again, by anyone.
    claims[0].remove(0xfeedu);
    EXPECT_TRUE(claims[3].tryClaim(0xfeedu));
    EXPECT_EQ(claims[0].owner(0xfeedu), "w3");
}

TEST(FabricClaim, DigestHexRoundTrips)
{
    EXPECT_EQ(stats::digestHex(0xdeadbeefu), "00000000deadbeef");
    EXPECT_EQ(stats::parseDigestHex("00000000deadbeef"), 0xdeadbeefu);
    EXPECT_THROW(stats::parseDigestHex("xyz"), std::runtime_error);
}

TEST(FabricPublish, ConcurrentWritersOfOnePathNeverCollide)
{
    // Threads of one process publishing the same path (worker threads
    // in one test binary, a heartbeat beside a status writer) must each
    // get their own temp file, or one rename steals another's.
    TempDir dir("publish_race");
    const std::string path = dir.path + "/status_w0.json";
    constexpr int kThreads = 8;
    constexpr int kRounds = 1000;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            const std::string body = "writer " + std::to_string(t);
            for (int r = 0; r < kRounds; ++r) {
                try {
                    fabric::writeFileAtomic(path, body);
                } catch (const std::exception &) {
                    ++failures;
                }
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    // One writer's complete content survives, and no temp file does.
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content.rfind("writer ", 0), 0u);
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir.path)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(FabricHeartbeat, ListWorkersSkipsTempFiles)
{
    TempDir dir("heartbeat_tmp");
    fabric::writeFileAtomic(Heartbeat::path(dir.path, "w1"), "1\n");
    std::ofstream(Heartbeat::path(dir.path, "w2") + ".tmp.1.2.3") << "2\n";
    EXPECT_EQ(Heartbeat::listWorkers(dir.path),
              std::vector<std::string>{"w1"});
}

TEST(FabricHeartbeat, StalenessIsFileAge)
{
    TempDir dir("heartbeat");
    {
        Heartbeat hb(dir.path, "w0", 0.05);
        EXPECT_LT(Heartbeat::ageSec(dir.path, "w0"), 5.0);
        const auto workers = Heartbeat::listWorkers(dir.path);
        ASSERT_EQ(workers.size(), 1u);
        EXPECT_EQ(workers[0], "w0");
    }
    // Worker gone: age the heartbeat file artificially and observe the
    // stale verdict any reclaiming worker would reach.
    const std::string path = Heartbeat::path(dir.path, "w0");
    fs::last_write_time(path, fs::last_write_time(path) -
                                  std::chrono::seconds(3600));
    EXPECT_GT(Heartbeat::ageSec(dir.path, "w0"), 30.0);
    // A worker that never wrote a heartbeat reads +infinity.
    EXPECT_EQ(Heartbeat::ageSec(dir.path, "ghost"),
              std::numeric_limits<double>::infinity());
}

std::string
thisHost()
{
    char name[HOST_NAME_MAX + 1] = {};
    EXPECT_EQ(::gethostname(name, sizeof(name) - 1), 0);
    return name;
}

/** The id of a process that has exited and been reaped. */
pid_t
exitedPid()
{
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(0);
    EXPECT_GT(pid, 0);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return pid;
}

TEST(FabricHeartbeat, NamesHostAndPidSoExitedOwnersShow)
{
    TempDir dir("heartbeat_owner");
    const std::string host = thisHost();
    {
        Heartbeat hb(dir.path, "live", 10.0);
        EXPECT_EQ(readFile(Heartbeat::path(dir.path, "live")),
                  host + " " + std::to_string(::getpid()) + "\n");
        EXPECT_FALSE(Heartbeat::ownerExited(dir.path, "live"));
    }
    const std::string dead = std::to_string(exitedPid());
    fabric::writeFileAtomic(Heartbeat::path(dir.path, "dead"),
                            host + " " + dead + "\n");
    EXPECT_TRUE(Heartbeat::ownerExited(dir.path, "dead"));
    // Another host's pid says nothing here; nor does an old-format or
    // missing heartbeat.
    fabric::writeFileAtomic(Heartbeat::path(dir.path, "remote"),
                            host + ".elsewhere " + dead + "\n");
    EXPECT_FALSE(Heartbeat::ownerExited(dir.path, "remote"));
    fabric::writeFileAtomic(Heartbeat::path(dir.path, "old"), dead + "\n");
    EXPECT_FALSE(Heartbeat::ownerExited(dir.path, "old"));
    EXPECT_FALSE(Heartbeat::ownerExited(dir.path, "ghost"));
}

TEST(FabricScanner, ConsumesOnlyCompleteLines)
{
    TempDir dir("scanner");
    const RunResult result =
        runWorkload(SystemConfig::skylakeScaled(), "mcf", kRefs);
    const std::string lineA = encodeJournalLine(0xa, result);
    const std::string lineB = encodeJournalLine(0xb, result);
    const std::string lineC = encodeJournalLine(0xc, result);
    const std::string shard = dir.path + "/shard_w0.jsonl";
    {
        std::ofstream out(shard, std::ios::binary);
        out << lineA << '\n' << lineB << '\n'
            << lineC.substr(0, lineC.size() / 2); // torn tail
    }
    ShardScanner scanner(dir.path);
    scanner.poll();
    EXPECT_EQ(scanner.done().size(), 2u);
    EXPECT_TRUE(scanner.done().count(0xa));
    EXPECT_TRUE(scanner.done().count(0xb));
    // The tail completes (the writer finished its append): the next
    // poll picks up exactly the new record.
    {
        std::ofstream out(shard, std::ios::binary | std::ios::app);
        out << lineC.substr(lineC.size() / 2) << '\n';
    }
    EXPECT_EQ(scanner.poll(), 1u);
    EXPECT_TRUE(scanner.done().count(0xc));
    // First record for a digest wins; duplicates are ignored.
    {
        std::ofstream out(dir.path + "/shard_w1.jsonl",
                          std::ios::binary);
        out << lineA << '\n';
    }
    EXPECT_EQ(scanner.poll(), 0u);
    EXPECT_EQ(scanner.done().size(), 3u);
}

TEST(FabricManifest, MismatchedSweepIsRejected)
{
    TempDir dir("manifest");
    const std::vector<std::uint64_t> digests{1, 2, 3};
    fabric::writeManifest(dir.path, "sweep-a", digests);
    // Idempotent republish of the identical point list is fine.
    fabric::writeManifest(dir.path, "sweep-a", digests);
    fabric::Manifest manifest;
    ASSERT_TRUE(fabric::readManifest(dir.path, manifest));
    EXPECT_EQ(manifest.sweep, "sweep-a");
    EXPECT_EQ(manifest.digests, digests);
    // A different digest list in the same directory must throw.
    EXPECT_THROW(
        fabric::writeManifest(dir.path, "sweep-b", {7, 8, 9}),
        std::runtime_error);
}

TEST(FabricSnapshot, RoundTripsAndSumsExactly)
{
    // Local-mode snapshot: decode via the parser and re-emit — bytes
    // must survive, and the status counts must sum to the point total.
    fabric::SweepProgress progress;
    progress.configure("unit", 5, 0);
    RunResult ok;
    RunResult bad;
    bad.status.code = RunStatus::Code::Failed;
    bad.status.error = "injected";
    bad.status.digest = 0x77;
    progress.start(0);
    progress.done(0, ok);
    progress.start(1);
    progress.done(1, bad);
    progress.start(2); // still in flight

    const std::string text = progress.snapshotJson();
    const stats::Json doc = stats::parseJson(text);
    EXPECT_EQ(doc.at("schema").asString(), "tempo-fabric-snapshot-1");
    const std::uint64_t points = doc.at("points").asUint64();
    EXPECT_EQ(doc.at("ok").asUint64() + doc.at("failed").asUint64() +
                  doc.at("timed_out").asUint64() +
                  doc.at("in_flight").asUint64() +
                  doc.at("pending").asUint64(),
              points);
    EXPECT_EQ(points, 5u);
    EXPECT_EQ(doc.at("ok").asUint64(), 1u);
    EXPECT_EQ(doc.at("failed").asUint64(), 1u);
    EXPECT_EQ(doc.at("in_flight").asUint64(), 1u);
    EXPECT_EQ(doc.at("pending").asUint64(), 2u);
    const stats::Json &failures = doc.at("failures");
    ASSERT_EQ(failures.elements().size(), 1u);
    EXPECT_EQ(failures.elements()[0].at("digest").asString(),
              "0000000000000077");
    // parse -> dump() reproduces the exact bytes.
    EXPECT_EQ(doc.dump(), text);
}

TEST(FabricSnapshot, DirSnapshotCountsClaimsAndShards)
{
    TempDir dir("dirsnap");
    const RunResult result =
        runWorkload(SystemConfig::skylakeScaled(), "mcf", kRefs);
    const std::vector<std::uint64_t> digests{10, 11, 12, 13};
    fabric::writeManifest(dir.path, "dirsweep", digests);
    {
        std::ofstream out(dir.path + "/shard_w0.jsonl",
                          std::ios::binary);
        out << encodeJournalLine(10, result) << '\n';
        RunResult failed = RunResult{};
        failed.status.code = RunStatus::Code::Failed;
        failed.status.error = "boom";
        failed.status.digest = 11;
        out << encodeJournalLine(11, failed) << '\n';
    }
    ClaimDir claims(dir.path, "w0");
    ASSERT_TRUE(claims.tryClaim(10)); // done: must NOT count in-flight
    ASSERT_TRUE(claims.tryClaim(12)); // genuinely in flight

    const stats::Json doc = stats::parseJson(
        fabric::buildDirSnapshotJson(dir.path, 30.0));
    EXPECT_EQ(doc.at("sweep").asString(), "dirsweep");
    EXPECT_EQ(doc.at("points").asUint64(), 4u);
    EXPECT_EQ(doc.at("ok").asUint64(), 1u);
    EXPECT_EQ(doc.at("failed").asUint64(), 1u);
    EXPECT_EQ(doc.at("in_flight").asUint64(), 1u);
    EXPECT_EQ(doc.at("pending").asUint64(), 1u);
    ASSERT_EQ(doc.at("failures").elements().size(), 1u);
    EXPECT_EQ(doc.at("failures").elements()[0].at("error").asString(),
              "boom");
}

TEST(FabricDashboard, InlinedSnapshotCannotCloseItsScriptBlock)
{
    // A failure's error is free text; a literal "</script>" in it must
    // not end the page's data block.
    const std::string json =
        "{\"failures\":[{\"error\":\"bad </script><b>x</b>\"}]}";
    TempDir dir("dash_escape");
    fabric::DashboardWriter writer(dir.path, [&] { return json; });
    writer.stop();
    EXPECT_EQ(readFile(dir.path + "/snapshot.json"), json);

    const std::string page = readFile(dir.path + "/dashboard.html");
    EXPECT_EQ(page.rfind("<!doctype html>", 0), 0u);
    EXPECT_NE(page.find("http-equiv=\"refresh\""), std::string::npos);
    const std::string open =
        "<script type=\"application/json\" id=\"snapshot\">";
    const std::size_t begin = page.find(open);
    ASSERT_NE(begin, std::string::npos);
    const std::size_t dataBegin = begin + open.size();
    const std::size_t end = page.find("</script>", dataBegin);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(page.substr(dataBegin, end - dataBegin),
              "{\"failures\":[{\"error\":\"bad \\u003c/script>"
              "\\u003cb>x\\u003c/b>\"}]}");
}

TEST(FabricDashboard, StopWritesFinalSnapshotAndLeavesNoTempFiles)
{
    std::mutex mutex;
    std::string state = "{\"phase\":\"running\"}";
    std::atomic<int> calls{0};
    TempDir dir("dash_final");
    fabric::DashboardWriter writer(dir.path, [&] {
        ++calls;
        std::lock_guard<std::mutex> lock(mutex);
        return state;
    });
    // The first write happens before the constructor returns.
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(readFile(dir.path + "/snapshot.json"), state);
    {
        std::lock_guard<std::mutex> lock(mutex);
        state = "{\"phase\":\"done\"}";
    }
    writer.stop();
    writer.stop(); // idempotent
    EXPECT_EQ(readFile(dir.path + "/snapshot.json"),
              "{\"phase\":\"done\"}");
    EXPECT_NE(readFile(dir.path + "/dashboard.html")
                  .find("{\"phase\":\"done\"}"),
              std::string::npos);
    EXPECT_EQ(listDir(dir.path),
              (std::set<std::string>{"dashboard.html", "snapshot.json"}));
}

TEST(FabricEndToEnd, TwoWorkersMatchSingleProcessByteForByte)
{
    const std::vector<ExperimentPoint> points = sweepPoints();

    ExperimentOptions reference;
    reference.jobs = 2;
    const std::string expected =
        emitJson(runExperiments(points, reference));

    TempDir dir("e2e");
    auto workerOpts = [&](const char *id) {
        ExperimentOptions opts;
        opts.jobs = 1;
        opts.fabricDir = dir.path;
        opts.fabricRole = ExperimentOptions::FabricRole::Worker;
        opts.fabricWorkerId = id;
        opts.fabricHeartbeatSec = 0.1;
        return opts;
    };
    std::string fromA, fromB;
    std::thread workerA([&] {
        fromA = emitJson(runExperiments(points, workerOpts("wA")));
    });
    std::thread workerB([&] {
        fromB = emitJson(runExperiments(points, workerOpts("wB")));
    });
    workerA.join();
    workerB.join();
    EXPECT_EQ(fromA, expected);
    EXPECT_EQ(fromB, expected);

    // The work was actually split: between them the workers claimed
    // every point exactly once (shards partition the digest set)...
    ShardScanner scanner(dir.path);
    scanner.poll();
    EXPECT_EQ(scanner.done().size(), points.size());

    // ...and a late coordinator merges the same bytes from the shards
    // alone, running nothing.
    ExperimentOptions coord;
    coord.fabricDir = dir.path;
    coord.fabricRole = ExperimentOptions::FabricRole::Coordinator;
    EXPECT_EQ(emitJson(runExperiments(points, coord)), expected);
}

TEST(FabricEndToEnd, DashboardInFabricDirLeavesMergeUnchanged)
{
    const std::vector<ExperimentPoint> points = sweepPoints();

    ExperimentOptions reference;
    reference.jobs = 2;
    const std::string expected =
        emitJson(runExperiments(points, reference));

    // The dashboard files live beside the claims and shards, rewritten
    // while two workers and a coordinator share the directory.
    TempDir dir("e2e_dash");
    fabric::DashboardWriter writer(dir.path, [&] {
        return fabric::buildDirSnapshotJson(dir.path, 30.0);
    });
    auto workerOpts = [&](const char *id) {
        ExperimentOptions opts;
        opts.jobs = 1;
        opts.fabricDir = dir.path;
        opts.fabricRole = ExperimentOptions::FabricRole::Worker;
        opts.fabricWorkerId = id;
        opts.fabricHeartbeatSec = 0.1;
        return opts;
    };
    std::string fromA, fromB;
    std::thread workerA([&] {
        fromA = emitJson(runExperiments(points, workerOpts("wA")));
    });
    std::thread workerB([&] {
        fromB = emitJson(runExperiments(points, workerOpts("wB")));
    });
    ExperimentOptions coord;
    coord.fabricDir = dir.path;
    coord.fabricRole = ExperimentOptions::FabricRole::Coordinator;
    const std::string fromCoord = emitJson(runExperiments(points, coord));
    workerA.join();
    workerB.join();
    writer.stop();
    EXPECT_EQ(fromA, expected);
    EXPECT_EQ(fromB, expected);
    EXPECT_EQ(fromCoord, expected);

    const stats::Json doc =
        stats::parseJson(readFile(dir.path + "/snapshot.json"));
    EXPECT_EQ(doc.at("points").asUint64(), points.size());
    EXPECT_EQ(doc.at("ok").asUint64(), points.size());
}

TEST(FabricEndToEnd, DeterministicFailuresMergeIdentically)
{
    std::vector<ExperimentPoint> points = sweepPoints();

    ExperimentOptions reference;
    reference.jobs = 2;
    reference.inject = {{1, FaultInjection::Kind::Throw}};
    const std::string expected =
        emitJson(runExperiments(points, reference));

    TempDir dir("e2e_fail");
    auto workerOpts = [&](const char *id) {
        ExperimentOptions opts;
        opts.jobs = 1;
        opts.fabricDir = dir.path;
        opts.fabricRole = ExperimentOptions::FabricRole::Worker;
        opts.fabricWorkerId = id;
        opts.fabricHeartbeatSec = 0.1;
        // Every worker injects the same deterministic fault, exactly
        // as every process of a real sweep shares TEMPO_FAULT_INJECT.
        opts.inject = {{1, FaultInjection::Kind::Throw}};
        return opts;
    };
    std::string fromA, fromB;
    std::thread workerA([&] {
        fromA = emitJson(runExperiments(points, workerOpts("wA")));
    });
    std::thread workerB([&] {
        fromB = emitJson(runExperiments(points, workerOpts("wB")));
    });
    workerA.join();
    workerB.join();
    // Failures ARE journaled in fabric shards (unlike the resume
    // journal), so the merged output carries the failure row and still
    // matches the single-process bytes.
    EXPECT_EQ(fromA, expected);
    EXPECT_EQ(fromB, expected);
    EXPECT_NE(expected.find("\"failed\""), std::string::npos);
}

TEST(FabricEndToEnd, RestartedWorkerReclaimsItsOwnStaleClaim)
{
    // A worker that died holding a claim and restarts under the same
    // id must not deadlock on its own stale claim.
    const std::vector<ExperimentPoint> points = sweepPoints();
    TempDir dir("restart");
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < points.size(); ++i)
        digests.push_back(pointDigest(points[i], i));
    ClaimDir claims(dir.path, "wA");
    ASSERT_TRUE(claims.tryClaim(digests[0]));
    ASSERT_TRUE(claims.tryClaim(digests[2]));

    ExperimentOptions opts;
    opts.jobs = 1;
    opts.fabricDir = dir.path;
    opts.fabricRole = ExperimentOptions::FabricRole::Worker;
    opts.fabricWorkerId = "wA";
    opts.fabricHeartbeatSec = 0.1;
    const std::vector<RunResult> results =
        runExperiments(points, opts);
    for (const RunResult &result : results)
        EXPECT_TRUE(result.status.ok());
}

ExperimentOptions
soloWorker(const std::string &dir, const char *id, unsigned jobs)
{
    ExperimentOptions opts;
    opts.jobs = jobs;
    opts.fabricDir = dir;
    opts.fabricRole = ExperimentOptions::FabricRole::Worker;
    opts.fabricWorkerId = id;
    opts.fabricHeartbeatSec = 0.1;
    return opts;
}

TEST(FabricEndToEnd, ClaimsOfAnExitedOwnerOnThisHostAreReclaimedAtOnce)
{
    // A default-id worker (w<pid>) killed and restarted comes back under
    // a new id; its old claims, with a heartbeat still fresh, must not
    // wait out the stale age.
    const std::vector<ExperimentPoint> points = sweepPoints();
    TempDir dir("exited_owner");
    ClaimDir claims(dir.path, "wDead");
    for (std::size_t i = 0; i < points.size(); i += 2)
        ASSERT_TRUE(claims.tryClaim(pointDigest(points[i], i)));
    fabric::writeFileAtomic(Heartbeat::path(dir.path, "wDead"),
                            thisHost() + " "
                                + std::to_string(exitedPid()) + "\n");

    ExperimentOptions opts = soloWorker(dir.path, "wNew", 1);
    opts.fabricStaleSec = 30;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<RunResult> results = runExperiments(points, opts);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    for (const RunResult &result : results)
        EXPECT_TRUE(result.status.ok());
    EXPECT_LT(secs, 10.0);
}

TEST(FabricWorker, OnPointDoneFiresForThePointsItRan)
{
    const std::vector<ExperimentPoint> points = sweepPoints();
    TempDir dir("on_point_done");
    std::mutex mutex;
    std::set<std::size_t> seen;
    std::size_t calls = 0;
    auto collect = [&](std::size_t index, const RunResult &result) {
        const std::lock_guard<std::mutex> lock(mutex);
        EXPECT_TRUE(result.status.ok());
        seen.insert(index);
        ++calls;
    };
    ExperimentOptions first = soloWorker(dir.path, "wA", 2);
    first.onPointDone = collect;
    runExperiments(points, first);
    EXPECT_EQ(calls, points.size());
    EXPECT_EQ(seen, (std::set<std::size_t>{0, 1, 2, 3}));

    // A worker joining the finished sweep runs nothing, so it reports
    // nothing.
    calls = 0;
    ExperimentOptions late = soloWorker(dir.path, "wB", 2);
    late.onPointDone = collect;
    runExperiments(points, late);
    EXPECT_EQ(calls, 0u);
}

TEST(FabricWorker, KeepsTracesOfThePointsItRan)
{
    std::vector<ExperimentPoint> points = sweepPoints();
    points.resize(2);
    TempDir dir("traces");
    obs::Config traced;
    traced.trace = true;
    traced.traceCapacity = 4096;
    obs::configure(traced);
    const std::vector<RunResult> ran =
        runExperiments(points, soloWorker(dir.path, "wA", 2));
    // A second run restores every point from the shard, which holds
    // no trace events.
    const std::vector<RunResult> restored =
        runExperiments(points, soloWorker(dir.path, "wA", 2));
    obs::configure(obs::Config{});
    for (const RunResult &result : ran) {
        ASSERT_TRUE(result.obs);
        EXPECT_TRUE(result.obs->cfg.trace);
        EXPECT_FALSE(result.obs->events.empty());
    }
    for (const RunResult &result : restored)
        EXPECT_TRUE(!result.obs || !result.obs->cfg.trace);
    EXPECT_EQ(emitJson(ran), emitJson(restored));
}

// EXPERIMENTS.md "Fabric sweeps": setting TEMPO_FABRIC_DIR opts a
// process in, and the role defaults to worker.
TEST(FabricEnv, DirectoryAloneOptsInAsWorker)
{
    TempDir dir("env_only");
    ::setenv("TEMPO_FABRIC_DIR", dir.path.c_str(), 1);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    ::unsetenv("TEMPO_FABRIC_DIR");
    EXPECT_EQ(opts.fabricDir, dir.path);
    EXPECT_TRUE(opts.fabricActive());

    // With no role chosen the sweep runs as a fabric worker: it
    // streams every point into the directory's shards.
    std::vector<ExperimentPoint> points = sweepPoints();
    points.resize(2);
    opts.jobs = 1;
    opts.fabricRole = ExperimentOptions::FabricRole::None;
    opts.fabricHeartbeatSec = 0.1;
    for (const RunResult &result : runExperiments(points, opts))
        EXPECT_TRUE(result.status.ok());
    ShardScanner scanner(dir.path);
    scanner.poll();
    EXPECT_EQ(scanner.done().size(), points.size());
}

} // namespace
} // namespace tempo
