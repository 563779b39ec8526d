/**
 * Sweep checkpointing tests (`--checkpoint DIR`, a one-worker sweep
 * fabric): the RunResult JSON encoding must round-trip byte-exactly, a
 * shard record must restore by digest, a worker must cut the truncated
 * tail a mid-append kill leaves in its shard, and a resumed sweep must
 * reproduce an uninterrupted run's output byte for byte without
 * re-simulating recorded points, re-running only failures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "fabric/claim.hh"
#include "fabric/coordinator.hh"
#include "fabric/heartbeat.hh"

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 4000;

namespace fs = std::filesystem;

/** A scratch checkpoint directory removed on scope exit, and the shard
 * its one worker writes. */
struct TempDir {
    std::string path;
    std::string shard;
    explicit TempDir(const std::string &name)
        : path("checkpoint_test_" + name),
          shard(path + "/shard_" + kCheckpointWorker + ".jsonl")
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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

RunResult
sampleResult()
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    return runWorkload(cfg, "mcf", kRefs);
}

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

/** Keep the first @p lines lines of @p path, plus @p tail bytes of the
 * next one: the shape a kill after (or during) an append leaves. */
void
keepLines(const std::string &path, int lines, std::size_t tail = 0)
{
    const std::string bytes = slurp(path);
    std::size_t cut = 0;
    for (int i = 0; i < lines; ++i) {
        cut = bytes.find('\n', cut);
        ASSERT_NE(cut, std::string::npos);
        ++cut;
    }
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, cut + tail);
}

/** Records in a checkpoint directory's shards, by digest. */
std::map<std::uint64_t, RunResult>
records(const std::string &dir)
{
    fabric::ShardScanner scanner(dir);
    scanner.poll();
    return scanner.done();
}

/** Every line of @p path decodes as a whole record. */
bool
everyLineDecodes(const std::string &path)
{
    std::istringstream in(slurp(path));
    std::string line;
    while (std::getline(in, line)) {
        try {
            decodeJournalLine(line);
        } catch (const std::exception &) {
            return false;
        }
    }
    return in.eof();
}

/** Count workload constructions, i.e. actual simulations, through the
 * factory hook (it does not enter the point digest, so restores still
 * match). */
std::shared_ptr<std::atomic<int>>
countSimulations(std::vector<ExperimentPoint> &points)
{
    auto calls = std::make_shared<std::atomic<int>>(0);
    for (ExperimentPoint &p : points) {
        const std::string name = p.workload.front();
        p.makeWorkloadFn = [calls, name] {
            calls->fetch_add(1);
            return makeWorkload(name, 42);
        };
    }
    return calls;
}

ExperimentOptions
checkpointOptions(const TempDir &dir, unsigned jobs)
{
    ExperimentOptions opts;
    opts.jobs = jobs;
    useCheckpointDir(opts, dir.path);
    return opts;
}

/** Flatten a sweep to the full tempo-bench-1 document for byte
 * comparisons (status, failures array and all). */
std::string
emitJson(const std::vector<RunResult> &results)
{
    std::vector<stats::BenchPoint> points;
    for (std::size_t i = 0; i < results.size(); ++i)
        points.push_back(
            toBenchPoint("p" + std::to_string(i), {}, results[i]));
    return stats::benchJson("resume", kRefs, 42, points).dump();
}

TEST(Checkpoint, RunResultEncodingRoundTripsByteExactly)
{
    const RunResult original = sampleResult();
    const std::string encoded = encodeRunResult(original).dumpCompact();
    const RunResult decoded = decodeRunResult(stats::parseJson(encoded));
    // Every CoreStats counter and report entry survives: re-encoding
    // the decoded result reproduces the exact bytes.
    EXPECT_EQ(encodeRunResult(decoded).dumpCompact(), encoded);
    EXPECT_EQ(decoded.runtime, original.runtime);
    EXPECT_EQ(decoded.core().walks, original.core().walks);
    EXPECT_DOUBLE_EQ(decoded.energy.total(), original.energy.total());
    ASSERT_EQ(decoded.report.entries().size(),
              original.report.entries().size());
    for (std::size_t i = 0; i < original.report.entries().size(); ++i) {
        EXPECT_EQ(decoded.report.entries()[i].first,
                  original.report.entries()[i].first);
        EXPECT_EQ(decoded.report.entries()[i].second,
                  original.report.entries()[i].second);
    }
}

TEST(Checkpoint, MixRunResultRoundTripsEveryApp)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    System system(cfg, makeMix({"mcf", "astar.small"}, cfg.seed));
    const RunResult original = system.run(kRefs / 2);
    const std::string encoded = encodeRunResult(original).dumpCompact();
    const RunResult decoded = decodeRunResult(stats::parseJson(encoded));
    // Every app's finish and every per-app CoreStats counter survive.
    EXPECT_EQ(encodeRunResult(decoded).dumpCompact(), encoded);
    EXPECT_EQ(decoded.appFinish, original.appFinish);
    ASSERT_EQ(decoded.appStats.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE("app " + std::to_string(i));
        const CoreStats &a = original.appStats[i];
        const CoreStats &b = decoded.appStats[i];
        EXPECT_EQ(b.refs, a.refs);
        EXPECT_EQ(b.walks, a.walks);
        EXPECT_EQ(b.replayAfterDramWalk, a.replayAfterDramWalk);
        EXPECT_EQ(b.lastFinish, a.lastFinish);
        EXPECT_DOUBLE_EQ(b.cyclesTotal, a.cyclesTotal);
    }
    EXPECT_NE(original.appStats[0].walks, original.appStats[1].walks);
    EXPECT_EQ(decoded.report.entries(), original.report.entries());
}

/** A one-app record as shards have always stored it (mcf, 2,000 refs,
 * its report cut to two entries): one "core" object, no "apps". */
constexpr const char *kOneAppRecord =
    "{\"v\":1,\"digest\":\"0123456789abcdef\",\"attempts\":1,\"seed\":42,"
    "\"result\":{\"runtime\":221854,"
    "\"energy\":{\"core_static\":55740.8175,\"dram_static\":4437.08,"
    "\"dram_dynamic\":6521.4,\"mc_dynamic\":263.062},"
    "\"core\":{\"refs\":2000,\"page_faults\":488,\"walks\":543,"
    "\"pt_dram_accesses\":554,\"leaf_pt_dram_accesses\":412,"
    "\"walks_with_leaf_dram\":412,\"pt_dram_l0\":0,\"pt_dram_l1\":194,"
    "\"pt_dram_l2\":356,\"pt_dram_l3\":3,\"pt_dram_l4\":1,"
    "\"leaf_pt_l1_hits\":55,\"leaf_pt_l2_hits\":20,"
    "\"leaf_pt_llc_hits\":4,\"replay_dram_accesses\":167,"
    "\"regular_dram_accesses\":1457,\"replay_after_dram_walk\":412,"
    "\"replay_dram_after_dram_walk\":0,\"replay_llc_hits\":376,"
    "\"replay_private_hits\":0,\"replay_merged\":36,"
    "\"replay_row_hits\":0,\"replay_array\":0,\"pt_mshr_merges\":68,"
    "\"data_mshr_merges\":0,\"imp_issued\":0,\"stride_issued\":0,"
    "\"imp_dropped_inflight\":0,\"imp_faults\":0,\"tlb_prefetches\":0,"
    "\"cycles_ptw_dram\":90891,\"cycles_replay_dram\":30552,"
    "\"cycles_other_dram\":101441,\"cycles_total\":442645,"
    "\"last_finish\":221854},\"superpage_coverage\":0.6201117318435754,"
    "\"coverage_2m\":0.6201117318435754,\"coverage_1g\":0,"
    "\"dram_ptw\":554,\"dram_replay\":131,\"dram_other\":1457,"
    "\"report\":[[\"walks\",543],[\"mc.tempo.prefetches_issued\",412]]}}";

TEST(Checkpoint, OneAppRecordFormatIsUnchanged)
{
    const JournalRecord record = decodeJournalLine(kOneAppRecord);
    EXPECT_EQ(record.digest, 0x0123456789abcdefull);
    const RunResult &result = record.result;
    EXPECT_EQ(result.runtime, 221854u);
    EXPECT_EQ(result.appFinish, std::vector<Cycle>{221854});
    ASSERT_EQ(result.appStats.size(), 1u);
    EXPECT_EQ(result.core().walks, 543u);
    EXPECT_EQ(result.report.get("mc.tempo.prefetches_issued"), 412.0);
    // A one-app result still encodes to exactly these bytes, so shards
    // written before and after mixes joined the record resume alike.
    EXPECT_EQ(encodeJournalLine(record.digest, result), kOneAppRecord);
}

// Shard records and manifests on disk are keyed by FNV-1a digests of
// the config, the point and the point list. A changed hash would orphan
// every existing checkpoint directory, so the values are pinned.
TEST(Checkpoint, DigestsThatKeyFilesOnDiskArePinned)
{
    EXPECT_EQ(SystemConfig::skylakeScaled().digest(),
              0x8e0cf92c047aafbfull);

    ExperimentPoint mix;
    mix.workload = {"xsbench", "astar.small"};
    mix.config = SystemConfig::skylakeScaled();
    mix.config.withTempo(true);
    mix.refs = 10000;
    mix.warmup = 5000;
    mix.seed = 7;
    EXPECT_EQ(pointDigest(mix, 3), 0x0f28afe286670d22ull);

    ExperimentPoint one;
    one.workload = {"mcf"};
    one.config = SystemConfig::skylakeScaled();
    one.refs = 1000;
    EXPECT_EQ(pointDigest(one, 0), 0xe2077876daecefb0ull);

    EXPECT_EQ(fabric::manifestPath(
                  "d", {pointDigest(one, 0), pointDigest(mix, 3),
                        0xdeadbeefull}),
              "d/manifest_229abd1751bc05af.json");
}

TEST(Checkpoint, DecodeRejectsForeignSchema)
{
    EXPECT_THROW(decodeRunResult(stats::parseJson("{\"v\":99}")),
                 std::runtime_error);
}

TEST(Checkpoint, JournalRestoresByDigest)
{
    TempDir dir("restore");
    const RunResult result = sampleResult();
    AtomicAppendFile(dir.shard).appendLine(
        encodeJournalLine(0xabcdef12u, result));
    const std::map<std::uint64_t, RunResult> restored = records(dir.path);
    ASSERT_EQ(restored.size(), 1u);
    ASSERT_TRUE(restored.count(0xabcdef12u));
    const RunResult &out = restored.at(0xabcdef12u);
    EXPECT_EQ(encodeRunResult(out).dumpCompact(),
              encodeRunResult(result).dumpCompact());
    EXPECT_EQ(out.status.digest, 0xabcdef12u);
    EXPECT_TRUE(out.status.ok());
}

TEST(Checkpoint, TruncatedTailIsTolerated)
{
    TempDir dir("truncated");
    const RunResult result = sampleResult();
    {
        AtomicAppendFile shard(dir.shard);
        shard.appendLine(encodeJournalLine(1, result));
        shard.appendLine(encodeJournalLine(2, result));
    }
    // Chop into the middle of the second line: the shape a kill
    // mid-append leaves behind. Readers skip the unterminated tail...
    keepLines(dir.shard, 1, slurp(dir.shard).size() / 4);
    EXPECT_EQ(records(dir.path).size(), 1u);

    // ...and the worker that owns the shard cuts it before appending,
    // so its next record starts a line of its own.
    cutUnterminatedTail(dir.shard);
    AtomicAppendFile(dir.shard).appendLine(encodeJournalLine(3, result));
    const std::map<std::uint64_t, RunResult> after = records(dir.path);
    EXPECT_EQ(after.size(), 2u);
    EXPECT_TRUE(after.count(1));
    EXPECT_TRUE(after.count(3));
    EXPECT_TRUE(everyLineDecodes(dir.shard));
}

TEST(Checkpoint, ResumedSweepIsByteIdenticalAndSkipsJournaledPoints)
{
    TempDir dir("resume");
    std::vector<ExperimentPoint> points = sweepPoints();
    const auto calls = countSimulations(points);

    // jobs = 1: deterministic shard line order.
    const ExperimentOptions opts = checkpointOptions(dir, 1);
    const std::vector<RunResult> full = runExperiments(points, opts);
    EXPECT_EQ(calls->load(), 4);
    const std::string full_json = emitJson(full);

    // Interrupt after two completed points: keep the first two lines.
    keepLines(dir.shard, 2);

    calls->store(0);
    const std::vector<RunResult> resumed = runExperiments(points, opts);
    // Only the two missing points re-simulated...
    EXPECT_EQ(calls->load(), 2);
    // ...and the merged output is exactly the uninterrupted bytes.
    EXPECT_EQ(emitJson(resumed), full_json);
    // The shard is whole again: a third run simulates nothing.
    calls->store(0);
    EXPECT_EQ(emitJson(runExperiments(points, opts)), full_json);
    EXPECT_EQ(calls->load(), 0);
}

TEST(Checkpoint, FailuresAreNotJournaledAndReproduceOnResume)
{
    // A failure is recorded, but a failure record alone does not
    // finish a point for a later run: it runs again on resume.
    TempDir dir("failures");
    std::vector<ExperimentPoint> points = sweepPoints();
    const auto calls = countSimulations(points);
    auto okRecords = [&] {
        std::size_t ok = 0;
        for (const auto &[digest, result] : records(dir.path))
            ok += result.status.ok() ? 1 : 0;
        return ok;
    };

    ExperimentOptions opts = checkpointOptions(dir, 2);
    opts.inject = {{2, FaultInjection::Kind::Throw}};
    const std::vector<RunResult> first = runExperiments(points, opts);
    EXPECT_EQ(first[2].status.code, RunStatus::Code::Failed);
    EXPECT_EQ(okRecords(), 3u);

    // Resume with the fault still present: the failure reproduces and
    // the document matches byte for byte (the resume guarantee covers
    // the failures array too). The fault fires before the workload is
    // built, so no point simulates.
    calls->store(0);
    const std::vector<RunResult> resumed = runExperiments(points, opts);
    EXPECT_EQ(calls->load(), 0);
    EXPECT_EQ(resumed[2].status.code, RunStatus::Code::Failed);
    EXPECT_EQ(emitJson(resumed), emitJson(first));

    // Resume with the fault gone (a transient): the point finally
    // completes, and its ok record supersedes the failed ones.
    opts.inject.clear();
    const std::vector<RunResult> healed = runExperiments(points, opts);
    EXPECT_EQ(calls->load(), 1);
    EXPECT_TRUE(healed[2].status.ok());
    EXPECT_EQ(okRecords(), 4u);
    ExperimentOptions reference;
    reference.jobs = 2;
    EXPECT_EQ(emitJson(healed), emitJson(runExperiments(points, reference)));
}

TEST(Checkpoint, ConfigChangeIsRefused)
{
    // One directory serves one sweep: a changed sweep is refused with
    // the manifest error instead of piling stale records beside the
    // old ones (the tools print it and exit 2).
    TempDir dir("invalidate");
    std::vector<ExperimentPoint> points = sweepPoints();
    const ExperimentOptions opts = checkpointOptions(dir, 2);
    runExperiments(points, opts);

    for (ExperimentPoint &p : points)
        p.config.withTempo(true);
    try {
        runExperiments(points, opts);
        ADD_FAILURE() << "a changed sweep was accepted";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("different sweep"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_EQ(records(dir.path).size(), 4u);
}

TEST(Checkpoint, ConcurrentWritersNeverInterleaveLines)
{
    // Two appenders on one shard (two threads of one worker, or two
    // processes under one worker id) write at once. AtomicAppendFile's
    // single-write O_APPEND appends must keep every line whole: a
    // reload parses all of them.
    TempDir dir("concurrent");
    const RunResult result = sampleResult();
    constexpr int kPerWriter = 50;
    {
        AtomicAppendFile a(dir.shard);
        AtomicAppendFile b(dir.shard);
        std::thread ta([&] {
            for (int i = 0; i < kPerWriter; ++i)
                a.appendLine(encodeJournalLine(0x1000u + i, result));
        });
        std::thread tb([&] {
            for (int i = 0; i < kPerWriter; ++i)
                b.appendLine(encodeJournalLine(0x2000u + i, result));
        });
        ta.join();
        tb.join();
    }
    const std::map<std::uint64_t, RunResult> reloaded = records(dir.path);
    EXPECT_EQ(reloaded.size(), 2u * kPerWriter);
    for (int i = 0; i < kPerWriter; ++i) {
        EXPECT_TRUE(reloaded.count(0x1000u + i));
        EXPECT_TRUE(reloaded.count(0x2000u + i));
    }
    EXPECT_TRUE(everyLineDecodes(dir.shard));
}

TEST(Checkpoint, TruncatedTailRepairSurvivesConcurrentAppends)
{
    // A kill mid-append leaves a truncated tail; the restarted worker
    // cuts it, and its two threads' concurrent appends of the six
    // missing points still reload completely.
    TempDir dir("torn_concurrent");
    std::vector<ExperimentPoint> points = sweepPoints();
    for (std::size_t i = 0; i < 4; ++i) {
        ExperimentPoint p = points[i];
        p.config.withTempo(true);
        points.push_back(std::move(p));
    }
    const auto calls = countSimulations(points);
    const std::string full_json =
        emitJson(runExperiments(points, checkpointOptions(dir, 1)));

    keepLines(dir.shard, 2, 100); // two records and a torn third
    calls->store(0);
    const std::vector<RunResult> resumed =
        runExperiments(points, checkpointOptions(dir, 2));
    EXPECT_EQ(calls->load(), 6);
    EXPECT_EQ(emitJson(resumed), full_json);
    EXPECT_TRUE(everyLineDecodes(dir.shard));
    EXPECT_EQ(records(dir.path).size(), points.size());
}

TEST(Checkpoint, KilledRunResumesWithoutWaitingForStaleness)
{
    // A run killed mid-sweep leaves claims under the fixed checkpoint
    // worker id and a fresh heartbeat. Its restart reclaims them at
    // once instead of waiting fabricStaleSec (30 s) for the heartbeat
    // to age, and finishes with the uninterrupted bytes.
    TempDir dir("killed");
    const std::vector<ExperimentPoint> points = sweepPoints();
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < points.size(); ++i)
        digests.push_back(pointDigest(points[i], i));
    fabric::writeManifest(dir.path, "sweep", digests);
    const fabric::ClaimDir claims(dir.path, kCheckpointWorker);
    ASSERT_TRUE(claims.tryClaim(digests[0]));
    ASSERT_TRUE(claims.tryClaim(digests[2]));
    fabric::writeFileAtomic(
        fabric::Heartbeat::path(dir.path, kCheckpointWorker), "1\n");

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<RunResult> resumed =
        runExperiments(points, checkpointOptions(dir, 2));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    EXPECT_LT(seconds, 10.0);
    ExperimentOptions reference;
    reference.jobs = 2;
    EXPECT_EQ(emitJson(resumed), emitJson(runExperiments(points, reference)));
}

// Two processes on one checkpoint directory would each take the other's
// live claims for a dead predecessor's. A flock on checkpoint.lock
// refuses the second; the lock belongs to an open file, so a second
// open in this process stands in for a second process.
TEST(Checkpoint, DirInUseIsRefused)
{
    TempDir dir("in_use");
    const int held = ::open((dir.path + "/checkpoint.lock").c_str(),
                            O_RDWR | O_CREAT, 0644);
    ASSERT_GE(held, 0);
    ASSERT_EQ(::flock(held, LOCK_EX | LOCK_NB), 0);
    try {
        (void)runExperiments(sweepPoints(), checkpointOptions(dir, 1));
        ADD_FAILURE() << "ran in a checkpoint directory in use";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("checkpoint directory in use"),
                  std::string::npos)
            << error.what();
    }
    ::close(held);
    // The lock goes with its holder: the run now takes it and finishes.
    const std::vector<RunResult> results =
        runExperiments(sweepPoints(), checkpointOptions(dir, 1));
    EXPECT_TRUE(results.front().status.ok());
}

TEST(Checkpoint, FabricWorkerEnvOverridesTheFixedId)
{
    ::setenv("TEMPO_FABRIC_WORKER", "w7", 1);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    ::unsetenv("TEMPO_FABRIC_WORKER");
    opts.fabricRole = ExperimentOptions::FabricRole::Coordinator;
    useCheckpointDir(opts, "ck");
    EXPECT_EQ(opts.fabricDir, "ck");
    EXPECT_EQ(opts.fabricWorkerId, "w7");
    EXPECT_EQ(opts.fabricRole, ExperimentOptions::FabricRole::Worker);

    ExperimentOptions plain;
    useCheckpointDir(plain, "ck");
    EXPECT_EQ(plain.fabricWorkerId, kCheckpointWorker);
}

} // namespace
} // namespace tempo
