/**
 * @file
 * Determinism-under-concurrency tests for the parallel experiment
 * engine: the same sweep run at 1, 2, and 8 threads must produce
 * identical per-point statistics, and the thread pool itself must
 * execute every task exactly once and propagate failures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "stats/json.hh"

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 8000;

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    constexpr std::size_t kTasks = 64;
    std::vector<std::atomic<int>> hits(kTasks);
    ThreadPool pool(4);
    for (std::size_t i = 0; i < kTasks; ++i)
        pool.submit([&hits, i] { ++hits[i]; });
    pool.wait();
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&] { ++count; });
    pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&completed, i] {
            if (i == 3)
                throw std::runtime_error("task 3 failed");
            ++completed;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The other tasks still ran to completion.
    EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPool, ParallelForWritesByIndex)
{
    constexpr std::size_t kN = 100;
    std::vector<std::size_t> out(kN, 0);
    parallelFor(kN, 8, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

TEST(ThreadPool, DefaultThreadsValidatesTempoJobs)
{
    // Only defaultThreads() runs while a value is set: no pool is built.
    const unsigned cores = ThreadPool::defaultThreads();
    ::setenv("TEMPO_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
    ::setenv("TEMPO_JOBS", "0", 1); // 0 keeps meaning "all cores"
    EXPECT_EQ(ThreadPool::defaultThreads(), cores);
    for (const char *bad : {"-1", "2x", "4294967296"}) {
        ::setenv("TEMPO_JOBS", bad, 1);
        try {
            (void)ThreadPool::defaultThreads();
            ADD_FAILURE() << "accepted TEMPO_JOBS=" << bad;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find("TEMPO_JOBS"),
                      std::string::npos);
        }
    }
    ::unsetenv("TEMPO_JOBS");
}

TEST(Experiment, DerivedSeedsDecorrelate)
{
    EXPECT_NE(derivedSeed(42, 0), derivedSeed(42, 1));
    EXPECT_NE(derivedSeed(42, 0), derivedSeed(43, 0));
    EXPECT_EQ(derivedSeed(42, 7), derivedSeed(42, 7));
}

/** An 8-point sweep mixing workloads and TEMPO on/off. */
std::vector<ExperimentPoint>
sweepPoints()
{
    std::vector<ExperimentPoint> points;
    const char *workloads[] = {"mcf", "xsbench", "canneal", "spmv"};
    for (const char *name : workloads) {
        for (const bool tempo : {false, true}) {
            ExperimentPoint p;
            p.workload = name;
            p.config = SystemConfig::skylakeScaled();
            p.config.withTempo(tempo);
            p.refs = kRefs;
            points.push_back(std::move(p));
        }
    }
    return points;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.core.refs, b.core.refs);
    EXPECT_EQ(a.core.walks, b.core.walks);
    EXPECT_EQ(a.core.ptDramAccesses, b.core.ptDramAccesses);
    EXPECT_EQ(a.core.leafPtDramAccesses, b.core.leafPtDramAccesses);
    EXPECT_EQ(a.core.replayAfterDramWalk, b.core.replayAfterDramWalk);
    EXPECT_EQ(a.core.replayLlcHits, b.core.replayLlcHits);
    EXPECT_EQ(a.dramPtw, b.dramPtw);
    EXPECT_EQ(a.dramReplay, b.dramReplay);
    EXPECT_EQ(a.dramOther, b.dramOther);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
    // The full report must match entry by entry, bit for bit.
    ASSERT_EQ(a.report.entries().size(), b.report.entries().size());
    for (std::size_t i = 0; i < a.report.entries().size(); ++i) {
        EXPECT_EQ(a.report.entries()[i].first,
                  b.report.entries()[i].first);
        EXPECT_EQ(a.report.entries()[i].second,
                  b.report.entries()[i].second)
            << a.report.entries()[i].first;
    }
}

TEST(Experiment, SweepIsDeterministicAcrossThreadCounts)
{
    const std::vector<RunResult> at1 = runExperiments(sweepPoints(), 1);
    const std::vector<RunResult> at2 = runExperiments(sweepPoints(), 2);
    const std::vector<RunResult> at8 = runExperiments(sweepPoints(), 8);
    ASSERT_EQ(at1.size(), 8u);
    ASSERT_EQ(at2.size(), 8u);
    ASSERT_EQ(at8.size(), 8u);
    for (std::size_t i = 0; i < at1.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(at1[i], at2[i]);
        expectIdentical(at1[i], at8[i]);
    }
}

TEST(Experiment, JsonEmissionIsByteIdenticalAcrossThreadCounts)
{
    auto emit = [](const std::vector<RunResult> &results) {
        std::vector<stats::BenchPoint> points;
        for (std::size_t i = 0; i < results.size(); ++i)
            points.push_back(toBenchPoint(
                "p" + std::to_string(i), {}, results[i]));
        return stats::benchJson("determinism", kRefs, 42, points)
            .dump();
    };
    const std::string at1 = emit(runExperiments(sweepPoints(), 1));
    const std::string at8 = emit(runExperiments(sweepPoints(), 8));
    EXPECT_EQ(at1, at8);
}

TEST(Experiment, MixPointsAreDeterministicAcrossThreadCounts)
{
    auto run = [](unsigned jobs) {
        std::vector<MixPoint> points;
        MixPoint mix;
        mix.workloads = {"mcf", "xsbench"};
        mix.config = SystemConfig::skylakeScaled();
        mix.refsPerApp = kRefs / 2;
        points.push_back(mix);
        mix.config.withTempo(true);
        points.push_back(mix);
        return runMixExperiments(points, jobs);
    };
    const std::vector<MultiResult> at1 = run(1);
    const std::vector<MultiResult> at8 = run(8);
    ASSERT_EQ(at1.size(), at8.size());
    for (std::size_t i = 0; i < at1.size(); ++i) {
        EXPECT_EQ(at1[i].runtime, at8[i].runtime);
        ASSERT_EQ(at1[i].appFinish.size(), at8[i].appFinish.size());
        for (std::size_t a = 0; a < at1[i].appFinish.size(); ++a)
            EXPECT_EQ(at1[i].appFinish[a], at8[i].appFinish[a]);
        EXPECT_DOUBLE_EQ(at1[i].energy.total(), at8[i].energy.total());
    }
}

TEST(Experiment, EngineMatchesDirectSerialRun)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    cfg.withTempo(true);
    const RunResult direct = runWorkload(cfg, "mcf", kRefs);

    ExperimentPoint p;
    p.workload = "mcf";
    p.config = cfg;
    p.refs = kRefs;
    const std::vector<RunResult> engine = runExperiments({p}, 4);
    ASSERT_EQ(engine.size(), 1u);
    expectIdentical(direct, engine[0]);
}

TEST(Experiment, ExplicitSeedZeroIsARealSeed)
{
    // Regression: seed 0 historically meant "unset" and silently fell
    // back to config.seed, making seed 0 unusable. With the optional
    // seed, nullopt selects config.seed and an explicit 0 seeds the
    // workload with 0.
    ExperimentPoint p;
    p.workload = "mcf";
    p.config = SystemConfig::skylakeScaled();
    p.config.seed = 12345;
    p.refs = kRefs;

    const RunResult fallback = runExperiments({p}, 2)[0];
    EXPECT_EQ(fallback.status.seedUsed, 12345u);

    p.seed = 0;
    const RunResult zero = runExperiments({p}, 2)[0];
    EXPECT_EQ(zero.status.seedUsed, 0u);

    // The explicit 0 reaches the workload generator: the run matches a
    // direct simulation whose workload is seeded 0 under the same
    // config (config.seed still feeds the prefetcher RNG etc.).
    TempoSystem direct(p.config, makeWorkload("mcf", 0));
    expectIdentical(direct.run(kRefs), zero);
}

TEST(Experiment, PropagatesBadWorkloadName)
{
    ExperimentPoint p;
    p.workload = "mcf";
    p.config = SystemConfig::skylakeScaled();
    p.refs = 100;
    p.makeWorkloadFn = []() -> std::unique_ptr<Workload> {
        throw std::invalid_argument("no such workload");
    };
    EXPECT_THROW(runExperiments({p}, 2), std::invalid_argument);
}

} // namespace
} // namespace tempo
