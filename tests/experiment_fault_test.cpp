/**
 * @file
 * Fault-isolation tests for the experiment engine: an injected throw
 * or hang must be captured into that point's RunStatus while every
 * other point completes bit-identically; retries must reseed and be
 * counted; the legacy entry points must still rethrow.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/experiment.hh"

namespace tempo {
namespace {

constexpr std::uint64_t kRefs = 4000;

std::vector<ExperimentPoint>
smallSweep(std::size_t n)
{
    std::vector<ExperimentPoint> points;
    const char *workloads[] = {"mcf", "xsbench", "canneal", "spmv"};
    for (std::size_t i = 0; i < n; ++i) {
        ExperimentPoint p;
        p.workload = workloads[i % std::size(workloads)];
        p.config = SystemConfig::skylakeScaled();
        p.config.withTempo(i % 2 == 1);
        p.refs = kRefs;
        points.push_back(std::move(p));
    }
    return points;
}

TEST(ExperimentFault, ThrowInjectionIsolatesThePoint)
{
    ExperimentOptions opts;
    opts.jobs = 4;
    opts.inject = {{1, FaultInjection::Kind::Throw}};
    const std::vector<RunResult> faulty =
        runExperiments(smallSweep(4), opts);
    const std::vector<RunResult> clean = runExperiments(smallSweep(4), 4);

    ASSERT_EQ(faulty.size(), 4u);
    EXPECT_EQ(faulty[1].status.code, RunStatus::Code::Failed);
    EXPECT_EQ(faulty[1].status.error, "injected fault");
    EXPECT_EQ(faulty[1].status.attempts, 1u);
    // A failed point reports zeroed measurements, never partial ones.
    EXPECT_EQ(faulty[1].runtime, 0u);
    EXPECT_TRUE(faulty[1].report.entries().empty());
    // Every other point is untouched, bit for bit.
    for (const std::size_t i : {0u, 2u, 3u}) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(faulty[i].status.ok());
        EXPECT_EQ(faulty[i].runtime, clean[i].runtime);
        EXPECT_EQ(faulty[i].core().refs, clean[i].core().refs);
        EXPECT_EQ(faulty[i].dramPtw, clean[i].dramPtw);
    }
}

TEST(ExperimentFault, HangInjectionTimesOutUnderWatchdog)
{
    ExperimentOptions opts;
    opts.jobs = 2;
    // The budget must also fit the healthy point on slow builds: under
    // ThreadSanitizer a 4,000-ref point takes about 0.3 s.
    opts.pointTimeoutSec = 1.0;
    opts.inject = {{0, FaultInjection::Kind::Hang}};
    const std::vector<RunResult> results =
        runExperiments(smallSweep(2), opts);
    EXPECT_EQ(results[0].status.code, RunStatus::Code::TimedOut);
    EXPECT_EQ(results[0].runtime, 0u);
    EXPECT_TRUE(results[1].status.ok());
}

TEST(ExperimentFault, HangWithoutTimeoutFailsLoudly)
{
    // A hang with no armed watchdog would stall the suite forever, so
    // the injector refuses it instead.
    ExperimentOptions opts;
    opts.jobs = 1;
    opts.inject = {{0, FaultInjection::Kind::Hang}};
    const std::vector<RunResult> results =
        runExperiments(smallSweep(1), opts);
    EXPECT_EQ(results[0].status.code, RunStatus::Code::Failed);
    EXPECT_NE(results[0].status.error.find("hang"), std::string::npos);
}

TEST(ExperimentFault, RetriesReseedAndAreCounted)
{
    // Deterministic failure: every attempt throws; all retries burn.
    ExperimentPoint p;
    p.workload = "always-fails";
    p.config = SystemConfig::skylakeScaled();
    p.refs = kRefs;
    p.makeWorkloadFn = []() -> std::unique_ptr<Workload> {
        throw std::runtime_error("boom");
    };
    ExperimentOptions opts;
    opts.jobs = 1;
    opts.retries = 2;
    const RunResult dead = runExperiments({p}, opts)[0];
    EXPECT_EQ(dead.status.code, RunStatus::Code::Failed);
    EXPECT_EQ(dead.status.attempts, 3u);
    EXPECT_EQ(dead.status.error, "boom");
    // The final attempt ran from a reseeded (decorrelated) seed.
    EXPECT_NE(dead.status.seedUsed, p.config.seed);

    // Transient failure: the first attempt throws, the retry succeeds.
    auto calls = std::make_shared<std::atomic<int>>(0);
    p.makeWorkloadFn = [calls]() -> std::unique_ptr<Workload> {
        if (calls->fetch_add(1) == 0)
            throw std::runtime_error("transient");
        return makeWorkload("mcf", 7);
    };
    const RunResult revived = runExperiments({p}, opts)[0];
    EXPECT_TRUE(revived.status.ok());
    EXPECT_EQ(revived.status.attempts, 2u);
    EXPECT_EQ(calls->load(), 2);
    EXPECT_GT(revived.runtime, 0u);
}

TEST(ExperimentFault, OnPointDoneSeesEveryPoint)
{
    ExperimentOptions opts;
    opts.jobs = 4;
    std::vector<int> seen(4, 0);
    int ok = 0;
    opts.onPointDone = [&](std::size_t i, const RunResult &result) {
        ++seen[i];
        if (result.status.ok())
            ++ok;
    };
    runExperiments(smallSweep(4), opts);
    for (const int count : seen)
        EXPECT_EQ(count, 1);
    EXPECT_EQ(ok, 4);
}

TEST(ExperimentFault, MixPointsAreIsolatedToo)
{
    std::vector<ExperimentPoint> points;
    ExperimentPoint mix;
    mix.workload = {"mcf", "xsbench"};
    mix.config = SystemConfig::skylakeScaled();
    mix.refs = kRefs / 2;
    points.push_back(mix);
    points.push_back(mix);

    ExperimentOptions opts;
    opts.jobs = 2;
    opts.inject = {{0, FaultInjection::Kind::Throw}};
    const std::vector<RunResult> results = runExperiments(points, opts);
    EXPECT_EQ(results[0].status.code, RunStatus::Code::Failed);
    EXPECT_TRUE(results[1].status.ok());
    EXPECT_GT(results[1].runtime, 0u);
}

TEST(ExperimentFault, LegacyOverloadStillRethrows)
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

TEST(ExperimentFault, OptionsFromEnvParsesKnobs)
{
    ::setenv("TEMPO_RETRIES", "3", 1);
    ::setenv("TEMPO_POINT_TIMEOUT", "2.5", 1);
    ::setenv("TEMPO_FAULT_INJECT", "1:throw,4:hang", 1);
    const ExperimentOptions opts = ExperimentOptions::fromEnv();
    EXPECT_EQ(opts.retries, 3u);
    EXPECT_DOUBLE_EQ(opts.pointTimeoutSec, 2.5);
    ASSERT_EQ(opts.inject.size(), 2u);
    EXPECT_EQ(opts.inject[0].index, 1u);
    EXPECT_EQ(opts.inject[0].kind, FaultInjection::Kind::Throw);
    EXPECT_EQ(opts.inject[1].index, 4u);
    EXPECT_EQ(opts.inject[1].kind, FaultInjection::Kind::Hang);

    ::setenv("TEMPO_FAULT_INJECT", "1:explode", 1);
    EXPECT_THROW(ExperimentOptions::fromEnv(), std::invalid_argument);

    ::unsetenv("TEMPO_RETRIES");
    ::unsetenv("TEMPO_POINT_TIMEOUT");
    ::unsetenv("TEMPO_FAULT_INJECT");
}

TEST(ExperimentFault, OptionsFromEnvRejectsMalformedNumbers)
{
    // Only fromEnv() runs while a value is set: no point is run.
    const std::pair<const char *, const char *> cases[] = {
        {"TEMPO_RETRIES", "-1"},
        {"TEMPO_RETRIES", "4294967296"},
        {"TEMPO_POINT_TIMEOUT", "-1"},
        {"TEMPO_POINT_TIMEOUT", "5s"},
        {"TEMPO_PROGRESS", "1x"},
        {"TEMPO_FABRIC_STALE_SEC", "abc"},
        {"TEMPO_FABRIC_HEARTBEAT_SEC", "-0.5"},
        {"TEMPO_FAULT_INJECT", "-1:throw"},
        {"TEMPO_FAULT_INJECT", "x:hang"},
    };
    for (const auto &[name, value] : cases) {
        ::setenv(name, value, 1);
        try {
            (void)ExperimentOptions::fromEnv();
            ADD_FAILURE() << "accepted " << name << "=" << value;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find(name),
                      std::string::npos)
                << error.what();
        }
        ::unsetenv(name);
    }
    // An empty value keeps the default.
    ::setenv("TEMPO_RETRIES", "", 1);
    EXPECT_EQ(ExperimentOptions::fromEnv().retries, 0u);
    ::unsetenv("TEMPO_RETRIES");
}

TEST(ExperimentFault, PointDigestIsStableAndDiscriminating)
{
    const std::vector<ExperimentPoint> points = smallSweep(2);
    EXPECT_EQ(pointDigest(points[0], 0), pointDigest(points[0], 0));
    EXPECT_NE(pointDigest(points[0], 0), pointDigest(points[1], 1));
    EXPECT_NE(pointDigest(points[0], 0), pointDigest(points[0], 1));
    // An explicit seed 0 hashes differently from no seed at all.
    ExperimentPoint seeded = points[0];
    seeded.seed = 0;
    EXPECT_NE(pointDigest(points[0], 0), pointDigest(seeded, 0));
}

} // namespace
} // namespace tempo
