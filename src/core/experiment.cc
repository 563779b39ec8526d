#include "core/experiment.hh"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/parse.hh"
#include "common/thread_pool.hh"
#include "common/watchdog.hh"
#include "fabric/coordinator.hh"
#include "fabric/snapshot.hh"

namespace tempo {

std::uint64_t
derivedSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

unsigned
defaultJobs()
{
    return ThreadPool::defaultThreads();
}

namespace {

/** Retry attempts reseed far away from the per-point index series so a
 * retried point never collides with another point's derived seed. */
constexpr std::uint64_t kRetrySalt = 0x7265747279ull; // "retry"

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&v);
    for (std::size_t i = 0; i < sizeof(v); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
mix(std::uint64_t h, const std::string &s)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return mix(h, s.size());
}

/** Honor a FaultInjection targeting @p index, if any. Runs inside the
 * barrier with the watchdog already armed. */
void
maybeInject(const ExperimentOptions &opts, std::size_t index)
{
    for (const FaultInjection &fault : opts.inject) {
        if (fault.index != index)
            continue;
        if (fault.kind == FaultInjection::Kind::Throw)
            throw std::runtime_error("injected fault");
        // Hang: burn wall-clock time while staying cancellable, the
        // shape of a real runaway point. Without an armed watchdog
        // this would hang the suite for real, so fail loudly instead.
        if (!watchdog::armed())
            throw std::runtime_error(
                "injected hang without --point-timeout");
        while (true) {
            watchdog::detail::slowPoll();
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
}

/**
 * The per-point exception barrier and retry loop, shared by single-app
 * and mix points. @p attempt runs one attempt from a seed and returns
 * a fully-populated result; Result must have a RunStatus `status`.
 */
template <typename Result, typename Attempt>
Result
runPointGuarded(const ExperimentOptions &opts, std::size_t index,
                std::uint64_t base_seed, std::uint64_t digest,
                Attempt &&attempt)
{
    Result result{};
    for (unsigned k = 0; k <= opts.retries; ++k) {
        const std::uint64_t seed =
            k == 0 ? base_seed : derivedSeed(base_seed, kRetrySalt + k);
        auto captureFailure = [&](RunStatus::Code code,
                                  const std::string &error) {
            // Failed attempts report a zeroed result, never a partial
            // one: the status carries everything a caller may use.
            result = Result{};
            result.status.code = code;
            result.status.error = error;
            result.status.attempts = k + 1;
            result.status.seedUsed = seed;
            result.status.digest = digest;
            result.status.exception = std::current_exception();
        };
        try {
            if (opts.pointTimeoutSec > 0)
                watchdog::arm(opts.pointTimeoutSec);
            maybeInject(opts, index);
            result = attempt(seed);
            watchdog::disarm();
            result.status = RunStatus{};
            result.status.attempts = k + 1;
            result.status.seedUsed = seed;
            result.status.digest = digest;
            return result;
        } catch (const watchdog::PointTimedOut &e) {
            watchdog::disarm();
            captureFailure(RunStatus::Code::TimedOut, e.what());
        } catch (const std::exception &e) {
            watchdog::disarm();
            captureFailure(RunStatus::Code::Failed, e.what());
        } catch (...) {
            watchdog::disarm();
            captureFailure(RunStatus::Code::Failed, "unknown exception");
        }
    }
    return result;
}

/** Rethrow the first (lowest-index) captured failure, for the legacy
 * entry points whose callers expect exceptions to propagate. */
template <typename Result>
void
rethrowFirstFailure(const std::vector<Result> &results)
{
    for (const Result &result : results) {
        if (result.status.ok())
            continue;
        if (result.status.exception)
            std::rethrow_exception(result.status.exception);
        throw std::runtime_error(result.status.error);
    }
}

} // namespace

std::uint64_t
pointDigest(const ExperimentPoint &point, std::size_t index)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    h = mix(h, point.workload);
    h = mix(h, point.refs);
    h = mix(h, point.warmup);
    h = mix(h, std::uint64_t(point.seed.has_value()));
    h = mix(h, point.seed.value_or(0));
    h = mix(h, point.config.digest());
    h = mix(h, std::uint64_t(index));
    return h;
}

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opts;
    if (const char *env = envValue("TEMPO_RETRIES"))
        opts.retries = parseUnsigned("TEMPO_RETRIES", env);
    if (const char *env = envValue("TEMPO_POINT_TIMEOUT"))
        opts.pointTimeoutSec = parseSeconds("TEMPO_POINT_TIMEOUT", env);
    if (const char *env = std::getenv("TEMPO_FABRIC_DIR"))
        opts.fabricDir = env;
    if (const char *env = std::getenv("TEMPO_FABRIC_ROLE")) {
        const std::string role = env;
        if (role == "worker")
            opts.fabricRole = FabricRole::Worker;
        else if (role == "coordinator")
            opts.fabricRole = FabricRole::Coordinator;
        else if (!role.empty())
            throw std::invalid_argument(
                "TEMPO_FABRIC_ROLE: expected worker or coordinator, "
                "got " + role);
    }
    if (const char *env = std::getenv("TEMPO_FABRIC_WORKER"))
        opts.fabricWorkerId = env;
    if (const char *env = envValue("TEMPO_FABRIC_STALE_SEC"))
        opts.fabricStaleSec = parseSeconds("TEMPO_FABRIC_STALE_SEC", env);
    if (const char *env = envValue("TEMPO_FABRIC_HEARTBEAT_SEC"))
        opts.fabricHeartbeatSec =
            parseSeconds("TEMPO_FABRIC_HEARTBEAT_SEC", env);
    if (const char *env = envValue("TEMPO_PROGRESS"))
        opts.progressEvery = parseUnsigned("TEMPO_PROGRESS", env);
    if (const char *env = std::getenv("TEMPO_FAULT_INJECT")) {
        // "<index>:throw,<index>:hang" — a test hook, so malformed
        // specs fail fast rather than silently injecting nothing.
        const std::string spec = env;
        std::size_t pos = 0;
        while (pos < spec.size()) {
            std::size_t end = spec.find(',', pos);
            if (end == std::string::npos)
                end = spec.size();
            const std::string token = spec.substr(pos, end - pos);
            const std::size_t colon = token.find(':');
            if (colon == std::string::npos)
                throw std::invalid_argument(
                    "TEMPO_FAULT_INJECT: bad token " + token);
            FaultInjection fault;
            fault.index = parseU64("TEMPO_FAULT_INJECT index",
                                   token.substr(0, colon));
            const std::string kind = token.substr(colon + 1);
            if (kind == "throw")
                fault.kind = FaultInjection::Kind::Throw;
            else if (kind == "hang")
                fault.kind = FaultInjection::Kind::Hang;
            else
                throw std::invalid_argument(
                    "TEMPO_FAULT_INJECT: unknown kind " + kind);
            opts.inject.push_back(fault);
            pos = end + 1;
        }
    }
    return opts;
}

void
useCheckpointDir(ExperimentOptions &opts, const std::string &dir)
{
    opts.fabricDir = dir;
    opts.fabricRole = ExperimentOptions::FabricRole::Worker;
    if (opts.fabricWorkerId.empty())
        opts.fabricWorkerId = kCheckpointWorker;
}

std::vector<RunResult>
runExperiments(const std::vector<ExperimentPoint> &points,
               const ExperimentOptions &opts)
{
    std::vector<std::uint64_t> digests(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        digests[i] = pointDigest(points[i], i);

    // One attempt of point i, behind the exception barrier — shared by
    // the in-process pool and the fabric worker loop.
    auto run_one = [&](std::size_t i) -> RunResult {
        const ExperimentPoint &point = points[i];
        const std::uint64_t base_seed =
            point.seed ? *point.seed : point.config.seed;
        return runPointGuarded<RunResult>(
            opts, i, base_seed, digests[i], [&](std::uint64_t seed) {
                auto workload = point.makeWorkloadFn
                    ? point.makeWorkloadFn()
                    : makeWorkload(point.workload, seed);
                TempoSystem system(point.config, std::move(workload));
                return system.run(point.refs, point.warmup);
            });
    };

    // Progress tracker: the caller's (tempo_sweep --dashboard), or an
    // internal one when only --progress / TEMPO_PROGRESS is set.
    fabric::SweepProgress local_progress;
    fabric::SweepProgress *progress = opts.progress
        ? opts.progress
        : (opts.progressEvery > 0 ? &local_progress : nullptr);
    if (progress)
        progress->configure(opts.progressLabel, points.size(),
                            opts.progressEvery);

    // Fabric execution (also `--checkpoint DIR`): claims, shard
    // streaming and the merge replace the in-process pool entirely.
    if (opts.fabricActive())
        return fabric::runFabric(opts, digests, run_one, progress);

    std::vector<RunResult> results(points.size());
    std::mutex done_mutex;
    parallelFor(points.size(), opts.jobs, [&](std::size_t i) {
        if (progress)
            progress->start(i);
        results[i] = run_one(i);
        const std::lock_guard<std::mutex> lock(done_mutex);
        if (progress)
            progress->done(i, results[i]);
        if (opts.onPointDone)
            opts.onPointDone(i, results[i]);
    });
    return results;
}

std::vector<RunResult>
runExperiments(const std::vector<ExperimentPoint> &points, unsigned jobs)
{
    ExperimentOptions opts;
    opts.jobs = jobs;
    std::vector<RunResult> results = runExperiments(points, opts);
    rethrowFirstFailure(results);
    return results;
}

std::vector<MultiResult>
runMixExperiments(const std::vector<MixPoint> &points,
                  const ExperimentOptions &opts)
{
    // Mixes are fault-isolated like single-app points but neither
    // join a fabric nor report onPointDone (the callback carries a
    // RunResult); see docs/MODEL.md.
    std::vector<MultiResult> results(points.size());
    parallelFor(points.size(), opts.jobs, [&](std::size_t i) {
        const MixPoint &point = points[i];
        results[i] = runPointGuarded<MultiResult>(
            opts, i, point.config.seed, /*digest=*/0,
            [&](std::uint64_t seed) {
                MultiSystem system(point.config,
                                   makeMix(point.workloads, seed));
                return system.run(point.refsPerApp, point.warmupPerApp);
            });
    });
    return results;
}

std::vector<MultiResult>
runMixExperiments(const std::vector<MixPoint> &points, unsigned jobs)
{
    ExperimentOptions opts;
    opts.jobs = jobs;
    std::vector<MultiResult> results = runMixExperiments(points, opts);
    rethrowFirstFailure(results);
    return results;
}

stats::BenchPoint
toBenchPoint(const std::string &workload,
             std::vector<std::pair<std::string, std::string>> config,
             const RunResult &result)
{
    stats::BenchPoint point;
    point.workload = workload;
    point.config = std::move(config);
    point.status = result.status.codeName();
    point.error = result.status.error;
    point.attempts = result.status.attempts;
    point.seedUsed = result.status.seedUsed;
    point.digest = result.status.digest;
    point.runtimeCycles = result.runtime;
    point.energy = {
        {"core_static", result.energy.coreStatic},
        {"dram_static", result.energy.dramStatic},
        {"dram_dynamic", result.energy.dramDynamic},
        {"mc_dynamic", result.energy.mcDynamic},
        {"total", result.energy.total()},
    };

    // Headline counters first (the golden-stats regression surface),
    // then the complete per-component report.
    const CoreStats &core = result.core;
    point.counters = {
        {"walks", static_cast<double>(core.walks)},
        {"leaf_pt_dram_accesses",
         static_cast<double>(core.leafPtDramAccesses)},
        {"replay_after_dram_walk",
         static_cast<double>(core.replayAfterDramWalk)},
        {"replay_llc_hit_rate",
         stats::ratio(core.replayLlcHits, core.replayAfterDramWalk)},
        {"dram_ptw", static_cast<double>(result.dramPtw)},
        {"dram_replay", static_cast<double>(result.dramReplay)},
        {"dram_other", static_cast<double>(result.dramOther)},
        {"superpage_coverage", result.superpageCoverage},
        {"coverage_2m", result.coverage2M},
        {"coverage_1g", result.coverage1G},
    };
    for (const auto &[name, value] : result.report.entries())
        point.counters.emplace_back("report." + name, value);

    if (result.obs && !result.obs->timeseries.empty()) {
        point.timeseriesWindow = result.obs->timeseries.windowCycles;
        point.timeseries = result.obs->timeseries.columns;
    }
    return point;
}

} // namespace tempo
