#include "core/experiment.hh"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

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

/** One attempt of @p point: build its System from @p seed and run it. */
RunResult
runAttempt(const ExperimentPoint &point, std::uint64_t seed)
{
    std::vector<std::unique_ptr<Workload>> apps;
    if (point.makeWorkloadFn)
        apps.push_back(point.makeWorkloadFn());
    else
        apps = makeMix(point.workload, seed);
    System system(point.config, std::move(apps));
    return system.run(point.refs, point.warmup);
}

/** Point @p index behind the per-point exception barrier and retry
 * loop. */
RunResult
runPointGuarded(const ExperimentOptions &opts, std::size_t index,
                const ExperimentPoint &point, std::uint64_t digest)
{
    const std::uint64_t base_seed = point.seed.value_or(point.config.seed);
    RunResult result;
    for (unsigned k = 0; k <= opts.retries; ++k) {
        const std::uint64_t seed =
            k == 0 ? base_seed : derivedSeed(base_seed, kRetrySalt + k);
        auto captureFailure = [&](RunStatus::Code code,
                                  const std::string &error) {
            // Failed attempts report a zeroed result, never a partial
            // one: the status carries everything a caller may use.
            result = RunResult{};
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
            result = runAttempt(point, seed);
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
 * entry point whose callers expect exceptions to propagate. */
void
rethrowFirstFailure(const std::vector<RunResult> &results)
{
    for (const RunResult &result : results) {
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
    for (const std::string &name : point.workload)
        h = mix(h, name);
    h = mix(h, point.refs);
    h = mix(h, point.warmup);
    h = mix(h, std::uint64_t(point.seed.has_value()));
    h = mix(h, point.seed.value_or(0));
    h = mix(h, point.config.digest());
    h = mix(h, std::uint64_t(index));
    return h;
}

std::vector<std::unique_ptr<Workload>>
makeMix(const std::vector<std::string> &names, std::uint64_t seed)
{
    std::vector<std::unique_ptr<Workload>> mix;
    mix.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        mix.push_back(makeWorkload(names[i], appSeed(seed, i)));
    return mix;
}

std::vector<ExperimentPoint>
alonePoints(const ExperimentPoint &mix)
{
    const std::uint64_t seed = mix.seed.value_or(mix.config.seed);
    std::vector<ExperimentPoint> points;
    for (std::size_t i = 0; i < mix.workload.size(); ++i) {
        ExperimentPoint &point = points.emplace_back();
        point.workload = mix.workload[i];
        point.config = mix.config;
        point.refs = mix.refs;
        point.warmup = mix.warmup;
        point.seed = appSeed(seed, i);
    }
    return points;
}

std::vector<Cycle>
aloneRuntimes(const ExperimentPoint &mix)
{
    std::vector<Cycle> alone;
    for (const RunResult &result : runExperiments(alonePoints(mix)))
        alone.push_back(result.runtime);
    return alone;
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
    auto run_one = [&](std::size_t i) {
        return runPointGuarded(opts, i, points[i], digests[i]);
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
    const CoreStats &core = result.core();
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
