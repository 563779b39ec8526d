#include "core/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/profiler.hh"

namespace tempo {

namespace {

/** Append @p component's report to @p out under @p prefix. */
template <typename Component>
void
mergeReport(stats::Report &out, const std::string &prefix,
            const Component &component)
{
    stats::Report part;
    component.report(part);
    out.merge(prefix, part);
}

} // namespace

const CoreStats &
RunResult::core() const
{
    static const CoreStats zero;
    return appStats.empty() ? zero : appStats.front();
}

double
RunResult::fracRuntimePtwDram() const
{
    return stats::ratio(core().cyclesPtwDram, core().cyclesTotal);
}

double
RunResult::fracRuntimeReplayDram() const
{
    return stats::ratio(core().cyclesReplayDram, core().cyclesTotal);
}

double
RunResult::fracRuntimeOtherDram() const
{
    return stats::ratio(core().cyclesOtherDram, core().cyclesTotal);
}

double
RunResult::fracDramPtw() const
{
    return stats::ratio(dramPtw, dramPtw + dramReplay + dramOther);
}

double
RunResult::fracDramReplay() const
{
    return stats::ratio(dramReplay, dramPtw + dramReplay + dramOther);
}

double
RunResult::fracDramOther() const
{
    return stats::ratio(dramOther, dramPtw + dramReplay + dramOther);
}

double
RunResult::speedupOver(const RunResult &baseline) const
{
    if (baseline.runtime == 0)
        return 0;
    return 1.0
        - static_cast<double>(runtime)
        / static_cast<double>(baseline.runtime);
}

double
RunResult::energySavingOver(const RunResult &baseline) const
{
    if (baseline.energy.total() == 0)
        return 0;
    return 1.0 - energy.total() / baseline.energy.total();
}

double
weightedSpeedup(const std::vector<Cycle> &finish,
                const std::vector<Cycle> &alone)
{
    // Tolerate ragged input (an alone-run that failed or was skipped
    // leaves a zero or a missing entry): such apps contribute 0 instead
    // of poisoning the sum with inf/NaN or tripping an assert.
    const std::size_t n = std::min(alone.size(), finish.size());
    double ws = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (alone[i] > 0 && finish[i] > 0) {
            ws += static_cast<double>(alone[i])
                / static_cast<double>(finish[i]);
        }
    }
    return ws;
}

double
maxSlowdown(const std::vector<Cycle> &finish, const std::vector<Cycle> &alone)
{
    const std::size_t n = std::min(alone.size(), finish.size());
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (alone[i] > 0 && finish[i] > 0) {
            worst = std::max(worst,
                             static_cast<double>(finish[i])
                                 / static_cast<double>(alone[i]));
        }
    }
    return worst;
}

System::System(const SystemConfig &cfg,
               std::vector<std::unique_ptr<Workload>> workloads)
    : machine_(cfg)
{
    TEMPO_ASSERT(!workloads.empty(), "empty workload mix");
    cores_.reserve(workloads.size());
    AppId app = 0;
    for (auto &workload : workloads) {
        cores_.push_back(std::make_unique<SimCore>(machine_, app++,
                                                   std::move(workload)));
    }
}

System::System(const SystemConfig &cfg, std::unique_ptr<Workload> workload)
    : machine_(cfg)
{
    cores_.push_back(std::make_unique<SimCore>(machine_, 0,
                                               std::move(workload)));
}

RunResult
System::run(std::uint64_t refs_per_app, std::uint64_t warmup_per_app)
{
    // One observability session spans the whole run (created only when
    // globally enabled; disabled runs pay one relaxed load per hook).
    obs::ScopedRun obs_run;

    const std::size_t n = cores_.size();
    std::vector<Cycle> measure_from(n, 0);
    std::size_t warmed = 0;
    if (warmup_per_app > 0) {
        if (obs::Session *s = obs_run.session())
            s->warmUp(n);
        for (std::size_t i = 0; i < n; ++i) {
            cores_[i]->setWarmupCallback(
                warmup_per_app, [this, i, &warmed, &measure_from] {
                    measure_from[i] = machine_.eq.now();
                    cores_[i]->resetStats();
                    // Walk and replay audits follow each app's window;
                    // the rest follows the machine's (the last app's).
                    obs::Session *o = obs::session();
                    if (o)
                        o->startMeasuring(static_cast<AppId>(i));
                    if (++warmed < cores_.size())
                        return;
                    if (o)
                        o->resetCounters();
                    machine_.mc.resetStats();
                    machine_.dram.resetStats();
                    machine_.llc.resetStats();
                });
        }
    }
    // A caller that holds a profile window of its own reads the totals
    // itself; the run then leaves that window open.
    const bool profiling = prof::enabled() && !prof::windowOpen();
    if (profiling)
        prof::beginWindow();
    if (obs::Session *s = obs_run.session()) {
        const Cycle window = obs::config().timeseriesWindow;
        if (window > 0)
            scheduleObsSample(s, window);
    }
    for (auto &core : cores_)
        core->start(refs_per_app + warmup_per_app);
    machine_.eq.runAll();
    prof::Totals prof_totals;
    if (profiling)
        prof_totals = prof::endWindow();

    RunResult result;
    for (std::size_t i = 0; i < n; ++i) {
        const SimCore &core = *cores_[i];
        TEMPO_ASSERT(core.done(), "event queue drained before completion");
        result.appFinish.push_back(core.finishTime() - measure_from[i]);
        result.appStats.push_back(core.stats());
        result.runtime = std::max(result.runtime, result.appFinish.back());
    }
    result.energy =
        computeEnergy(machine_.config.energy, result.runtime,
                      machine_.dram, machine_.mcRequests(),
                      machine_.config.mc.tempoEnabled);
    const AddressSpace &space = cores_.front()->addressSpace;
    result.superpageCoverage = space.superpageCoverage();
    result.coverage2M = space.coverage2M();
    result.coverage1G = space.coverage1G();

    result.dramPtw = machine_.mc.served(ReqKind::PtWalk);
    result.dramReplay = machine_.mc.served(ReqKind::Replay);
    result.dramOther = machine_.mc.served(ReqKind::Regular)
        + machine_.mc.served(ReqKind::ImpPrefetch)
        + machine_.mc.served(ReqKind::Writeback);

    // Per-core keys carry an "app<i>." prefix only in a mix; a one-app
    // report's keys are unprefixed.
    std::vector<std::string> prefix(n);
    for (std::size_t i = 0; n > 1 && i < n; ++i)
        prefix[i] = "app" + std::to_string(i) + ".";
    stats::Report &report = result.report;
    for (std::size_t i = 0; i < n; ++i) {
        if (n > 1)
            report.add(prefix[i] + "finish", result.appFinish[i]);
        mergeReport(report, prefix[i], result.appStats[i]);
        // Engine-internal model stats (table hit rates, pending
        // queues...) ride under "prefetch.<name>.model." so they can
        // never collide with the core's "prefetch.<name>.issued"-style
        // taxonomy keys.
        for (const Prefetcher *engine : cores_[i]->prefetchEngines())
            mergeReport(report,
                        prefix[i] + "prefetch." + engine->name() + ".model.",
                        *engine);
    }
    mergeReport(report, "dram.", machine_.dram);
    mergeReport(report, "mc.", machine_.mc);
    for (std::size_t i = 0; i < n; ++i) {
        const SimCore &core = *cores_[i];
        mergeReport(report, prefix[i] + "tlb.", core.tlb);
        mergeReport(report, prefix[i] + "mmu.", core.mmu);
        mergeReport(report, prefix[i] + "cache.", core.caches);
        mergeReport(report, prefix[i] + "vm.", core.addressSpace);
    }
    mergeReport(report, "os.", machine_.os);
    mergeReport(report, "energy.", result.energy);

    if (obs_run.session()) {
        stats::Report obs_report;
        result.obs = obs_run.finish(obs_report);
        report.merge("obs.", obs_report);
    }

    if (profiling) {
        // Wall-clock attribution: nondeterministic, so only emitted when
        // --profile explicitly asked for it (keeps goldens byte-stable).
        stats::Report prof_report;
        std::uint64_t total_ns = 0;
        for (std::size_t i = 0; i < prof::kNumComponents; ++i) {
            const auto c = static_cast<prof::Component>(i);
            const std::string name = prof::componentName(c);
            prof_report.add(name + "_ms",
                            static_cast<double>(prof_totals.ns[i]) / 1e6);
            prof_report.add(name + "_calls", prof_totals.calls[i]);
            total_ns += prof_totals.ns[i];
        }
        prof_report.add("total_ms", static_cast<double>(total_ns) / 1e6);
        prof_report.add("events_executed", machine_.eq.executed());
        report.merge("profile.", prof_report);
    }

    return result;
}

void
System::scheduleObsSample(obs::Session *s, Cycle window)
{
    machine_.eq.scheduleIn(window, [this, s, window] {
        std::uint64_t walks = 0;
        bool running = false;
        for (const auto &core : cores_) {
            walks += core->outstandingWalks();
            running |= !core->done();
        }
        s->timeseriesSample(machine_.eq.now(),
                            machine_.mc.queueOccupancy(),
                            machine_.mc.pendingPrefetchCount(),
                            walks, machine_.dram.rowHits(),
                            machine_.dram.accesses());
        if (running)
            scheduleObsSample(s, window);
    });
}

RunResult
runWorkload(const SystemConfig &cfg, const std::string &name,
            std::uint64_t refs)
{
    System system(cfg, makeWorkload(name, cfg.seed));
    return system.run(refs);
}

} // namespace tempo
