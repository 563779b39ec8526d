#include "core/tempo_system.hh"

#include "common/log.hh"
#include "common/profiler.hh"

namespace tempo {

double
RunResult::fracRuntimePtwDram() const
{
    return stats::ratio(core.cyclesPtwDram, core.cyclesTotal);
}

double
RunResult::fracRuntimeReplayDram() const
{
    return stats::ratio(core.cyclesReplayDram, core.cyclesTotal);
}

double
RunResult::fracRuntimeOtherDram() const
{
    return stats::ratio(core.cyclesOtherDram, core.cyclesTotal);
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

TempoSystem::TempoSystem(const SystemConfig &cfg,
                         std::unique_ptr<Workload> workload)
    : machine_(cfg), core_(machine_, 0, std::move(workload))
{
}

RunResult
TempoSystem::run(std::uint64_t num_refs, std::uint64_t warmup_refs)
{
    // One observability session spans the whole run (created only when
    // globally enabled; disabled runs pay one relaxed load per hook).
    obs::ScopedRun obs_run;

    Cycle measure_from = 0;
    if (warmup_refs > 0) {
        core_.setWarmupCallback(warmup_refs, [this, &measure_from] {
            measure_from = machine_.eq.now();
            core_.resetStats();
            if (auto *o = obs::session())
                o->resetCounters();
            machine_.mc.resetStats();
            machine_.dram.resetStats();
            machine_.llc.resetStats();
        });
    }
    const bool profiling = prof::enabled();
    if (profiling)
        prof::beginWindow();
    if (obs::Session *s = obs_run.session()) {
        const Cycle window = obs::config().timeseriesWindow;
        if (window > 0)
            scheduleObsSample(s, window);
    }
    core_.start(num_refs + warmup_refs);
    machine_.eq.runAll();
    prof::Totals prof_totals;
    if (profiling)
        prof_totals = prof::endWindow();
    TEMPO_ASSERT(core_.done(), "event queue drained before completion");

    RunResult result;
    result.core = core_.stats();
    result.runtime = result.core.lastFinish - measure_from;
    result.energy =
        computeEnergy(machine_.config.energy, result.runtime,
                      machine_.dram, machine_.mcRequests(),
                      machine_.config.mc.tempoEnabled);
    result.superpageCoverage =
        core_.addressSpace.superpageCoverage();
    result.coverage2M = core_.addressSpace.coverage2M();
    result.coverage1G = core_.addressSpace.coverage1G();

    result.dramPtw = machine_.mc.served(ReqKind::PtWalk);
    result.dramReplay = machine_.mc.served(ReqKind::Replay);
    result.dramOther = machine_.mc.served(ReqKind::Regular)
        + machine_.mc.served(ReqKind::ImpPrefetch)
        + machine_.mc.served(ReqKind::Writeback);

    result.core.report(result.report);
    // Engine-internal model stats (table hit rates, pending queues...)
    // ride under "prefetch.<name>.model." so they can never collide
    // with the core's "prefetch.<name>.issued"-style taxonomy keys.
    for (const Prefetcher *engine : core_.prefetchEngines()) {
        stats::Report engine_report;
        engine->report(engine_report);
        result.report.merge("prefetch." + engine->name() + ".model.",
                            engine_report);
    }
    stats::Report dram_report;
    machine_.dram.report(dram_report);
    result.report.merge("dram.", dram_report);
    stats::Report mc_report;
    machine_.mc.report(mc_report);
    result.report.merge("mc.", mc_report);
    stats::Report tlb_report;
    core_.tlb.report(tlb_report);
    result.report.merge("tlb.", tlb_report);
    stats::Report mmu_report;
    core_.mmu.report(mmu_report);
    result.report.merge("mmu.", mmu_report);
    stats::Report cache_report;
    core_.caches.report(cache_report);
    result.report.merge("cache.", cache_report);
    stats::Report vm_report;
    core_.addressSpace.report(vm_report);
    result.report.merge("vm.", vm_report);
    stats::Report os_report;
    machine_.os.report(os_report);
    result.report.merge("os.", os_report);
    stats::Report energy_report;
    result.energy.report(energy_report);
    result.report.merge("energy.", energy_report);

    if (obs_run.session()) {
        stats::Report obs_report;
        result.obs = obs_run.finish(obs_report);
        // Per-engine lifecycle taxonomy in the audit namespace. The
        // TEMPO engine's obs.prefetch_* counters are untouched — they
        // keep summing to mc.tempo.prefetches_issued.
        for (const auto &e : result.core.prefetchEngines) {
            const std::string prefix = "prefetch." + e.name + ".";
            obs_report.add(prefix + "issued", e.issued);
            obs_report.add(prefix + "useful", e.useful);
            obs_report.add(prefix + "late", e.late);
            obs_report.add(prefix + "useless", e.useless());
            obs_report.add(prefix + "dropped", e.dropped);
        }
        result.report.merge("obs.", obs_report);
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
        result.report.merge("profile.", prof_report);
    }

    return result;
}

void
TempoSystem::scheduleObsSample(obs::Session *s, Cycle window)
{
    machine_.eq.scheduleIn(window, [this, s, window] {
        s->timeseriesSample(machine_.eq.now(),
                            machine_.mc.queueOccupancy(),
                            machine_.mc.pendingPrefetchCount(),
                            core_.outstandingWalks(),
                            machine_.dram.rowHits(),
                            machine_.dram.accesses());
        if (!core_.done())
            scheduleObsSample(s, window);
    });
}

RunResult
runWorkload(const SystemConfig &cfg, const std::string &name,
            std::uint64_t refs)
{
    TempoSystem system(cfg, makeWorkload(name, cfg.seed));
    return system.run(refs);
}

} // namespace tempo
