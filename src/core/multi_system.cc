#include "core/multi_system.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "core/tempo_system.hh"

namespace tempo {

double
MultiResult::weightedSpeedup(const std::vector<Cycle> &alone) const
{
    // Tolerate ragged input (an alone-run that failed or was skipped
    // leaves a zero or a missing entry): such apps contribute 0 instead
    // of poisoning the sum with inf/NaN or tripping an assert.
    const std::size_t n = std::min(alone.size(), appFinish.size());
    double ws = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (alone[i] > 0 && appFinish[i] > 0) {
            ws += static_cast<double>(alone[i])
                / static_cast<double>(appFinish[i]);
        }
    }
    return ws;
}

double
MultiResult::maxSlowdown(const std::vector<Cycle> &alone) const
{
    const std::size_t n = std::min(alone.size(), appFinish.size());
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (alone[i] > 0 && appFinish[i] > 0) {
            worst = std::max(worst,
                             static_cast<double>(appFinish[i])
                                 / static_cast<double>(alone[i]));
        }
    }
    return worst;
}

MultiSystem::MultiSystem(const SystemConfig &cfg,
                         std::vector<std::unique_ptr<Workload>> workloads)
    : machine_(cfg)
{
    TEMPO_ASSERT(!workloads.empty(), "empty workload mix");
    AppId app = 0;
    for (auto &workload : workloads) {
        cores_.push_back(std::make_unique<SimCore>(machine_, app++,
                                                   std::move(workload)));
    }
}

MultiResult
MultiSystem::run(std::uint64_t refs_per_app,
                 std::uint64_t warmup_per_app)
{
    std::size_t warmed = 0;
    std::vector<Cycle> measure_from(cores_.size(), 0);
    if (warmup_per_app > 0) {
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            cores_[i]->setWarmupCallback(
                warmup_per_app, [this, i, &warmed, &measure_from] {
                    cores_[i]->resetStats();
                    measure_from[i] = machine_.eq.now();
                    if (++warmed == cores_.size()) {
                        machine_.mc.resetStats();
                        machine_.dram.resetStats();
                        machine_.llc.resetStats();
                    }
                });
        }
    }
    for (auto &core : cores_)
        core->start(refs_per_app + warmup_per_app);
    machine_.eq.runAll();

    MultiResult result;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        auto &core = cores_[i];
        TEMPO_ASSERT(core->done(), "core did not finish");
        result.appFinish.push_back(core->finishTime()
                                   - measure_from[i]);
        result.appStats.push_back(core->stats());
        result.runtime = std::max(result.runtime,
                                  result.appFinish.back());
    }
    result.energy =
        computeEnergy(machine_.config.energy, result.runtime,
                      machine_.dram, machine_.mcRequests(),
                      machine_.config.mc.tempoEnabled);
    return result;
}

std::vector<Cycle>
aloneRuntimes(const SystemConfig &cfg,
              const std::vector<std::string> &names,
              std::uint64_t refs_per_app, std::uint64_t warmup_per_app)
{
    // Each alone run is an independent simulation, so they execute
    // concurrently; results land by index, seeds stay per-workload
    // (same per-workload trace seed as makeMix() so the alone and
    // shared runs execute identical reference streams).
    std::vector<Cycle> alone(names.size());
    parallelFor(names.size(), 0, [&](std::size_t i) {
        TempoSystem system(cfg, makeWorkload(names[i], cfg.seed + 13 * i));
        alone[i] = system.run(refs_per_app, warmup_per_app).runtime;
    });
    return alone;
}

std::vector<std::unique_ptr<Workload>>
makeMix(const std::vector<std::string> &names, std::uint64_t seed)
{
    std::vector<std::unique_ptr<Workload>> mix;
    mix.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        mix.push_back(makeWorkload(names[i], seed + 13 * i));
    return mix;
}

} // namespace tempo
