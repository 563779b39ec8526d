/**
 * @file
 * TempoSystem: the single-application simulator facade used by most of
 * the paper's experiments, and RunResult: everything a bench needs to
 * print one paper figure.
 */

#ifndef TEMPO_CORE_TEMPO_SYSTEM_HH
#define TEMPO_CORE_TEMPO_SYSTEM_HH

#include <memory>

#include "core/energy.hh"
#include "core/machine.hh"
#include "core/run_status.hh"
#include "core/sim_core.hh"
#include "obs/obs.hh"
#include "workloads/workload.hh"

namespace tempo {

/** Everything measured by one single-app run. */
struct RunResult {
    /** How the point ended. Results built outside the experiment
     * engine are always ok; engine results may carry a captured
     * failure, in which case every other field is zero. */
    RunStatus status;

    Cycle runtime = 0;
    EnergyBreakdown energy;
    CoreStats core;

    // Page-size distribution (paper Fig. 10 right / Fig. 13 x-axis).
    double superpageCoverage = 0;
    double coverage2M = 0;
    double coverage1G = 0;

    // DRAM reference counts (paper Fig. 4).
    std::uint64_t dramPtw = 0;
    std::uint64_t dramReplay = 0;
    std::uint64_t dramOther = 0;

    stats::Report report;

    /** Observability payload (trace events, time series); null unless
     * the run executed with observability enabled. */
    std::shared_ptr<obs::RunObs> obs;

    /** Fig. 1 splits: category share of total reference cycles. */
    double fracRuntimePtwDram() const;
    double fracRuntimeReplayDram() const;
    double fracRuntimeOtherDram() const;

    /** Fig. 4 splits: category share of DRAM references. */
    double fracDramPtw() const;
    double fracDramReplay() const;
    double fracDramOther() const;

    /** Improvement of this run over @p baseline (runtime). Positive =
     * this run is faster. Matches the paper's "fraction of baseline
     * execution" metric. */
    double speedupOver(const RunResult &baseline) const;
    /** Same for energy. */
    double energySavingOver(const RunResult &baseline) const;
};

class TempoSystem
{
  public:
    TempoSystem(const SystemConfig &cfg,
                std::unique_ptr<Workload> workload);

    /**
     * Run @p num_refs measured references to completion and collect
     * results. When @p warmup_refs > 0, that many references execute
     * first with statistics discarded at the boundary (architectural
     * state — caches, TLBs, page tables, row buffers — carries over),
     * so the measured window reflects steady-state behaviour.
     */
    RunResult run(std::uint64_t num_refs, std::uint64_t warmup_refs = 0);

    Machine &machine() { return machine_; }
    SimCore &core() { return core_; }

  private:
    /** Re-arm the periodic time-series sample event. */
    void scheduleObsSample(obs::Session *s, Cycle window);

    Machine machine_;
    SimCore core_;
};

/** Convenience: run workload @p name under @p cfg for @p refs. */
RunResult runWorkload(const SystemConfig &cfg, const std::string &name,
                      std::uint64_t refs);

} // namespace tempo

#endif // TEMPO_CORE_TEMPO_SYSTEM_HH
