/**
 * @file
 * System: the simulator facade. N >= 1 applications, one SimCore each,
 * share one Machine (LLC, memory controller, DRAM, OS memory); a
 * one-app run is simply N = 1. RunResult: everything a bench needs to
 * print one paper figure, including the per-app finish times of the
 * multiprogrammed BLISS and sub-row studies (Sec. 6.3/6.4) and their
 * weighted-speedup and maximum-slowdown fairness metrics.
 */

#ifndef TEMPO_CORE_SYSTEM_HH
#define TEMPO_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/energy.hh"
#include "core/machine.hh"
#include "core/run_status.hh"
#include "core/sim_core.hh"
#include "obs/obs.hh"
#include "workloads/workload.hh"

namespace tempo {

/** Everything measured by one run. */
struct RunResult {
    /** How the point ended. Results built outside the experiment
     * engine are always ok; engine results may carry a captured
     * failure, in which case every other field is zero or empty. */
    RunStatus status;

    Cycle runtime = 0; //!< finish of the slowest app
    EnergyBreakdown energy;
    /** Cycle at which each app finished its measured references. */
    std::vector<Cycle> appFinish;
    /** Each app's core statistics, in core order. */
    std::vector<CoreStats> appStats;

    // Page-size distribution of app 0 (paper Fig. 10 right / Fig. 13
    // x-axis); every app's is in its vm.* report keys.
    double superpageCoverage = 0;
    double coverage2M = 0;
    double coverage1G = 0;

    // DRAM reference counts (paper Fig. 4).
    std::uint64_t dramPtw = 0;
    std::uint64_t dramReplay = 0;
    std::uint64_t dramOther = 0;

    /** Every component's statistics: unprefixed per-core keys for one
     * app, "app<i>."-prefixed ones for several. */
    stats::Report report;

    /** Observability payload (trace events, time series); null unless
     * the run executed with observability enabled. */
    std::shared_ptr<obs::RunObs> obs;

    /** App 0's statistics (the only app of a one-app run); all zero
     * for a failed point. */
    const CoreStats &core() const;

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

/**
 * Weighted speedup of a mix versus its apps' alone runtimes:
 * sum_i (alone_i / finish_i). Higher is better. Robust against
 * degenerate inputs rather than asserting: apps beyond the shorter of
 * the two vectors and apps with a zero (missing) runtime on either side
 * contribute nothing, so the result is always finite.
 */
double weightedSpeedup(const std::vector<Cycle> &finish,
                       const std::vector<Cycle> &alone);

/** Maximum slowdown: max_i (finish_i / alone_i). Lower is better.
 * Degenerate entries are skipped as in weightedSpeedup(). */
double maxSlowdown(const std::vector<Cycle> &finish,
                   const std::vector<Cycle> &alone);

class System
{
  public:
    /** App i runs @p workloads[i] on core i. */
    System(const SystemConfig &cfg,
           std::vector<std::unique_ptr<Workload>> workloads);
    /** A one-app system. */
    System(const SystemConfig &cfg, std::unique_ptr<Workload> workload);

    /**
     * Every app executes @p refs_per_app measured references, and the
     * run ends when the last one finishes. With @p warmup_per_app > 0,
     * each core's statistics reset after its own warmup quota, and the
     * shared machine's (MC, DRAM, LLC, observability counters) when the
     * LAST core crosses its boundary: shared-resource statistics cannot
     * be split per core earlier than that. Architectural state (caches,
     * TLBs, page tables, row buffers) carries over, so the measured
     * window reflects steady-state behaviour.
     */
    RunResult run(std::uint64_t refs_per_app,
                  std::uint64_t warmup_per_app = 0);

    Machine &machine() { return machine_; }
    SimCore &core(std::size_t i = 0) { return *cores_.at(i); }
    std::size_t numCores() const { return cores_.size(); }

  private:
    /** Re-arm the periodic time-series sample event. */
    void scheduleObsSample(obs::Session *s, Cycle window);

    Machine machine_;
    std::vector<std::unique_ptr<SimCore>> cores_;
};

/** Convenience: run workload @p name under @p cfg for @p refs. */
RunResult runWorkload(const SystemConfig &cfg, const std::string &name,
                      std::uint64_t refs);

} // namespace tempo

#endif // TEMPO_CORE_SYSTEM_HH
