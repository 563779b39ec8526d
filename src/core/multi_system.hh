/**
 * @file
 * MultiSystem: multiprogrammed runs — N applications on N cores sharing
 * the LLC, memory controller, and DRAM — plus the weighted-speedup and
 * maximum-slowdown fairness metrics the paper uses for its BLISS and
 * sub-row experiments (Sec. 6.3/6.4).
 */

#ifndef TEMPO_CORE_MULTI_SYSTEM_HH
#define TEMPO_CORE_MULTI_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/energy.hh"
#include "core/machine.hh"
#include "core/run_status.hh"
#include "core/sim_core.hh"
#include "workloads/workload.hh"

namespace tempo {

/** Result of one multiprogrammed run. */
struct MultiResult {
    /** How the point ended (see RunResult::status). */
    RunStatus status;
    /** Cycle at which each app finished its reference quota. */
    std::vector<Cycle> appFinish;
    Cycle runtime = 0; //!< finish of the slowest app
    EnergyBreakdown energy;
    std::vector<CoreStats> appStats;

    /**
     * Weighted speedup versus per-app alone runtimes:
     * sum_i (t_alone_i / t_shared_i). Higher is better. Robust against
     * degenerate inputs rather than asserting: apps beyond the shorter
     * of the two vectors and apps with a zero (missing) runtime on
     * either side contribute nothing, so the result is always finite.
     */
    double weightedSpeedup(const std::vector<Cycle> &alone) const;

    /** Maximum slowdown: max_i (t_shared_i / t_alone_i). Lower is
     * better. Degenerate entries are skipped as in weightedSpeedup(). */
    double maxSlowdown(const std::vector<Cycle> &alone) const;
};

class MultiSystem
{
  public:
    MultiSystem(const SystemConfig &cfg,
                std::vector<std::unique_ptr<Workload>> workloads);

    /**
     * Every app executes @p refs_per_app measured references. With
     * @p warmup_per_app > 0, each core's statistics reset after its
     * own warmup quota, and the shared machine's statistics reset when
     * the LAST core crosses its warmup boundary (shared-resource stats
     * cannot be split per core earlier than that).
     */
    MultiResult run(std::uint64_t refs_per_app,
                    std::uint64_t warmup_per_app = 0);

    Machine &machine() { return machine_; }
    SimCore &core(std::size_t i) { return *cores_.at(i); }
    std::size_t numCores() const { return cores_.size(); }

  private:
    Machine machine_;
    std::vector<std::unique_ptr<SimCore>> cores_;
};

/**
 * Per-app alone runtimes for a mix: each workload runs by itself on the
 * same machine configuration (the denominator of the fairness metrics).
 */
std::vector<Cycle> aloneRuntimes(const SystemConfig &cfg,
                                 const std::vector<std::string> &names,
                                 std::uint64_t refs_per_app,
                                 std::uint64_t warmup_per_app = 0);

/** Build workload instances for a mix of names. */
std::vector<std::unique_ptr<Workload>>
makeMix(const std::vector<std::string> &names, std::uint64_t seed);

} // namespace tempo

#endif // TEMPO_CORE_MULTI_SYSTEM_HH
