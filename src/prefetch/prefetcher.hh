/**
 * @file
 * The pluggable prefetcher interface behind src/prefetch/.
 *
 * Every core-side prefetch engine — the classical stride table, the IMP
 * indirect model, and the newer timing-aware (T-SKID), metadata-managed
 * (MISB) and temporal (Triangel-style) engines — implements the same
 * observe/drain/report lifecycle:
 *
 *  - observe(): called once per demand reference, before the TLB
 *    lookup. The engine trains on the reference and APPENDS any
 *    prefetch actions it wants issued now.
 *  - drain(): called right after observe() with the current cycle; an
 *    engine that holds prefetches back (T-SKID) releases the ones whose
 *    time has come. Engines with no timing state use the default no-op.
 *    Drain granularity is per-observe, not per-cycle — a deliberate
 *    simplification (docs/MODEL.md "Prefetcher zoo"): a held prefetch
 *    is released at the first reference at-or-after its release time.
 *  - report(): engine-internal statistics, merged into the run report
 *    under "prefetch.<name>.model." when an explicit engine list is
 *    configured.
 *
 * Engines never touch the memory system directly: they emit
 * PrefetchActions and SimCore translates/dispatches them through the
 * same TLB/walker/cache path demand references use (which is why
 * aggressive prefetching thrashes the TLB and why TEMPO composes with
 * it, paper Sec. 4.2). Actions come in two kinds:
 *
 *  - Data: prefetch the line holding this virtual address.
 *  - Metadata: an off-chip metadata fetch (MISB's backing store),
 *    modeled as an extra uncached DRAM read — bandwidth cost, no fill.
 */

#ifndef TEMPO_PREFETCH_PREFETCHER_HH
#define TEMPO_PREFETCH_PREFETCHER_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"
#include "workloads/workload.hh"

namespace tempo {

/** What a prefetch engine asks the core to do. */
struct PrefetchAction {
    enum class Kind : std::uint8_t {
        Data,     //!< prefetch the line at this virtual address
        Metadata, //!< off-chip metadata fetch keyed by this address
    };
    Kind kind = Kind::Data;
    Addr addr = 0;

    static PrefetchAction
    data(Addr vaddr)
    {
        return PrefetchAction{Kind::Data, vaddr};
    }

    static PrefetchAction
    metadata(Addr key)
    {
        return PrefetchAction{Kind::Metadata, key};
    }
};

/** Abstract core-side prefetch engine (see file comment for the
 * lifecycle contract). */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Registry name ("stride", "imp", "tskid", "misb", "temporal");
     * keys the per-engine config section and the report/obs stats. */
    virtual const std::string &name() const = 0;

    /** Train on one demand reference and APPEND prefetch actions to
     * @p out (never clear it — the core batches engines). */
    virtual void observe(const MemRef &ref, Cycle now,
                         std::vector<PrefetchAction> &out) = 0;

    /** Release time-gated prefetches due at @p now (default: none). */
    virtual void
    drain(Cycle now, std::vector<PrefetchAction> &out)
    {
        (void)now;
        (void)out;
    }

    /** Engine-internal statistics (training state, model counters). */
    virtual void report(stats::Report &out) const = 0;
};

/**
 * Engine selection: the registry builds the named engines in list
 * order, which is also their dispatch order, and the report carries
 * each engine's "prefetch.<name>.*" taxonomy keys. Empty means no core
 * prefetcher.
 */
struct PrefetchConfig {
    std::vector<std::string> engines;
};

} // namespace tempo

#endif // TEMPO_PREFETCH_PREFETCHER_HH
