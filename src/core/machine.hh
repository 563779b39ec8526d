/**
 * @file
 * The shared half of a simulated machine: one event queue, one DRAM
 * device, one memory controller, one shared LLC, and one OS physical
 * memory pool. SimCores (one per application) plug into it.
 */

#ifndef TEMPO_CORE_MACHINE_HH
#define TEMPO_CORE_MACHINE_HH

#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "core/config.hh"
#include "dram/dram.hh"
#include "mc/memory_controller.hh"
#include "vm/os_memory.hh"

namespace tempo {

class Machine
{
  public:
    explicit Machine(const SystemConfig &cfg)
        : config(cfg), dram(cfg.dram), mc(eq, dram, cfg.mc),
          llc(cfg.caches.llc, cfg.cache), os(cfg.os)
    {
        // TEMPO's LLC prefetch port: prefetched replay lines land in the
        // shared LLC (paper Sec. 3). A dirty victim becomes a DRAM
        // writeback.
        mc.onTempoPrefetchFill = [this](Addr paddr, AppId app) {
            const Addr writeback = llc.prefetchFill(paddr);
            if (writeback != kInvalidAddr)
                submitWriteback(writeback, app);
        };
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const SystemConfig config;
    EventQueue eq;
    DramDevice dram;
    MemoryController mc;
    SharedLlc llc;
    OsMemory os;

    /** Queue a fire-and-forget writeback of a dirty evicted line. */
    void
    submitWriteback(Addr line, AppId app)
    {
        MemRequest req;
        req.paddr = lineAddr(line);
        req.isWrite = true;
        req.kind = ReqKind::Writeback;
        req.app = app;
        mc.submit(std::move(req));
    }

    /** Total requests the MC serviced (for the energy model). */
    std::uint64_t
    mcRequests() const
    {
        std::uint64_t total = 0;
        for (ReqKind kind :
             {ReqKind::Regular, ReqKind::Replay, ReqKind::PtWalk,
              ReqKind::TempoPrefetch, ReqKind::ImpPrefetch,
              ReqKind::Writeback}) {
            total += mc.served(kind);
        }
        return total;
    }
};

} // namespace tempo

#endif // TEMPO_CORE_MACHINE_HH
