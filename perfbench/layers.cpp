/**
 * @file
 * Per-layer replay: record what each simulator layer is asked during a
 * functional pass over a point's reference streams, then time each
 * layer's public calls on fresh instances, from outside src/.
 */

#include <chrono>
#include <stdexcept>

#include "cache/hierarchy.hh"
#include "common/event_queue.hh"
#include "dram/dram.hh"
#include "ledger.hh"
#include "mc/memory_controller.hh"
#include "vm/address_space.hh"
#include "vm/mmu_cache.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"
#include "workloads/workload.hh"

namespace perfbench {

using namespace tempo;

const char *
layerMetric(Layer layer)
{
    switch (layer) {
      case Layer::Next: return "workloads.next_ns";
      case Layer::Translate: return "vm.translate_ns";
      case Layer::Tlb: return "vm.tlb_ns";
      case Layer::Walk: return "vm.walk_ns";
      case Layer::Cache: return "cache.access_ns";
      case Layer::Mc: return "mc.request_ns";
      case Layer::Dram: return "dram.access_ns";
      case Layer::Event: return "event_queue.event_ns";
    }
    return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps replay results observable so no timed call is optimized out. */
volatile std::uint64_t g_sink = 0;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Dispatch cost of one DRAM burst, used to pace the DRAM replay. */
constexpr Cycle kBurstCycles = 4;

/** A self-rescheduling event: the event-queue replay keeps one chain
 * per in-flight reference, each hop delayed by the next recorded
 * reference latency. */
struct Chain {
    EventQueue *eq;
    const std::vector<Cycle> *delays;
    std::size_t *next;
    std::uint64_t *left;

    void
    operator()() const
    {
        if (*left == 0)
            return;
        --*left;
        const Cycle delay = (*delays)[(*next)++ % delays->size()];
        eq->scheduleIn(delay, *this);
    }
};

} // namespace

struct LayerReplay::State {
    struct AppStream {
        App app;
        std::unique_ptr<AddressSpace> space; //!< populated page table
        std::vector<Addr> vaddrs;            //!< every reference
        std::vector<PageSize> sizes;         //!< its page size
        std::vector<Addr> walkVaddrs;        //!< STLB misses, in order
    };
    struct CacheOp {
        Addr paddr;
        std::uint32_t app;
        bool write;
    };
    struct McOp {
        Addr paddr;
        Addr replayLine; //!< TEMPO tag target of a leaf PT fetch
        AppId app;
        ReqKind kind;
        bool write;
        bool tagged;
    };

    explicit State(const Point &point) : cfg(point.config), os(cfg.os) {}

    MemRequest
    request(const McOp &op) const
    {
        MemRequest req;
        req.paddr = op.paddr;
        req.isWrite = op.write;
        req.kind = op.kind;
        req.app = op.app;
        if (op.tagged) {
            req.tempo.tagged = true;
            req.tempo.pteValid = true;
            req.tempo.replayPaddr = op.replayLine;
        }
        return req;
    }

    SystemConfig cfg;
    OsMemory os; //!< shared frame pool of the functional pass
    std::vector<AppStream> apps;
    std::vector<CacheOp> cacheOps;
    std::vector<McOp> mcOps;
    /** Latency of each cache op (plus its memory time on a miss). */
    std::vector<Cycle> delays;
    std::uint64_t tlbMisses = 0;
    std::uint64_t cacheMisses = 0;
    /** Requests submitted before each drain: one MLP window per app. */
    std::size_t group = 0;

    /** Submit mcOps in groups, draining after each; calls @p done(j,
     * latency) per completed request. Returns completed requests. */
    template <typename Done>
    std::uint64_t
    runMc(Done &&done) const
    {
        EventQueue eq;
        DramDevice dram(cfg.dram);
        MemoryController mc(eq, dram, cfg.mc);
        mc.onTempoPrefetchFill = [](Addr, AppId) {};
        std::uint64_t completed = 0;
        for (std::size_t base = 0; base < mcOps.size(); base += group) {
            const std::size_t end = std::min(mcOps.size(), base + group);
            for (std::size_t j = base; j < end; ++j) {
                MemRequest req = request(mcOps[j]);
                req.onComplete = [&done, &completed, j,
                                  at = eq.now()](const MemResult &r) {
                    ++completed;
                    done(j, r.complete - at);
                };
                mc.submit(std::move(req));
            }
            eq.runAll();
        }
        return completed;
    }
};

LayerReplay::LayerReplay(const Point &point, std::uint64_t refs_per_app)
    : state_(std::make_unique<State>(point))
{
    State &s = *state_;
    const SystemConfig &cfg = s.cfg;
    SharedLlc llc(cfg.caches.llc, cfg.cache);

    struct Pipeline {
        std::unique_ptr<Workload> workload;
        std::unique_ptr<Tlb> tlb;
        std::unique_ptr<MmuCache> mmu;
        std::unique_ptr<Walker> walker;
        std::unique_ptr<CacheHierarchy> caches;
    };
    std::vector<Pipeline> pipes;
    for (std::size_t i = 0; i < point.apps.size(); ++i) {
        State::AppStream stream;
        stream.app = point.apps[i];
        AddressSpaceConfig vm_cfg = cfg.vm;
        vm_cfg.seed += i * 97; // as SimCore decorrelates apps
        stream.space = std::make_unique<AddressSpace>(s.os, vm_cfg,
                                                      cfg.translator);
        stream.vaddrs.reserve(refs_per_app);
        stream.sizes.reserve(refs_per_app);
        Pipeline pipe;
        pipe.workload = makeWorkload(stream.app.name, stream.app.seed);
        pipe.tlb = std::make_unique<Tlb>(cfg.tlb, cfg.cache);
        pipe.mmu = std::make_unique<MmuCache>(cfg.mmu, cfg.cache);
        pipe.walker = std::make_unique<Walker>(
            stream.space->translator(), *pipe.mmu);
        pipe.caches =
            std::make_unique<CacheHierarchy>(cfg.caches, &llc, cfg.cache);
        s.group += cfg.useWorkloadMlpHint ? pipe.workload->mlpHint()
                                          : cfg.mlpWindow;
        s.apps.push_back(std::move(stream));
        pipes.push_back(std::move(pipe));
    }

    // Memory time per op is known only after the MC pass: remember
    // which delay slot each demand request belongs to.
    std::vector<std::size_t> delay_slot;
    auto cache_access = [&](std::uint32_t app, Addr paddr, bool write,
                            ReqKind kind, bool tagged, Addr replay) {
        Pipeline &pipe = pipes[app];
        s.cacheOps.push_back({paddr, app, write});
        const CacheOutcome outcome = pipe.caches->access(paddr, write);
        s.delays.push_back(outcome.latency);
        if (outcome.level != CacheLevel::Memory)
            return;
        ++s.cacheMisses;
        delay_slot.push_back(s.delays.size() - 1);
        s.mcOps.push_back(
            {lineAddr(paddr), replay, app, kind, write, tagged});
        const Addr victim = pipe.caches->fill(paddr, write);
        if (victim != kInvalidAddr) {
            delay_slot.push_back(SIZE_MAX);
            s.mcOps.push_back({lineAddr(victim), kInvalidAddr, app,
                               ReqKind::Writeback, true, false});
        }
    };

    for (std::uint64_t r = 0; r < refs_per_app; ++r) {
        for (std::uint32_t i = 0; i < pipes.size(); ++i) {
            Pipeline &pipe = pipes[i];
            State::AppStream &stream = s.apps[i];
            const MemRef ref = pipe.workload->next();
            const Addr v = ref.vaddr;
            stream.vaddrs.push_back(v);
            stream.space->touch(v);
            Translation xlate;
            const bool miss = !pipe.tlb->lookup(v).hit;
            if (!miss) {
                xlate = stream.space->translate(v);
            } else {
                ++s.tlbMisses;
                stream.walkVaddrs.push_back(v);
                const WalkPlan plan = pipe.walker->plan(v);
                if (!plan.xlate.valid)
                    throw std::logic_error("demand walk did not resolve");
                for (std::size_t k = 0; k < plan.fetches.size(); ++k) {
                    const bool leaf = k + 1 == plan.fetches.size();
                    cache_access(i, plan.fetches[k].pteAddr, false,
                                 ReqKind::PtWalk, leaf,
                                 leaf ? lineAddr(plan.xlate.physAddr(v))
                                      : kInvalidAddr);
                }
                pipe.walker->finish(v, plan);
                pipe.tlb->fill(v, plan.xlate.size);
                xlate = plan.xlate;
            }
            stream.sizes.push_back(xlate.size);
            cache_access(i, xlate.physAddr(v), ref.isWrite,
                         miss ? ReqKind::Replay : ReqKind::Regular, false,
                         kInvalidAddr);
        }
    }

    const std::uint64_t completed =
        s.runMc([&](std::size_t j, Cycle latency) {
            if (delay_slot[j] != SIZE_MAX)
                s.delays[delay_slot[j]] += latency;
        });
    if (completed != s.mcOps.size())
        throw std::logic_error("memory replay lost requests");
}

LayerReplay::~LayerReplay() = default;

LayerTotals
LayerReplay::time() const
{
    const State &s = *state_;
    const SystemConfig &cfg = s.cfg;
    LayerTotals t;
    std::uint64_t sink = 0;
    auto record = [&t](Layer layer, double ns, std::uint64_t calls) {
        t.ns[static_cast<std::size_t>(layer)] += ns;
        t.calls[static_cast<std::size_t>(layer)] += calls;
    };

    for (const State::AppStream &stream : s.apps) {
        const std::size_t n = stream.vaddrs.size();

        auto workload = makeWorkload(stream.app.name, stream.app.seed);
        auto t0 = Clock::now();
        for (std::size_t k = 0; k < n; ++k)
            sink += workload->next().vaddr;
        record(Layer::Next, nsSince(t0), n);

        {
            Translator translator(stream.space->pageTable(),
                                  cfg.translator);
            t0 = Clock::now();
            for (const Addr v : stream.vaddrs)
                sink += translator.translate(v).pframe;
            record(Layer::Translate, nsSince(t0), n);
        }

        {
            Tlb tlb(cfg.tlb, cfg.cache);
            t0 = Clock::now();
            for (std::size_t k = 0; k < n; ++k) {
                if (!tlb.lookup(stream.vaddrs[k]).hit)
                    tlb.fill(stream.vaddrs[k], stream.sizes[k]);
            }
            record(Layer::Tlb, nsSince(t0), n);
            if (tlb.misses() != stream.walkVaddrs.size())
                throw std::logic_error("TLB replay diverged");
        }

        {
            MmuCache mmu(cfg.mmu, cfg.cache);
            Translator translator(stream.space->pageTable(),
                                  cfg.translator);
            Walker walker(translator, mmu);
            t0 = Clock::now();
            for (const Addr v : stream.walkVaddrs) {
                const WalkPlan plan = walker.plan(v);
                walker.finish(v, plan);
                sink += plan.fetches.size();
            }
            record(Layer::Walk, nsSince(t0), stream.walkVaddrs.size());
        }
    }

    {
        SharedLlc llc(cfg.caches.llc, cfg.cache);
        std::vector<std::unique_ptr<CacheHierarchy>> caches;
        for (std::size_t i = 0; i < s.apps.size(); ++i)
            caches.push_back(std::make_unique<CacheHierarchy>(
                cfg.caches, &llc, cfg.cache));
        std::uint64_t misses = 0;
        const auto t0 = Clock::now();
        for (const State::CacheOp &op : s.cacheOps) {
            CacheHierarchy &h = *caches[op.app];
            if (h.access(op.paddr, op.write).level == CacheLevel::Memory) {
                ++misses;
                sink += h.fill(op.paddr, op.write);
            }
        }
        record(Layer::Cache, nsSince(t0), s.cacheOps.size());
        if (misses != s.cacheMisses)
            throw std::logic_error("cache replay diverged");
    }

    {
        const auto t0 = Clock::now();
        const std::uint64_t completed =
            s.runMc([&sink](std::size_t, Cycle latency) {
                sink += latency;
            });
        record(Layer::Mc, nsSince(t0), s.mcOps.size());
        if (completed != s.mcOps.size())
            throw std::logic_error("memory replay lost requests");
    }

    {
        DramDevice dram(cfg.dram);
        Cycle when = 0;
        const auto t0 = Clock::now();
        for (const State::McOp &op : s.mcOps) {
            const DramResult r =
                dram.access(op.paddr, op.write, false, op.app, when, 0);
            when = r.start + kBurstCycles;
            sink += r.complete;
        }
        record(Layer::Dram, nsSince(t0), s.mcOps.size());
    }

    {
        EventQueue eq;
        std::size_t next = 0;
        std::uint64_t left = s.cacheOps.size();
        for (std::size_t c = 0; c < s.group; ++c)
            eq.schedule(c, Chain{&eq, &s.delays, &next, &left});
        const auto t0 = Clock::now();
        eq.runAll();
        record(Layer::Event, nsSince(t0), eq.executed());
    }

    g_sink = sink;
    return t;
}

} // namespace perfbench
