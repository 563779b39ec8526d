#include "core/sim_core.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/profiler.hh"
#include "obs/obs.hh"
#include "prefetch/registry.hh"

namespace tempo {

void
CoreStats::report(stats::Report &out) const
{
    out.add("refs", refs);
    out.add("page_faults", pageFaults);
    out.add("walks", walks);
    out.add("pt_dram_accesses", ptDramAccesses);
    out.add("leaf_pt_dram_accesses", leafPtDramAccesses);
    out.add("leaf_fraction_of_pt_dram",
            stats::ratio(leafPtDramAccesses, ptDramAccesses));
    out.add("walks_with_leaf_dram", walksWithLeafDram);
    out.add("pt_dram_l1", ptDramByLevel[1]);
    out.add("pt_dram_l2", ptDramByLevel[2]);
    out.add("pt_dram_l3", ptDramByLevel[3]);
    out.add("pt_dram_l4", ptDramByLevel[4]);
    out.add("leaf_pt_l1_hits", leafPtL1Hits);
    out.add("leaf_pt_l2_hits", leafPtL2Hits);
    out.add("leaf_pt_llc_hits", leafPtLlcHits);
    out.add("replay_dram_accesses", replayDramAccesses);
    out.add("regular_dram_accesses", regularDramAccesses);
    out.add("replay_after_dram_walk", replayAfterDramWalk);
    out.add("replay_dram_after_dram_walk", replayDramAfterDramWalk);
    out.add("replay_follows_ptw_frac",
            stats::ratio(replayDramAfterDramWalk + replayLlcHits
                             + replayPrivateHits,
                         replayAfterDramWalk));
    out.add("replay_llc_hits", replayLlcHits);
    out.add("replay_private_hits", replayPrivateHits);
    out.add("replay_merged", replayMerged);
    out.add("replay_row_hits", replayRowHits);
    out.add("replay_array", replayArray);
    out.add("pt_mshr_merges", ptMshrMerges);
    out.add("data_mshr_merges", dataMshrMerges);
    out.add("imp_issued", impIssued);
    out.add("stride_issued", strideIssued);
    out.add("tlb_prefetches", tlbPrefetches);
    out.add("imp_dropped_inflight", impDroppedInflight);
    out.add("imp_faults", impFaults);
    out.add("cycles_ptw_dram", cyclesPtwDram);
    out.add("cycles_replay_dram", cyclesReplayDram);
    out.add("cycles_other_dram", cyclesOtherDram);
    out.add("cycles_total", cyclesTotal);
    out.add("last_finish", lastFinish);

    // Per-engine taxonomy, emitted only for explicit engine lists so
    // legacy-config output stays byte-identical. useless is derived, so
    // useful + late + useless == issued by construction.
    if (prefetchEngineKeys) {
        for (const auto &e : prefetchEngines) {
            const std::string prefix = "prefetch." + e.name + ".";
            out.add(prefix + "issued", e.issued);
            out.add(prefix + "useful", e.useful);
            out.add(prefix + "late", e.late);
            out.add(prefix + "useless", e.useless());
            out.add(prefix + "dropped", e.dropped);
            out.add(prefix + "faults", e.faults);
            out.add(prefix + "metadata_fetches", e.metadataFetches);
        }
    }
}

/** Per-reference in-flight state. */
struct SimCore::RefContext {
    MemRef ref;
    Addr paddr = kInvalidAddr;
    Cycle issueAt = 0;
    bool tlbMiss = false;
    bool walkLeafDram = false;
    double ptwDramCycles = 0;
    double replayDramCycles = 0;
    std::uint64_t walkId = 0; //!< observability walk id (0 = none)
};

namespace {

/** Direct-mapped resident-prefetch tracking table size (per core).
 * Far larger than the private caches' line capacity, so conflict
 * aliasing only costs tracking accuracy under extreme pressure. */
constexpr std::size_t kPfResidentEntries = 4096;

} // namespace

SimCore::SimCore(Machine &machine, AppId app,
                 std::unique_ptr<Workload> workload)
    : tlb(machine.config.tlb, machine.config.cache),
      mmu(machine.config.mmu, machine.config.cache),
      caches(machine.config.caches, &machine.llc, machine.config.cache),
      addressSpace(machine.os, [&] {
          AddressSpaceConfig vm_cfg = machine.config.vm;
          vm_cfg.seed += app * 97; // decorrelate per-app decisions
          return vm_cfg;
      }(), machine.config.translator),
      walker(addressSpace.translator(), mmu),
      machine_(machine),
      cfg_(machine.config),
      app_(app),
      workload_(std::move(workload))
{
    TEMPO_ASSERT(workload_, "core needs a workload");
    window_ = cfg_.useWorkloadMlpHint ? workload_->mlpHint()
                                      : cfg_.mlpWindow;
    window_ = std::max(1u, window_);

    for (auto &engine : buildPrefetchers(cfg_)) {
        EngineSlot slot;
        slot.isImp = engine->name() == "imp";
        slot.isStride = engine->name() == "stride";
        slot.engine = std::move(engine);
        engines_.push_back(std::move(slot));
    }
    stats_.prefetchEngineKeys = !cfg_.prefetch.engines.empty();
    for (const auto &slot : engines_)
        stats_.prefetchEngines.push_back({slot.engine->name()});
    if (!engines_.empty())
        pfResident_.resize(kPfResidentEntries);
}

std::vector<const Prefetcher *>
SimCore::prefetchEngines() const
{
    std::vector<const Prefetcher *> out;
    out.reserve(engines_.size());
    for (const auto &slot : engines_)
        out.push_back(slot.engine.get());
    return out;
}

void
SimCore::start(std::uint64_t num_refs)
{
    TEMPO_ASSERT(target_ == 0, "start() called twice");
    TEMPO_ASSERT(num_refs > 0, "empty run");
    target_ = num_refs;
    nextIssueAt_ = machine_.eq.now();
    pump();
}

bool
SimCore::mshrWait(Addr line, MshrWaiter waiter)
{
    const auto it = mshr_.find(line);
    if (it == mshr_.end())
        return false;
    it->second.push_back(std::move(waiter));
    return true;
}

void
SimCore::mshrOpen(Addr line)
{
    mshr_.try_emplace(line);
}

void
SimCore::mshrClose(Addr line, Cycle when)
{
    const auto it = mshr_.find(line);
    if (it == mshr_.end())
        return;
    auto waiters = std::move(it->second);
    mshr_.erase(it);
    for (auto &waiter : waiters)
        waiter(when);
}

void
SimCore::pump()
{
    while (inflight_ < window_ && issued_ < target_) {
        const Cycle when = std::max(machine_.eq.now(), nextIssueAt_);
        nextIssueAt_ = when + cfg_.issueGap;
        ++inflight_;
        ++issued_;
        machine_.eq.schedule(when, [this] { beginRef(); });
    }
}

void
SimCore::beginRef()
{
    prof::Scope prof_scope(prof::Component::Core);
    auto ctx = std::make_shared<RefContext>();
    {
        prof::Scope workload_scope(prof::Component::Workload);
        ctx->ref = workload_->next();
    }
    ctx->issueAt = machine_.eq.now();
    ++stats_.refs;

    // Demand paging: the OS maps the page on first touch.
    Cycle fault_penalty = 0;
    if (addressSpace.touch(ctx->ref.vaddr)) {
        ++stats_.pageFaults;
        fault_penalty = cfg_.pageFaultLatency;
    }

    runPrefetchers(ctx->ref);

    const TlbResult tlb_result = tlb.lookup(ctx->ref.vaddr);
    const Cycle after_tlb =
        machine_.eq.now() + tlb_result.latency + fault_penalty;

    if (tlb_result.hit) {
        ctx->paddr =
            addressSpace.translate(ctx->ref.vaddr).physAddr(
                ctx->ref.vaddr);
        machine_.eq.schedule(after_tlb, [this, ctx] { dataAccess(ctx); });
        return;
    }

    // TLB miss: plan and execute the page table walk.
    ctx->tlbMiss = true;
    ++stats_.walks;
    ++walksOutstanding_;
    auto plan = std::make_shared<WalkPlan>(walker.plan(ctx->ref.vaddr));
    TEMPO_ASSERT(plan->xlate.valid, "demand reference walk must resolve");
    if (auto *o = obs::session()) {
        ctx->walkId = o->walkBegin(machine_.eq.now(), ctx->ref.vaddr,
                                   obs::WalkKind::Demand,
                                   plan->fetches.size(), plan->skipped);
        plan->obsWalkId = ctx->walkId;
    }

    const Cycle walk_start = after_tlb + cfg_.mmu.latency;
    const Addr vaddr = ctx->ref.vaddr;
    machine_.eq.schedule(walk_start, [this, ctx, plan, vaddr] {
        walkAsync(vaddr, plan, 0, false,
                  [this, ctx, plan, vaddr](Cycle when, double dram_cycles,
                                           bool leaf_dram) {
                      ctx->ptwDramCycles = dram_cycles;
                      ctx->walkLeafDram = leaf_dram;
                      if (leaf_dram)
                          ++stats_.walksWithLeafDram;
                      --walksOutstanding_;
                      if (auto *o = obs::session())
                          o->walkEnd(when, ctx->walkId, leaf_dram);
                      walker.finish(vaddr, *plan);
                      tlb.fill(vaddr, plan->xlate.size);
                      maybeTlbPrefetch(vaddr, plan->xlate.size);
                      ctx->paddr = plan->xlate.physAddr(vaddr);
                      machine_.eq.schedule(
                          when + cfg_.tlbFillLatency,
                          [this, ctx] { dataAccess(ctx); });
                  });
    });
}

void
SimCore::walkAsync(Addr vaddr, std::shared_ptr<WalkPlan> plan,
                   std::size_t step, bool for_prefetch,
                   std::function<void(Cycle, double, bool)> done)
{
    prof::Scope prof_scope(prof::Component::Walker);
    // Walk finished (or faulted at the last fetched level).
    if (step >= plan->fetches.size()) {
        done(machine_.eq.now(), 0, false);
        return;
    }

    const WalkStep &fetch = plan->fetches[step];
    const bool is_leaf = step + 1 == plan->fetches.size();
    const CacheOutcome outcome = caches.access(fetch.pteAddr, false);
    const Cycle after_caches = machine_.eq.now() + outcome.latency;
    if (auto *o = obs::session()) {
        o->walkStep(machine_.eq.now(), plan->obsWalkId, fetch.level,
                    fetch.pteAddr,
                    static_cast<std::uint8_t>(outcome.level));
    }

    if (outcome.level != CacheLevel::Memory) {
        if (is_leaf) {
            switch (outcome.level) {
              case CacheLevel::L1: ++stats_.leafPtL1Hits; break;
              case CacheLevel::L2: ++stats_.leafPtL2Hits; break;
              default: ++stats_.leafPtLlcHits; break;
            }
        }
        machine_.eq.schedule(
            after_caches,
            [this, vaddr, plan, step, for_prefetch,
             done = std::move(done)]() mutable {
                walkAsync(vaddr, plan, step + 1, for_prefetch,
                          std::move(done));
            });
        return;
    }

    // A fill of this PTE line may already be in flight (bursty walks to
    // neighbouring pages share PTE lines): merge in the MSHR instead of
    // issuing a duplicate DRAM access. The merged walk does not count
    // as a leaf-from-DRAM trigger — only the original request carries
    // the TEMPO tag.
    const Addr pte_line = lineAddr(fetch.pteAddr);
    if (mshrPending(pte_line)) {
        mshrWait(pte_line,
                 [this, vaddr, plan, step, for_prefetch,
                  submit = after_caches,
                  done = std::move(done)](Cycle when) mutable {
                     ++stats_.ptMshrMerges;
                     const double waited = when > submit
                         ? static_cast<double>(when - submit)
                         : 0.0;
                     auto chained =
                         [waited, done = std::move(done)](
                             Cycle t, double more, bool leaf) {
                             done(t, waited + more, leaf);
                         };
                     walkAsync(vaddr, plan, step + 1, for_prefetch,
                               std::move(chained));
                 });
        return;
    }
    mshrOpen(pte_line);

    // PTE fetch goes to DRAM. The walker tags leaf fetches and appends
    // the replay's target line (paper Sec. 4.1) — the tag carries the
    // resolved replay address (or marks a fault, suppressing prefetch).
    MemRequest req;
    req.paddr = lineAddr(fetch.pteAddr);
    req.isWrite = false;
    req.kind = ReqKind::PtWalk;
    req.app = app_;
    req.walkId = plan->obsWalkId;
    if (is_leaf) {
        req.tempo.tagged = true;
        req.tempo.pteValid = plan->xlate.valid;
        if (plan->xlate.valid) {
            req.tempo.replayPaddr =
                lineAddr(plan->xlate.physAddr(vaddr));
        }
        if (auto *o = obs::session()) {
            o->ptAccessTag(machine_.eq.now(), plan->obsWalkId,
                           lineAddr(fetch.pteAddr),
                           req.tempo.replayPaddr, plan->xlate.valid);
        }
    }

    const Cycle submit_at = after_caches;
    const Addr pte_addr = fetch.pteAddr;

    req.onComplete = [this, vaddr, plan, step, for_prefetch, is_leaf,
                      submit_at, pte_addr,
                      done = std::move(done)](
                         const MemResult &res) mutable {
        const Addr writeback = caches.fill(pte_addr);
        if (writeback != kInvalidAddr)
            machine_.submitWriteback(writeback, app_);
        mshrClose(lineAddr(pte_addr), res.complete);
        ++stats_.ptDramAccesses;
        ++stats_.ptDramByLevel[plan->fetches[step].level];
        if (is_leaf)
            ++stats_.leafPtDramAccesses;
        const double dram_cycles =
            static_cast<double>(res.complete - submit_at);
        // Chain to the next level; accumulate DRAM time and leaf flag.
        auto chained = [dram_cycles, is_leaf, done = std::move(done)](
                           Cycle when, double more, bool leaf) {
            done(when, dram_cycles + more, leaf || is_leaf);
        };
        walkAsync(vaddr, plan, step + 1, for_prefetch,
                  std::move(chained));
    };

    machine_.eq.schedule(submit_at, [this, req = std::move(req)]() mutable {
        machine_.mc.submit(std::move(req));
    });
}

void
SimCore::dataAccess(const RefPtr &ctx)
{
    prof::Scope prof_scope(prof::Component::Core);
    TEMPO_ASSERT(ctx->paddr != kInvalidAddr, "data access untranslated");
    if (ctx->tlbMiss) {
        if (auto *o = obs::session())
            o->replayBegin(machine_.eq.now(), ctx->walkId, ctx->paddr);
    }
    const CacheOutcome outcome =
        caches.access(ctx->paddr, ctx->ref.isWrite);
    const Cycle after_caches = machine_.eq.now() + outcome.latency;

    if (outcome.level != CacheLevel::Memory) {
        classifyDemandHit(lineAddr(ctx->paddr));
        if (ctx->tlbMiss) {
            const bool llc = outcome.level == CacheLevel::LLC;
            if (ctx->walkLeafDram) {
                ++stats_.replayAfterDramWalk;
                if (llc)
                    ++stats_.replayLlcHits;
                else
                    ++stats_.replayPrivateHits;
            }
            if (auto *o = obs::session()) {
                o->replayEnd(after_caches, ctx->walkId,
                             llc ? obs::ReplayClass::LlcHit
                                 : obs::ReplayClass::PrivateHit);
            }
        }
        machine_.eq.schedule(after_caches, [this, ctx] { finishRef(ctx); });
        return;
    }

    // Full cache miss. The decision point is when the LLC lookup
    // completes (after_caches): a TEMPO prefetch landing within the
    // lookup latency still counts as an LLC hit (hit during miss
    // handling), and one still in flight is merged with MSHR-style
    // instead of issuing a duplicate DRAM access (the paper's
    // partial-overlap case, Sec. 3).
    machine_.eq.schedule(after_caches,
                         [this, ctx] { memoryAccess(ctx); });
}

void
SimCore::memoryAccess(const RefPtr &ctx)
{
    prof::Scope prof_scope(prof::Component::Core);
    const Addr line = lineAddr(ctx->paddr);

    if (ctx->tlbMiss && machine_.llc.cache().contains(line)) {
        // The prefetch filled the LLC while our lookup was in flight.
        classifyDemandHit(line);
        machine_.llc.cache().lookup(line); // LRU touch
        caches.fillPrivate(line);
        if (ctx->walkLeafDram) {
            ++stats_.replayAfterDramWalk;
            ++stats_.replayLlcHits;
        }
        if (auto *o = obs::session()) {
            o->replayEnd(machine_.eq.now(), ctx->walkId,
                         obs::ReplayClass::LlcHit);
        }
        finishRef(ctx);
        return;
    }

    if (ctx->tlbMiss
        && machine_.mc.mergeWithPendingPrefetch(
            line, [this, ctx, submit = machine_.eq.now()](Cycle done) {
                caches.fillPrivate(ctx->paddr);
                ++stats_.replayDramAccesses;
                ctx->replayDramCycles = done > submit
                    ? static_cast<double>(done - submit)
                    : 0.0;
                if (ctx->walkLeafDram) {
                    ++stats_.replayAfterDramWalk;
                    ++stats_.replayMerged;
                }
                if (auto *o = obs::session()) {
                    o->replayEnd(done, ctx->walkId,
                                 obs::ReplayClass::Merged);
                }
                // The waiter runs at the prefetch's completion event,
                // which is never before `submit`.
                finishRef(ctx);
            })) {
        return;
    }

    // A demand fill of this line may already be outstanding (another
    // reference or an IMP chain): wait on it rather than duplicating.
    if (mshrWait(line, [this, ctx,
                        submit = machine_.eq.now()](Cycle when) {
            ++stats_.dataMshrMerges;
            caches.fillPrivate(ctx->paddr);
            ctx->replayDramCycles = 0;
            const double waited = when > submit
                ? static_cast<double>(when - submit)
                : 0.0;
            if (ctx->tlbMiss) {
                ++stats_.replayDramAccesses;
                ctx->replayDramCycles = waited;
                if (ctx->walkLeafDram) {
                    ++stats_.replayAfterDramWalk;
                    // The replay waited on a DRAM array fill of its own
                    // line: it "needed DRAM" in the paper's sense.
                    ++stats_.replayDramAfterDramWalk;
                    ++stats_.replayArray;
                }
                if (auto *o = obs::session()) {
                    o->replayEnd(when, ctx->walkId,
                                 obs::ReplayClass::Array);
                }
            } else {
                stats_.cyclesOtherDram += waited;
            }
            finishRef(ctx);
        })) {
        classifyDemandMerge(line);
        return;
    }
    mshrOpen(line);
    classifyDemandMiss(line);

    MemRequest req;
    req.paddr = line;
    req.isWrite = ctx->ref.isWrite;
    req.kind = ctx->tlbMiss ? ReqKind::Replay : ReqKind::Regular;
    req.app = app_;
    req.walkId = ctx->walkId;
    const Cycle submit_at = machine_.eq.now();
    req.onComplete = [this, ctx, submit_at](const MemResult &res) {
        const Addr writeback =
            caches.fill(ctx->paddr, ctx->ref.isWrite);
        if (writeback != kInvalidAddr)
            machine_.submitWriteback(writeback, app_);
        mshrClose(lineAddr(ctx->paddr), res.complete);
        const double dram_cycles =
            static_cast<double>(res.complete - submit_at);
        if (ctx->tlbMiss) {
            ++stats_.replayDramAccesses;
            ctx->replayDramCycles = dram_cycles;
            const bool row_hit = res.rowEvent
                == static_cast<std::uint8_t>(RowEvent::Hit);
            if (ctx->walkLeafDram) {
                ++stats_.replayAfterDramWalk;
                ++stats_.replayDramAfterDramWalk;
                if (row_hit) {
                    ++stats_.replayRowHits;
                } else {
                    ++stats_.replayArray;
                }
            }
            if (auto *o = obs::session()) {
                o->replayEnd(res.complete, ctx->walkId,
                             row_hit ? obs::ReplayClass::RowHit
                                     : obs::ReplayClass::Array);
            }
        } else {
            ++stats_.regularDramAccesses;
            stats_.cyclesOtherDram += dram_cycles;
        }
        finishRef(ctx);
    };

    machine_.mc.submit(std::move(req));
}

void
SimCore::finishRef(const RefPtr &ctx)
{
    prof::Scope prof_scope(prof::Component::Core);
    const Cycle now = machine_.eq.now();
    stats_.cyclesPtwDram += ctx->ptwDramCycles;
    stats_.cyclesReplayDram += ctx->replayDramCycles;
    stats_.cyclesTotal += static_cast<double>(now - ctx->issueAt);
    stats_.lastFinish = std::max(stats_.lastFinish, now);

    TEMPO_ASSERT(inflight_ > 0, "finish without inflight");
    --inflight_;
    ++completed_;
    if (warmupCallback_ && completed_ == warmupAfter_) {
        auto callback = std::move(warmupCallback_);
        warmupCallback_ = nullptr;
        callback();
    }
    if (completed_ == target_) {
        if (onDone)
            onDone();
        return;
    }
    pump();
}

void
SimCore::setWarmupCallback(std::uint64_t after,
                           std::function<void()> callback)
{
    TEMPO_ASSERT(target_ == 0, "set the warmup callback before start()");
    warmupAfter_ = after;
    warmupCallback_ = std::move(callback);
}

void
SimCore::resetStats()
{
    stats_ = CoreStats{};
    stats_.prefetchEngineKeys = !cfg_.prefetch.engines.empty();
    for (const auto &slot : engines_)
        stats_.prefetchEngines.push_back({slot.engine->name()});
    // Usefulness tracking restarts with the counters: prefetches issued
    // before the warmup boundary never classify into the measured
    // window (mirrors the obs session's epoch discipline).
    pendingPf_.clear();
    for (auto &slot : pfResident_)
        slot.tag = kInvalidAddr;
    tlb.resetStats();
    mmu.resetStats();
    caches.resetStats();
}

void
SimCore::runPrefetchers(const MemRef &ref)
{
    const Cycle now = machine_.eq.now();
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        actionScratch_.clear();
        engines_[i].engine->observe(ref, now, actionScratch_);
        engines_[i].engine->drain(now, actionScratch_);
        if (!actionScratch_.empty())
            dispatchActions(i);
    }
}

void
SimCore::dispatchActions(std::size_t idx)
{
    const EngineSlot &slot = engines_[idx];
    PrefetchEngineStats &es = stats_.prefetchEngines[idx];
    for (std::size_t a = 0; a < actionScratch_.size(); ++a) {
        const PrefetchAction &act = actionScratch_[a];
        if (act.kind == PrefetchAction::Kind::Metadata) {
            metadataFetch(idx, act.addr);
            continue;
        }
        if (impInflight_ >= cfg_.impMaxInflight) {
            // Legacy semantics: one impDroppedInflight per capped
            // batch; the per-engine count covers every lost target.
            ++stats_.impDroppedInflight;
            for (std::size_t r = a; r < actionScratch_.size(); ++r) {
                if (actionScratch_[r].kind
                    == PrefetchAction::Kind::Data)
                    ++es.dropped;
            }
            if (auto *o = obs::session())
                o->corePrefetchDrop(machine_.eq.now(), lineAddr(act.addr));
            break;
        }
        ++impInflight_;
        if (slot.isImp)
            ++stats_.impIssued;
        if (slot.isStride)
            ++stats_.strideIssued;
        ++es.issued;
        if (auto *o = obs::session())
            o->corePrefetchIssue(machine_.eq.now(), lineAddr(act.addr));
        prefetchChain(act.addr, idx);
    }
}

void
SimCore::metadataFetch(std::size_t idx, Addr addr)
{
    PrefetchEngineStats &es = stats_.prefetchEngines[idx];
    if (metadataInflight_ >= cfg_.misb.maxMetadataInflight) {
        ++es.dropped;
        return;
    }
    ++metadataInflight_;
    ++es.metadataFetches;

    // Metadata lives in a reserved physical region the data hierarchy
    // never caches: hash the trigger line to a stable DRAM address and
    // fetch it uncached (MISB's off-chip metadata traffic; it rides
    // the ImpPrefetch request class so it bills as prefetch traffic).
    const Addr paddr =
        lineAddr((addr * 0x9E3779B97F4A7C15ull) % cfg_.os.physBytes);
    MemRequest req;
    req.paddr = paddr;
    req.isWrite = false;
    req.kind = ReqKind::ImpPrefetch;
    req.app = app_;
    req.onComplete = [this](const MemResult &) { --metadataInflight_; };
    machine_.eq.schedule(machine_.eq.now(),
                         [this, req = std::move(req)]() mutable {
                             machine_.mc.submit(std::move(req));
                         });
}

void
SimCore::notePrefetchFill(Addr line)
{
    const auto it = pendingPf_.find(line);
    if (it == pendingPf_.end())
        return; // a demand merged with the fill: already counted late
    ResidentPf &slot =
        pfResident_[(line / kLineBytes) % pfResident_.size()];
    slot.tag = line;
    slot.engine = it->second;
    pendingPf_.erase(it);
}

void
SimCore::classifyDemandHit(Addr line)
{
    if (pfResident_.empty())
        return;
    ResidentPf &slot =
        pfResident_[(line / kLineBytes) % pfResident_.size()];
    if (slot.tag != line)
        return;
    ++stats_.prefetchEngines[slot.engine].useful;
    slot.tag = kInvalidAddr; // count first use only
}

void
SimCore::classifyDemandMerge(Addr line)
{
    if (pendingPf_.empty())
        return;
    const auto it = pendingPf_.find(line);
    if (it == pendingPf_.end())
        return;
    ++stats_.prefetchEngines[it->second].late;
    pendingPf_.erase(it); // the fill must not re-count it as resident
}

void
SimCore::classifyDemandMiss(Addr line)
{
    if (pfResident_.empty())
        return;
    ResidentPf &slot =
        pfResident_[(line / kLineBytes) % pfResident_.size()];
    if (slot.tag == line)
        slot.tag = kInvalidAddr; // evicted since the fill: stale
}

void
SimCore::prefetchChain(Addr target, std::size_t idx)
{
    // Core prefetches translate through the same TLB and walker as
    // demand references — this is precisely why aggressive prefetching
    // thrashes the TLB and why TEMPO composes so well with it (paper
    // Sec. 4.2). Chains do NOT demand-page: a prefetch to an unmapped
    // page is dropped, exercising TEMPO's page-fault suppression
    // (Sec. 4.5).
    const TlbResult tlb_result = tlb.lookup(target);
    const Cycle after_tlb = machine_.eq.now() + tlb_result.latency;

    if (tlb_result.hit) {
        const Translation xlate = addressSpace.translate(target);
        TEMPO_ASSERT(xlate.valid, "TLB hit for unmapped page");
        machine_.eq.schedule(after_tlb,
                             [this, idx, paddr = xlate.physAddr(target)] {
                                 impData(paddr, idx);
                             });
        return;
    }

    auto plan = std::make_shared<WalkPlan>(walker.plan(target));
    if (auto *o = obs::session()) {
        plan->obsWalkId =
            o->walkBegin(machine_.eq.now(), target,
                         obs::WalkKind::CorePrefetch,
                         plan->fetches.size(), plan->skipped);
    }
    machine_.eq.schedule(
        after_tlb + cfg_.mmu.latency, [this, plan, target, idx] {
            walkAsync(target, plan, 0, true,
                      [this, plan, target, idx](Cycle when, double,
                                                bool leaf_dram) {
                          if (auto *o = obs::session()) {
                              o->walkEnd(when, plan->obsWalkId,
                                         leaf_dram);
                          }
                          if (!plan->xlate.valid) {
                              ++stats_.impFaults;
                              ++stats_.prefetchEngines[idx].faults;
                              --impInflight_;
                              return;
                          }
                          walker.finish(target, *plan);
                          tlb.fill(target, plan->xlate.size);
                          machine_.eq.schedule(
                              when + cfg_.tlbFillLatency,
                              [this, idx, paddr = plan->xlate.physAddr(
                                   target)] { impData(paddr, idx); });
                      });
        });
}

void
SimCore::maybeTlbPrefetch(Addr vaddr, PageSize size)
{
    if (!cfg_.tlbPrefetchNext)
        return;
    // Extension: speculatively walk the next virtual page so a future
    // sequential access finds its translation resident. Runs off the
    // critical path; an unmapped neighbour simply drops the chain.
    const Addr next = alignDown(vaddr, pageBytes(size))
        + pageBytes(size);
    if (tlb.lookup(next).hit)
        return;
    ++stats_.tlbPrefetches;
    auto plan = std::make_shared<WalkPlan>(walker.plan(next));
    if (auto *o = obs::session()) {
        plan->obsWalkId =
            o->walkBegin(machine_.eq.now(), next,
                         obs::WalkKind::TlbPrefetch,
                         plan->fetches.size(), plan->skipped);
    }
    machine_.eq.scheduleIn(cfg_.mmu.latency, [this, plan, next] {
        walkAsync(next, plan, 0, true,
                  [this, plan, next](Cycle when, double,
                                     bool leaf_dram) {
                      if (auto *o = obs::session()) {
                          o->walkEnd(when, plan->obsWalkId,
                                     leaf_dram);
                      }
                      if (!plan->xlate.valid)
                          return;
                      walker.finish(next, *plan);
                      tlb.fill(next, plan->xlate.size);
                  });
    });
}

void
SimCore::impData(Addr paddr, std::size_t idx)
{
    const CacheOutcome outcome = caches.access(paddr, false);
    if (outcome.level != CacheLevel::Memory) {
        // Already resident: the chain was redundant (it stays in the
        // issued-but-never-classified bucket, i.e. useless).
        --impInflight_;
        return;
    }
    if (mshrWait(lineAddr(paddr), [this](Cycle) { --impInflight_; }))
        return;
    mshrOpen(lineAddr(paddr));
    pendingPf_.try_emplace(lineAddr(paddr), idx);

    MemRequest req;
    req.paddr = lineAddr(paddr);
    req.isWrite = false;
    req.kind = ReqKind::ImpPrefetch;
    req.app = app_;

    req.onComplete = [this, paddr](const MemResult &res) {
        // IMP fills into L1 (inclusive hierarchy).
        const Addr writeback = caches.fill(paddr);
        if (writeback != kInvalidAddr)
            machine_.submitWriteback(writeback, app_);
        mshrClose(lineAddr(paddr), res.complete);
        notePrefetchFill(lineAddr(paddr));
        --impInflight_;
    };
    machine_.eq.schedule(
        machine_.eq.now() + outcome.latency,
        [this, req = std::move(req)]() mutable {
            machine_.mc.submit(std::move(req));
        });
}

} // namespace tempo
