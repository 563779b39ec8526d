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

    // Per-engine taxonomy. useless is derived, so useful + late +
    // useless == issued by construction.
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

void
SimCore::pump()
{
    while (inflight_ < window_ && issued_ < target_) {
        const Cycle when = std::max(machine_.eq.now(), nextIssueAt_);
        nextIssueAt_ = when + cfg_.issueGap;
        ++inflight_;
        ++issued_;
        machine_.eq.schedule(when, hotCapture([this] { beginRef(); }));
    }
}

void
SimCore::beginRef()
{
    prof::Scope prof_scope(prof::Component::Core);
    // Only beginRef() acquires from refs_, so this reference stays
    // valid through the calls below.
    const std::uint32_t r = refs_.acquire();
    RefRecord &ref = refs_[r];
    {
        prof::Scope workload_scope(prof::Component::Workload);
        ref.ref = workload_->next();
    }
    ref.issueAt = machine_.eq.now();
    ++stats_.refs;

    // Demand paging: the OS maps the page on first touch.
    Cycle fault_penalty = 0;
    if (addressSpace.touch(ref.ref.vaddr)) {
        ++stats_.pageFaults;
        fault_penalty = cfg_.pageFaultLatency;
    }

    runPrefetchers(ref.ref);

    const TlbResult tlb_result = tlb.lookup(ref.ref.vaddr);
    const Cycle after_tlb =
        machine_.eq.now() + tlb_result.latency + fault_penalty;

    if (tlb_result.hit) {
        ref.paddr =
            addressSpace.translate(ref.ref.vaddr).physAddr(ref.ref.vaddr);
        machine_.eq.schedule(after_tlb,
                             hotCapture([this, r] { dataAccess(r); }));
        return;
    }

    // TLB miss: plan and execute the page table walk.
    ref.tlbMiss = true;
    ++stats_.walks;
    ++walksOutstanding_;
    const std::uint32_t w =
        newWalk(obs::WalkKind::Demand, r, ref.ref.vaddr);
    TEMPO_ASSERT(walks_[w].plan.xlate.valid,
                 "demand reference walk must resolve");
    ref.walkId = walks_[w].plan.obsWalkId;
    machine_.eq.schedule(after_tlb + cfg_.mmu.latency,
                         hotCapture([this, w] { walkStep(w); }));
}

std::uint32_t
SimCore::newWalk(obs::WalkKind kind, std::uint32_t owner, Addr vaddr)
{
    const std::uint32_t w = walks_.acquire();
    WalkRecord &walk = walks_[w];
    walk.kind = kind;
    walk.owner = owner;
    walk.vaddr = vaddr;
    walk.plan = walker.plan(vaddr);
    if (auto *o = obs::session()) {
        walk.plan.obsWalkId =
            o->walkBegin(machine_.eq.now(), app_, vaddr, kind,
                         walk.plan.fetches.size(), walk.plan.skipped);
    }
    return w;
}

void
SimCore::walkStep(std::uint32_t w)
{
    prof::Scope prof_scope(prof::Component::Walker);
    const WalkRecord &walk = walks_[w];
    // Walk finished (or faulted at the last fetched level).
    if (walk.step >= walk.plan.fetches.size()) {
        walkDone(w);
        return;
    }

    const WalkStep &fetch = walk.plan.fetches[walk.step];
    const bool is_leaf = walk.step + 1 == walk.plan.fetches.size();
    const CacheOutcome outcome = caches.access(fetch.pteAddr, false);
    const Cycle after_caches = machine_.eq.now() + outcome.latency;
    if (auto *o = obs::session()) {
        o->walkStep(machine_.eq.now(), walk.plan.obsWalkId, fetch.level,
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
        machine_.eq.schedule(after_caches,
                             hotCapture([this, w] { walkNext(w); }));
        return;
    }

    // A fill of this PTE line may already be in flight (bursty walks to
    // neighbouring pages share PTE lines): merge in the MSHR instead of
    // issuing a duplicate DRAM access. The merged walk does not count
    // as a leaf-from-DRAM trigger — only the original request carries
    // the TEMPO tag.
    const Addr pte_line = lineAddr(fetch.pteAddr);
    if (mshr_.wait(pte_line, hotCapture([this, w, submit = after_caches](
                                            Cycle when) {
            ++stats_.ptMshrMerges;
            if (when > submit)
                walks_[w].dramCycles += static_cast<double>(when - submit);
            walkNext(w);
        }))) {
        return;
    }
    mshr_.open(pte_line);

    if (is_leaf) {
        if (auto *o = obs::session()) {
            o->ptAccessTag(machine_.eq.now(), walk.plan.obsWalkId,
                           pte_line,
                           walk.plan.xlate.valid
                               ? lineAddr(walk.plan.xlate.physAddr(
                                     walk.vaddr))
                               : kInvalidAddr,
                           walk.plan.xlate.valid);
        }
    }
    machine_.eq.schedule(after_caches,
                         hotCapture([this, w] { submitPtFetch(w); }));
}

void
SimCore::walkNext(std::uint32_t w)
{
    ++walks_[w].step;
    walkStep(w);
}

void
SimCore::submitPtFetch(std::uint32_t w)
{
    // The walker tags leaf fetches and appends the replay's target line
    // (paper Sec. 4.1) — the tag carries the resolved replay address
    // (or marks a fault, suppressing prefetch).
    const WalkRecord &walk = walks_[w];
    const WalkStep &fetch = walk.plan.fetches[walk.step];
    MemRequest req;
    req.paddr = lineAddr(fetch.pteAddr);
    req.isWrite = false;
    req.kind = ReqKind::PtWalk;
    req.app = app_;
    req.walkId = walk.plan.obsWalkId;
    if (walk.step + 1 == walk.plan.fetches.size()) {
        req.tempo.tagged = true;
        req.tempo.pteValid = walk.plan.xlate.valid;
        if (walk.plan.xlate.valid) {
            req.tempo.replayPaddr =
                lineAddr(walk.plan.xlate.physAddr(walk.vaddr));
        }
    }
    req.onComplete = hotCapture(
        [this, w, submit_at = machine_.eq.now()](const MemResult &res) {
            ptFetchDone(w, submit_at, res.complete);
        });
    machine_.mc.submit(std::move(req));
}

void
SimCore::ptFetchDone(std::uint32_t w, Cycle submit_at, Cycle complete)
{
    // Copied out: the MSHR waiters released below may start walks.
    const WalkStep fetch = walks_[w].plan.fetches[walks_[w].step];
    const bool is_leaf =
        walks_[w].step + 1 == walks_[w].plan.fetches.size();
    const Addr writeback = caches.fill(fetch.pteAddr);
    if (writeback != kInvalidAddr)
        machine_.submitWriteback(writeback, app_);
    mshr_.close(lineAddr(fetch.pteAddr), complete);
    ++stats_.ptDramAccesses;
    ++stats_.ptDramByLevel[fetch.level];
    if (is_leaf) {
        ++stats_.leafPtDramAccesses;
        walks_[w].leafDram = true;
    }
    walks_[w].dramCycles += static_cast<double>(complete - submit_at);
    walkNext(w);
}

void
SimCore::walkDone(std::uint32_t w)
{
    const Cycle when = machine_.eq.now();
    // Copied out and released first: maybeTlbPrefetch() starts a walk.
    const WalkRecord walk = walks_[w];
    walks_.release(w);
    if (auto *o = obs::session())
        o->walkEnd(when, walk.plan.obsWalkId, walk.leafDram);

    const Translation &xlate = walk.plan.xlate;
    switch (walk.kind) {
      case obs::WalkKind::Demand: {
        const std::uint32_t r = walk.owner;
        refs_[r].ptwDramCycles = walk.dramCycles;
        refs_[r].walkLeafDram = walk.leafDram;
        if (walk.leafDram)
            ++stats_.walksWithLeafDram;
        --walksOutstanding_;
        walker.finish(walk.vaddr, walk.plan);
        tlb.fill(walk.vaddr, xlate.size);
        maybeTlbPrefetch(walk.vaddr, xlate.size);
        refs_[r].paddr = xlate.physAddr(walk.vaddr);
        machine_.eq.schedule(when + cfg_.tlbFillLatency,
                             hotCapture([this, r] { dataAccess(r); }));
        return;
      }
      case obs::WalkKind::CorePrefetch: {
        const std::uint32_t idx = walk.owner;
        if (!xlate.valid) {
            ++stats_.impFaults;
            ++stats_.prefetchEngines[idx].faults;
            --impInflight_;
            return;
        }
        walker.finish(walk.vaddr, walk.plan);
        tlb.fill(walk.vaddr, xlate.size);
        machine_.eq.schedule(
            when + cfg_.tlbFillLatency,
            hotCapture([this, idx, paddr = xlate.physAddr(walk.vaddr)] {
                impData(paddr, idx);
            }));
        return;
      }
      case obs::WalkKind::TlbPrefetch:
        if (!xlate.valid)
            return;
        walker.finish(walk.vaddr, walk.plan);
        tlb.fill(walk.vaddr, xlate.size);
        return;
    }
}

void
SimCore::dataAccess(std::uint32_t r)
{
    prof::Scope prof_scope(prof::Component::Core);
    const RefRecord &ref = refs_[r];
    TEMPO_ASSERT(ref.paddr != kInvalidAddr, "data access untranslated");
    if (ref.tlbMiss) {
        if (auto *o = obs::session())
            o->replayBegin(machine_.eq.now(), ref.walkId, ref.paddr);
    }
    const CacheOutcome outcome = caches.access(ref.paddr, ref.ref.isWrite);
    const Cycle after_caches = machine_.eq.now() + outcome.latency;

    if (outcome.level != CacheLevel::Memory) {
        classifyDemandHit(lineAddr(ref.paddr));
        if (ref.tlbMiss) {
            const bool llc = outcome.level == CacheLevel::LLC;
            if (ref.walkLeafDram) {
                ++stats_.replayAfterDramWalk;
                if (llc)
                    ++stats_.replayLlcHits;
                else
                    ++stats_.replayPrivateHits;
            }
            if (auto *o = obs::session()) {
                o->replayEnd(after_caches, ref.walkId,
                             llc ? obs::ReplayClass::LlcHit
                                 : obs::ReplayClass::PrivateHit);
            }
        }
        machine_.eq.schedule(after_caches,
                             hotCapture([this, r] { finishRef(r); }));
        return;
    }

    // Full cache miss. The decision point is when the LLC lookup
    // completes (after_caches): a TEMPO prefetch landing within the
    // lookup latency still counts as an LLC hit (hit during miss
    // handling), and one still in flight is merged with MSHR-style
    // instead of issuing a duplicate DRAM access (the paper's
    // partial-overlap case, Sec. 3).
    machine_.eq.schedule(after_caches,
                         hotCapture([this, r] { memoryAccess(r); }));
}

void
SimCore::memoryAccess(std::uint32_t r)
{
    prof::Scope prof_scope(prof::Component::Core);
    const RefRecord &ref = refs_[r];
    const Addr line = lineAddr(ref.paddr);

    if (ref.tlbMiss && machine_.llc.cache().contains(line)) {
        // The prefetch filled the LLC while our lookup was in flight.
        classifyDemandHit(line);
        machine_.llc.cache().lookup(line); // LRU touch
        caches.fillPrivate(line);
        if (ref.walkLeafDram) {
            ++stats_.replayAfterDramWalk;
            ++stats_.replayLlcHits;
        }
        if (auto *o = obs::session()) {
            o->replayEnd(machine_.eq.now(), ref.walkId,
                         obs::ReplayClass::LlcHit);
        }
        finishRef(r);
        return;
    }

    if (ref.tlbMiss
        && machine_.mc.mergeWithPendingPrefetch(
            line, hotCapture([this, r,
                              submit = machine_.eq.now()](Cycle done) {
                RefRecord &merged = refs_[r];
                caches.fillPrivate(merged.paddr);
                ++stats_.replayDramAccesses;
                merged.replayDramCycles = done > submit
                    ? static_cast<double>(done - submit)
                    : 0.0;
                if (merged.walkLeafDram) {
                    ++stats_.replayAfterDramWalk;
                    ++stats_.replayMerged;
                }
                if (auto *o = obs::session()) {
                    o->replayEnd(done, merged.walkId,
                                 obs::ReplayClass::Merged);
                }
                // The waiter runs at the prefetch's completion event,
                // which is never before `submit`.
                finishRef(r);
            }))) {
        return;
    }

    // A demand fill of this line may already be outstanding (another
    // reference or an IMP chain): wait on it rather than duplicating.
    if (mshr_.wait(line, hotCapture([this, r, submit = machine_.eq.now()](
                                        Cycle when) {
            RefRecord &merged = refs_[r];
            ++stats_.dataMshrMerges;
            caches.fillPrivate(merged.paddr);
            merged.replayDramCycles = 0;
            const double waited = when > submit
                ? static_cast<double>(when - submit)
                : 0.0;
            if (merged.tlbMiss) {
                ++stats_.replayDramAccesses;
                merged.replayDramCycles = waited;
                if (merged.walkLeafDram) {
                    ++stats_.replayAfterDramWalk;
                    // The replay waited on a DRAM array fill of its own
                    // line: it "needed DRAM" in the paper's sense.
                    ++stats_.replayDramAfterDramWalk;
                    ++stats_.replayArray;
                }
                if (auto *o = obs::session()) {
                    o->replayEnd(when, merged.walkId,
                                 obs::ReplayClass::Array);
                }
            } else {
                stats_.cyclesOtherDram += waited;
            }
            finishRef(r);
        }))) {
        classifyDemandMerge(line);
        return;
    }
    mshr_.open(line);
    classifyDemandMiss(line);

    MemRequest req;
    req.paddr = line;
    req.isWrite = ref.ref.isWrite;
    req.kind = ref.tlbMiss ? ReqKind::Replay : ReqKind::Regular;
    req.app = app_;
    req.walkId = ref.walkId;
    req.onComplete = hotCapture([this, r, submit_at = machine_.eq.now()](
                                    const MemResult &res) {
        const Addr writeback =
            caches.fill(refs_[r].paddr, refs_[r].ref.isWrite);
        if (writeback != kInvalidAddr)
            machine_.submitWriteback(writeback, app_);
        mshr_.close(lineAddr(refs_[r].paddr), res.complete);
        RefRecord &done = refs_[r];
        const double dram_cycles =
            static_cast<double>(res.complete - submit_at);
        if (done.tlbMiss) {
            ++stats_.replayDramAccesses;
            done.replayDramCycles = dram_cycles;
            const bool row_hit = res.rowEvent
                == static_cast<std::uint8_t>(RowEvent::Hit);
            if (done.walkLeafDram) {
                ++stats_.replayAfterDramWalk;
                ++stats_.replayDramAfterDramWalk;
                if (row_hit) {
                    ++stats_.replayRowHits;
                } else {
                    ++stats_.replayArray;
                }
            }
            if (auto *o = obs::session()) {
                o->replayEnd(res.complete, done.walkId,
                             row_hit ? obs::ReplayClass::RowHit
                                     : obs::ReplayClass::Array);
            }
        } else {
            ++stats_.regularDramAccesses;
            stats_.cyclesOtherDram += dram_cycles;
        }
        finishRef(r);
    });

    machine_.mc.submit(std::move(req));
}

void
SimCore::finishRef(std::uint32_t r)
{
    prof::Scope prof_scope(prof::Component::Core);
    const Cycle now = machine_.eq.now();
    const RefRecord &ref = refs_[r];
    stats_.cyclesPtwDram += ref.ptwDramCycles;
    stats_.cyclesReplayDram += ref.replayDramCycles;
    stats_.cyclesTotal += static_cast<double>(now - ref.issueAt);
    stats_.lastFinish = std::max(stats_.lastFinish, now);
    refs_.release(r);

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
    machine_.eq.schedule(machine_.eq.now(), hotCapture([this, paddr] {
        MemRequest req;
        req.paddr = paddr;
        req.isWrite = false;
        req.kind = ReqKind::ImpPrefetch;
        req.app = app_;
        req.onComplete = hotCapture(
            [this](const MemResult &) { --metadataInflight_; });
        machine_.mc.submit(std::move(req));
    }));
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

    const auto slot = static_cast<std::uint32_t>(idx);
    if (tlb_result.hit) {
        const Translation xlate = addressSpace.translate(target);
        TEMPO_ASSERT(xlate.valid, "TLB hit for unmapped page");
        machine_.eq.schedule(
            after_tlb,
            hotCapture([this, slot, paddr = xlate.physAddr(target)] {
                impData(paddr, slot);
            }));
        return;
    }

    const std::uint32_t w =
        newWalk(obs::WalkKind::CorePrefetch, slot, target);
    machine_.eq.schedule(after_tlb + cfg_.mmu.latency,
                         hotCapture([this, w] { walkStep(w); }));
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
    const std::uint32_t w = newWalk(obs::WalkKind::TlbPrefetch, 0, next);
    machine_.eq.scheduleIn(cfg_.mmu.latency,
                           hotCapture([this, w] { walkStep(w); }));
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
    if (mshr_.wait(lineAddr(paddr),
                   hotCapture([this](Cycle) { --impInflight_; })))
        return;
    mshr_.open(lineAddr(paddr));
    pendingPf_.try_emplace(lineAddr(paddr), idx);

    machine_.eq.schedule(
        machine_.eq.now() + outcome.latency, hotCapture([this, paddr] {
            MemRequest req;
            req.paddr = lineAddr(paddr);
            req.isWrite = false;
            req.kind = ReqKind::ImpPrefetch;
            req.app = app_;
            req.onComplete =
                hotCapture([this, paddr](const MemResult &res) {
                    // IMP fills into L1 (inclusive hierarchy).
                    const Addr writeback = caches.fill(paddr);
                    if (writeback != kInvalidAddr)
                        machine_.submitWriteback(writeback, app_);
                    mshr_.close(lineAddr(paddr), res.complete);
                    notePrefetchFill(lineAddr(paddr));
                    --impInflight_;
                });
            machine_.mc.submit(std::move(req));
        }));
}

} // namespace tempo
