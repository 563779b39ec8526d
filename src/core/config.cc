#include "core/config.hh"

#include <stdexcept>

#include "common/fnv.hh"
#include "prefetch/registry.hh"

namespace tempo {

namespace {

void
hashCacheLevel(Fnv1a &h, const CacheLevelConfig &c)
{
    h.u64(c.sizeBytes);
    h.u64(c.assoc);
    h.u64(c.latency);
}

} // namespace

std::uint64_t
SystemConfig::digest() const
{
    // Every knob of every substrate feeds the hash. A new config field
    // must be added here, or two configs differing only in that field
    // would share a digest and a sweep checkpoint could restore a
    // stale point for it (see core/checkpoint.hh).
    Fnv1a h;

    h.u64(tlb.l1Entries4K);
    h.u64(tlb.l1Assoc4K);
    h.u64(tlb.l1Entries2M);
    h.u64(tlb.l1Assoc2M);
    h.u64(tlb.l1Entries1G);
    h.u64(tlb.l1Assoc1G);
    h.u64(tlb.l2Entries);
    h.u64(tlb.l2Assoc);
    h.u64(tlb.l1Latency);
    h.u64(tlb.l2Latency);

    h.u64(mmu.entriesPerLevel);
    h.u64(mmu.assoc);
    h.u64(mmu.latency);

    hashCacheLevel(h, caches.l1);
    hashCacheLevel(h, caches.l2);
    hashCacheLevel(h, caches.llc);

    h.u64(dram.channels);
    h.u64(dram.ranksPerChannel);
    h.u64(dram.banksPerRank);
    h.u64(dram.rowBufferBytes);
    h.e(dram.rowPolicy);
    h.e(dram.subRowAlloc);
    h.u64(dram.subRowCount);
    h.u64(dram.subRowsForPrefetch);
    h.u64(dram.tRCD);
    h.u64(dram.tRP);
    h.u64(dram.tCAS);
    h.u64(dram.tBurst);
    h.u64(dram.tRAS);
    h.e(dram.refreshEnabled);
    h.u64(dram.tREFI);
    h.u64(dram.tRFC);
    h.f64(dram.eAct);
    h.f64(dram.ePre);
    h.f64(dram.eColRead);
    h.f64(dram.eColWrite);
    h.f64(dram.eRefresh);
    h.f64(dram.pStatic);
    h.u64(dram.predictorSets);
    h.u64(dram.predictorWays);

    h.e(mc.sched);
    h.e(mc.tempoEnabled);
    h.e(mc.tempoLlcFill);
    h.u64(mc.tempoPtRowHold);
    h.u64(mc.tempoGracePeriod);
    h.e(mc.tempoGrouping);
    h.u64(mc.prefetchEngineDelay);
    h.u64(mc.prefetchDropDepth);
    h.u64(mc.scheduler.starvationLimit);
    h.e(mc.scheduler.tempoGrouping);
    h.u64(mc.scheduler.blissThreshold);
    h.u64(mc.scheduler.blissClearInterval);
    h.u64(mc.scheduler.blissNormalWeight);
    h.u64(mc.scheduler.blissPrefetchWeight);
    h.e(mc.scheduler.blissTempoAffinity);

    h.u64(os.physBytes);
    h.f64(os.fragLevel);
    h.u64(os.seed);

    h.e(vm.policy);
    h.f64(vm.thpEligibleFrac);
    h.f64(vm.hugetlbfs2MFrac);
    h.f64(vm.hugetlbfs1GFrac);
    h.u64(vm.seed);

    // translator.* (memo sizes) and cache.useReferenceCache are
    // deliberately not hashed: every memo size and both tag-array paths
    // produce bit-identical results (the TranslatorByteIdentity and
    // CacheByteIdentity ctests pin this), so two configs differing only
    // there describe the same experiment point.

    h.u64(imp.prefetchTableEntries);
    h.u64(imp.ipdEntries);
    h.u64(imp.maxIndirectLevels);
    h.u64(imp.prefetchDistance);
    h.u64(imp.trainThreshold);
    h.f64(imp.coverage);
    h.f64(imp.accuracy);
    h.u64(imp.seed);

    h.u64(stride.tableEntries);
    h.u64(stride.confidenceThreshold);
    h.u64(stride.degree);
    h.u64(stride.distance);

    h.u64(prefetch.engines.size());
    for (const auto &name : prefetch.engines)
        h.bytes(name.data(), name.size());

    h.u64(tskid.tableEntries);
    h.u64(tskid.confidenceThreshold);
    h.u64(tskid.degree);
    h.u64(tskid.distance);
    h.u64(tskid.leadCycles);
    h.u64(tskid.maxPending);

    h.u64(misb.pairEntries);
    h.u64(misb.metadataCacheEntries);
    h.u64(misb.degree);
    h.u64(misb.trainThreshold);
    h.u64(misb.maxMetadataInflight);

    h.u64(temporal.tableEntries);
    h.u64(temporal.confidenceThreshold);
    h.u64(temporal.degree);
    h.u64(temporal.trainThreshold);

    h.f64(energy.corePowerPerCycle);
    h.f64(energy.mcEnergyPerRequest);
    h.f64(energy.tempoMcAreaOverhead);
    h.f64(energy.tempoWalkerAreaOverhead);

    h.u64(mlpWindow);
    h.e(useWorkloadMlpHint);
    h.u64(issueGap);
    h.u64(tlbFillLatency);
    h.u64(pageFaultLatency);
    h.u64(impMaxInflight);
    h.e(tlbPrefetchNext);
    h.u64(seed);

    return h.state;
}

SystemConfig
SystemConfig::skylakeScaled()
{
    SystemConfig cfg;

    // Scaled cache hierarchy: the LLC is deliberately small relative to
    // the workloads' leaf-PTE working sets (DESIGN.md Sec. 2).
    cfg.caches.l1 = {32 * 1024, 8, 4};
    cfg.caches.l2 = {128 * 1024, 8, 14};
    cfg.caches.llc = {256 * 1024, 16, 42};

    // Skylake-style TLBs and MMU caches.
    cfg.tlb = TlbConfig{};
    cfg.mmu = MmuCacheConfig{};

    // DRAM: adaptive row policy, 8KB rows, FR-FCFS (paper Sec. 6 intro).
    cfg.dram = DramConfig{};
    cfg.dram.rowPolicy = RowPolicyKind::Adaptive;

    cfg.mc = McConfig{};
    cfg.mc.sched = SchedKind::FrFcfs;
    cfg.mc.tempoEnabled = false;

    cfg.os = OsMemoryConfig{};
    cfg.vm = AddressSpaceConfig{};
    cfg.vm.policy = PagePolicy::Thp;

    return cfg;
}

SystemConfig &
SystemConfig::withTempo(bool on)
{
    mc.tempoEnabled = on;
    return *this;
}

SystemConfig &
SystemConfig::withSched(SchedKind kind)
{
    mc.sched = kind;
    return *this;
}

SystemConfig &
SystemConfig::withPrefetchers(const std::string &csv)
{
    prefetch.engines = parsePrefetcherList(csv);
    return *this;
}

SystemConfig &
SystemConfig::withSeed(std::uint64_t new_seed)
{
    seed = new_seed;
    os.seed = new_seed + 1;
    vm.seed = new_seed + 2;
    return *this;
}

SystemConfig &
SystemConfig::withShards(unsigned shards)
{
    if (shards != 0)
        throw std::invalid_argument(
            "withShards: the sharded engine was removed; only 0 (the "
            "inline engine) is accepted");
    return *this;
}

} // namespace tempo
