#include "cache/hierarchy.hh"

#include "common/log.hh"
#include "common/profiler.hh"

namespace tempo {

SharedLlc::SharedLlc(const CacheLevelConfig &cfg,
                     const CacheConfig &impl)
    : cache_(cfg.sizeBytes, cfg.assoc, impl), latency_(cfg.latency)
{
}

Addr
SharedLlc::prefetchFill(Addr addr)
{
    prof::Scope scope(prof::Component::Cache);
    const SetAssocCache::Victim victim =
        cache_.insertTracked(lineAddr(addr), false);
    ++prefetchFills_;
    return victim.dirty ? victim.addr : kInvalidAddr;
}

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &cfg,
                               SharedLlc *llc, const CacheConfig &impl)
    : cfg_(cfg), l1_(cfg.l1.sizeBytes, cfg.l1.assoc, impl),
      l2_(cfg.l2.sizeBytes, cfg.l2.assoc, impl), llc_(llc)
{
    TEMPO_ASSERT(llc_, "hierarchy needs a shared LLC");
}

void
CacheHierarchy::propagateVictim(const SetAssocCache::Victim &victim)
{
    if (victim.addr == kInvalidAddr || !victim.dirty)
        return;
    if (!llc_->cache().markDirty(victim.addr))
        ++droppedWritebacks_;
}

CacheOutcome
CacheHierarchy::access(Addr addr, bool is_write)
{
    prof::Scope scope(prof::Component::Cache);
    const Addr line = lineAddr(addr);
    Cycle latency = cfg_.l1.latency;
    if (l1_.lookup(line)) {
        if (is_write)
            l1_.markDirty(line);
        return {CacheLevel::L1, latency};
    }

    latency += cfg_.l2.latency;
    if (l2_.lookup(line)) {
        if (is_write)
            l2_.markDirty(line);
        propagateVictim(l1_.insertTracked(line, is_write));
        return {CacheLevel::L2, latency};
    }

    latency += llc_->latency();
    if (llc_->cache().lookup(line)) {
        if (is_write)
            llc_->cache().markDirty(line);
        propagateVictim(l2_.insertTracked(line, is_write));
        propagateVictim(l1_.insertTracked(line, is_write));
        return {CacheLevel::LLC, latency};
    }

    return {CacheLevel::Memory, latency};
}

Addr
CacheHierarchy::fill(Addr addr, bool is_write)
{
    prof::Scope scope(prof::Component::Cache);
    const Addr line = lineAddr(addr);
    const SetAssocCache::Victim llc_victim =
        llc_->cache().insertTracked(line, is_write);
    propagateVictim(l2_.insertTracked(line, is_write));
    propagateVictim(l1_.insertTracked(line, is_write));
    return llc_victim.dirty ? llc_victim.addr : kInvalidAddr;
}

void
CacheHierarchy::fillPrivate(Addr addr)
{
    prof::Scope scope(prof::Component::Cache);
    const Addr line = lineAddr(addr);
    propagateVictim(l2_.insertTracked(line, false));
    propagateVictim(l1_.insertTracked(line, false));
}

void
CacheHierarchy::report(stats::Report &out) const
{
    out.add("l1.hits", l1_.hits());
    out.add("l1.misses", l1_.misses());
    out.add("l1.hit_rate", l1_.hitRate());
    out.add("l2.hits", l2_.hits());
    out.add("l2.misses", l2_.misses());
    out.add("l2.hit_rate", l2_.hitRate());
    out.add("llc.hits", llc_->cache().hits());
    out.add("llc.misses", llc_->cache().misses());
    out.add("llc.hit_rate", llc_->cache().hitRate());
    out.add("llc.prefetch_fills", llc_->prefetchFills());
}

} // namespace tempo
