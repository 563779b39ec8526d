#include "cache/set_assoc.hh"

#include <limits>

#include "common/log.hh"

namespace tempo {

namespace {
constexpr unsigned kLineShift = 6;
static_assert(kLineBytes == (Addr{1} << kLineShift));
} // namespace

SetAssocCache::SetAssocCache(Addr size_bytes, unsigned assoc,
                             const CacheConfig &impl)
    : sizeBytes_(size_bytes), assoc_(assoc)
{
    const std::string error = geometryError(size_bytes, assoc);
    TEMPO_ASSERT(error.empty(), error);
    numSets_ = static_cast<unsigned>(size_bytes / kLineBytes / assoc);
    setShift_ = log2Exact(numSets_);
    useRef_ = impl.useReferenceCache
              || !TagArray::packable(numSets_, assoc_);
    if (useRef_) {
        lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
    } else {
        tags_ = TagArray(numSets_, assoc_);
    }
}

std::string
SetAssocCache::geometryError(Addr size_bytes, unsigned assoc)
{
    if (assoc == 0)
        return "associativity must be positive";
    const Addr lines = size_bytes / kLineBytes;
    if (lines < assoc)
        return "cache smaller than one set";
    const Addr sets = lines / assoc;
    if (!isPow2(sets) || sets > std::numeric_limits<unsigned>::max())
        return "set count must be a power of two below 2^32, got "
            + std::to_string(sets);
    return {};
}

unsigned
SetAssocCache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> kLineShift)
                                 & (numSets_ - 1));
}

Addr
SetAssocCache::tagOf(Addr addr) const
{
    return (addr >> kLineShift) >> setShift_;
}

bool
SetAssocCache::lookup(Addr addr)
{
    if (useRef_)
        return refLookup(addr);
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const int way = tags_.find(set, tag);
    if (way >= 0) {
        tags_.promote(set, static_cast<unsigned>(way), tag);
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

bool
SetAssocCache::contains(Addr addr) const
{
    if (useRef_)
        return refContains(addr);
    return tags_.find(setIndex(addr), tagOf(addr)) >= 0;
}

Addr
SetAssocCache::insert(Addr addr)
{
    return insertTracked(addr, false).addr;
}

SetAssocCache::Victim
SetAssocCache::insertTracked(Addr addr, bool dirty)
{
    if (useRef_)
        return refInsertTracked(addr, dirty);
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const int hit = tags_.find(set, tag);
    if (hit >= 0) { // already present: refresh
        tags_.promote(set, static_cast<unsigned>(hit), tag);
        if (dirty)
            tags_.markDirtyWay(set, static_cast<unsigned>(hit));
        return Victim{};
    }
    const unsigned way = tags_.victimWay(set);
    Victim evicted;
    if (tags_.validWay(set, way)) {
        evicted.addr = ((tags_.tagOfWay(set, way) << setShift_) | set)
                       << kLineShift;
        evicted.dirty = tags_.dirtyWay(set, way);
    }
    tags_.install(set, way, tag, dirty);
    return evicted;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    if (useRef_)
        return refMarkDirty(addr);
    const unsigned set = setIndex(addr);
    const int way = tags_.find(set, tagOf(addr));
    if (way < 0)
        return false;
    tags_.markDirtyWay(set, static_cast<unsigned>(way));
    return true;
}

bool
SetAssocCache::isDirty(Addr addr) const
{
    if (useRef_)
        return refIsDirty(addr);
    const unsigned set = setIndex(addr);
    const int way = tags_.find(set, tagOf(addr));
    return way >= 0 && tags_.dirtyWay(set, static_cast<unsigned>(way));
}

bool
SetAssocCache::invalidate(Addr addr)
{
    if (useRef_)
        return refInvalidate(addr);
    const unsigned set = setIndex(addr);
    const int way = tags_.find(set, tagOf(addr));
    if (way < 0)
        return false;
    return tags_.invalidateWay(set, static_cast<unsigned>(way));
}

void
SetAssocCache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
}

void
SetAssocCache::reset()
{
    if (useRef_) {
        for (auto &line : lines_)
            line.valid = false;
        tick_ = 0;
    } else {
        tags_.reset();
    }
    hits_ = 0;
    misses_ = 0;
}

// --- Reference path (the pre-packed implementation, kept verbatim as
// the differential-testing oracle) ---

bool
SetAssocCache::refLookup(Addr addr)
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * assoc_ + w];
        if (line.valid && line.tag == tag) {
            line.lastUse = ++tick_;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

bool
SetAssocCache::refContains(Addr addr) const
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        const Line &line =
            lines_[static_cast<std::size_t>(set) * assoc_ + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

SetAssocCache::Victim
SetAssocCache::refInsertTracked(Addr addr, bool dirty)
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *victim = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * assoc_ + w];
        if (line.valid && line.tag == tag) {
            line.lastUse = ++tick_; // already present: refresh
            line.dirty = line.dirty || dirty;
            return Victim{};
        }
        if (!victim || !line.valid
            || (victim->valid && line.lastUse < victim->lastUse)) {
            victim = &line;
        }
    }
    Victim evicted;
    if (victim->valid) {
        evicted.addr = (victim->tag * numSets_ + set) * kLineBytes;
        evicted.dirty = victim->dirty;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->lastUse = ++tick_;
    return evicted;
}

bool
SetAssocCache::refMarkDirty(Addr addr)
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * assoc_ + w];
        if (line.valid && line.tag == tag) {
            line.dirty = true;
            return true;
        }
    }
    return false;
}

bool
SetAssocCache::refIsDirty(Addr addr) const
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        const Line &line =
            lines_[static_cast<std::size_t>(set) * assoc_ + w];
        if (line.valid && line.tag == tag)
            return line.dirty;
    }
    return false;
}

bool
SetAssocCache::refInvalidate(Addr addr)
{
    const unsigned set = setIndex(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        Line &line = lines_[static_cast<std::size_t>(set) * assoc_ + w];
        if (line.valid && line.tag == tag) {
            line.valid = false;
            return line.dirty;
        }
    }
    return false;
}

} // namespace tempo
