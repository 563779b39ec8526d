/**
 * @file
 * A small generic set-associative array of 64-bit keys with true LRU,
 * reused by the TLBs and MMU caches. Values are optional per-entry
 * payloads (e.g. the page size of a unified-TLB entry).
 *
 * Backed by the packed tag-array core (cache/tag_array.hh) when the
 * geometry fits it. The linear-scan implementation serves geometries
 * wider than TagArray::kMaxWays ways, chosen per instance, and doubles
 * as the differential-testing oracle when code sets
 * CacheConfig::useReferenceCache. Hit/miss/victim sequences are
 * identical on both paths.
 */

#ifndef TEMPO_VM_ASSOC_ARRAY_HH
#define TEMPO_VM_ASSOC_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/tag_array.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace tempo {

template <typename Payload = std::uint8_t>
class AssocArray
{
  public:
    AssocArray(unsigned entries, unsigned assoc,
               const CacheConfig &impl = {})
        : assoc_(assoc)
    {
        const std::string error = geometryError(entries, assoc);
        TEMPO_ASSERT(error.empty(), error);
        if (assoc_ > entries)
            assoc_ = entries;
        sets_ = entries / assoc_;
        useRef_ = impl.useReferenceCache
                  || !TagArray::packable(sets_, assoc_);
        if (useRef_) {
            slots_.resize(static_cast<std::size_t>(sets_) * assoc_);
        } else {
            tags_ = TagArray(sets_, assoc_);
            payloads_.resize(static_cast<std::size_t>(sets_) * assoc_);
        }
    }

    /** Why @p entries and @p assoc cannot form an array, or "" when
     * they can (an @p assoc above @p entries makes one full set). The
     * constructor asserts this; config loading reports it as an input
     * error. */
    static std::string
    geometryError(unsigned entries, unsigned assoc)
    {
        if (entries == 0 || assoc == 0)
            return "entries and associativity must be positive";
        const unsigned sets = assoc > entries ? 1 : entries / assoc;
        if (!isPow2(sets))
            return "set count must be a power of two, got "
                + std::to_string(sets) + " from " + std::to_string(entries)
                + "/" + std::to_string(assoc);
        return {};
    }

    /** Look up @p key; on hit promotes to MRU and returns the payload. */
    const Payload *
    lookup(std::uint64_t key)
    {
        if (useRef_) {
            Slot *slot = find(key);
            if (!slot) {
                ++misses_;
                return nullptr;
            }
            slot->lastUse = ++tick_;
            ++hits_;
            return &slot->payload;
        }
        const unsigned set = setOf(key);
        const int way = tags_.find(set, key);
        if (way < 0) {
            ++misses_;
            return nullptr;
        }
        tags_.promote(set, static_cast<unsigned>(way), key);
        ++hits_;
        return &payloads_[static_cast<std::size_t>(set) * assoc_
                          + static_cast<unsigned>(way)];
    }

    /** Presence probe without LRU update or stats. */
    bool
    contains(std::uint64_t key) const
    {
        if (useRef_)
            return const_cast<AssocArray *>(this)->find(key) != nullptr;
        return tags_.find(setOf(key), key) >= 0;
    }

    /** Insert (or refresh) @p key with @p payload. */
    void
    insert(std::uint64_t key, const Payload &payload = Payload{})
    {
        if (useRef_) {
            refInsert(key, payload);
            return;
        }
        const unsigned set = setOf(key);
        const int hit = tags_.find(set, key);
        const unsigned way =
            hit >= 0 ? static_cast<unsigned>(hit) : tags_.victimWay(set);
        if (hit >= 0)
            tags_.promote(set, way, key);
        else
            tags_.install(set, way, key, false);
        payloads_[static_cast<std::size_t>(set) * assoc_ + way] =
            payload;
    }

    /** Remove @p key if present. */
    void
    invalidate(std::uint64_t key)
    {
        if (useRef_) {
            if (Slot *slot = find(key))
                slot->valid = false;
            return;
        }
        const unsigned set = setOf(key);
        const int way = tags_.find(set, key);
        if (way >= 0)
            tags_.invalidateWay(set, static_cast<unsigned>(way));
    }

    void
    reset()
    {
        if (useRef_) {
            for (auto &slot : slots_)
                slot.valid = false;
            tick_ = 0;
        } else {
            tags_.reset();
        }
        hits_ = 0;
        misses_ = 0;
    }

    /** Clear the hit/miss counters, keeping contents (warmup). */
    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double
    hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_)
                / static_cast<double>(total)
                     : 0.0;
    }

    unsigned capacity() const { return sets_ * assoc_; }
    bool usingReference() const { return useRef_; }

  private:
    /** Reference-path slot (array-of-structs, global-tick LRU). */
    struct Slot {
        bool valid = false;
        std::uint64_t key = 0;
        Payload payload{};
        std::uint64_t lastUse = 0;
    };

    unsigned setOf(std::uint64_t key) const { return key & (sets_ - 1); }

    Slot *
    find(std::uint64_t key)
    {
        const unsigned set = setOf(key);
        for (unsigned w = 0; w < assoc_; ++w) {
            Slot &slot =
                slots_[static_cast<std::size_t>(set) * assoc_ + w];
            if (slot.valid && slot.key == key)
                return &slot;
        }
        return nullptr;
    }

    void
    refInsert(std::uint64_t key, const Payload &payload)
    {
        const unsigned set = setOf(key);
        Slot *victim = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            Slot &slot = slots_[static_cast<std::size_t>(set) * assoc_
                                + w];
            if (slot.valid && slot.key == key) {
                slot.payload = payload;
                slot.lastUse = ++tick_;
                return;
            }
            if (!victim || !slot.valid
                || (victim->valid && slot.lastUse < victim->lastUse)) {
                victim = &slot;
            }
        }
        victim->valid = true;
        victim->key = key;
        victim->payload = payload;
        victim->lastUse = ++tick_;
    }

    unsigned assoc_;
    unsigned sets_;
    bool useRef_ = false;

    TagArray tags_;                 //!< packed path
    std::vector<Payload> payloads_; //!< packed path, set-major
    std::vector<Slot> slots_;       //!< reference path
    std::uint64_t tick_ = 0;        //!< reference path LRU clock

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace tempo

#endif // TEMPO_VM_ASSOC_ARRAY_HH
