/**
 * @file
 * FlatAddrTable: an open-addressed Addr -> V table for bookkeeping that
 * only grows. The VM layer keeps its host state in these: the page
 * table's PTE words keyed by simulated PTE address, and the address
 * space's touched-granule and demoted-region sets.
 *
 * Linear probing, Fibonacci hashing (as WaiterTable), at most 3/4
 * full, and no erase: a user that retires a key clears bits in its
 * value instead. With V = NoValue every slot is the 8-byte key alone,
 * a key-only set.
 */

#ifndef TEMPO_COMMON_FLAT_TABLE_HH
#define TEMPO_COMMON_FLAT_TABLE_HH

#include <bit>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace tempo {

template <typename V>
class FlatAddrTable
{
  public:
    /** @p key's value, or nullptr when @p key was never inserted. */
    const V *
    find(Addr key) const
    {
        const Slot &slot = slots_[probe(key)];
        return slot.key == key ? &slot.value : nullptr;
    }
    V *
    find(Addr key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** @p key's value, value-initialized when @p key is new: claims
     * its slot, first doubling the array if it would pass 3/4 full.
     * The reference lives until the next new key. */
    V &
    operator[](Addr key)
    {
        TEMPO_ASSERT(key != kEmpty, "the empty key cannot be stored");
        std::size_t i = probe(key);
        if (slots_[i].key == key)
            return slots_[i].value;
        if (++size_ * 4 > slots_.size() * 3) {
            std::vector<Slot> old(slots_.size() * 2);
            old.swap(slots_);
            shift_ = 64 - std::countr_zero(slots_.size());
            for (const Slot &slot : old) {
                if (slot.key != kEmpty)
                    slots_[probe(slot.key)] = slot;
            }
            i = probe(key);
        }
        slots_[i].key = key;
        return slots_[i].value;
    }

    void insert(Addr key) { (*this)[key]; }

  private:
    static constexpr Addr kEmpty = kInvalidAddr;
    static constexpr std::size_t kInitialSlots = 16;

    struct Slot {
        Addr key = kEmpty;
        [[no_unique_address]] V value{};
    };

    /** The slot holding @p key, or the empty slot ending its probe. */
    std::size_t
    probe(Addr key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
        while (slots_[i].key != key && slots_[i].key != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
    /** 64 - log2(slots_.size()): the hash's top bits pick the slot. */
    unsigned shift_ = 64 - std::countr_zero(kInitialSlots);
    std::size_t size_ = 0;
};

/** The value type of a key-only FlatAddrTable. */
struct NoValue {};

using FlatAddrSet = FlatAddrTable<NoValue>;

} // namespace tempo

#endif // TEMPO_COMMON_FLAT_TABLE_HH
