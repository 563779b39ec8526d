/**
 * @file
 * WaiterTable: the set of cache lines with a fill in flight, each with
 * a FIFO of callbacks to run when its fill completes. A core's MSHRs
 * and the TEMPO prefetch engine's pending-prefetch set are both one.
 *
 * Keys sit in an open-addressed array (linear probing, Fibonacci
 * hashing, backward-shift deletion, load factor at most 1/2). Every
 * FIFO's waiters share one RecordPool, linked by index. Neither grows
 * once a run reaches its peak number of outstanding lines and waiters.
 */

#ifndef TEMPO_COMMON_WAITER_TABLE_HH
#define TEMPO_COMMON_WAITER_TABLE_HH

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/record_pool.hh"
#include "common/types.hh"

namespace tempo {

template <typename Waiter>
class WaiterTable
{
  public:
    /** Lines currently open. */
    std::size_t size() const { return size_; }

    /** Open @p line with an empty FIFO; no-op when it is already open. */
    void
    open(Addr line)
    {
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        const std::size_t i = find(line);
        if (slots_[i].key == line)
            return;
        slots_[i] = Slot{line, kNone, kNone};
        ++size_;
    }

    /** Append @p waiter to @p line's FIFO and return true; return false
     * (dropping @p waiter) when @p line is not open. */
    bool
    wait(Addr line, Waiter waiter)
    {
        if (size_ == 0)
            return false;
        const std::size_t i = find(line);
        if (slots_[i].key != line)
            return false;
        const std::uint32_t n = nodes_.acquire();
        nodes_[n].fn = std::move(waiter);
        if (slots_[i].tail == kNone)
            slots_[i].head = n;
        else
            nodes_[slots_[i].tail].next = n;
        slots_[i].tail = n;
        return true;
    }

    /**
     * Close @p line (no-op when it is not open): unlink its whole FIFO
     * and erase the key first, then run each waiter with @p args in
     * arrival order. Waiters may re-enter — open the same line again,
     * wait on it, close others — and see a table without @p line.
     */
    template <typename... Args>
    void
    close(Addr line, Args... args)
    {
        if (size_ == 0)
            return;
        const std::size_t i = find(line);
        if (slots_[i].key != line)
            return;
        std::uint32_t n = slots_[i].head;
        erase(i);
        while (n != kNone) {
            Waiter fn = std::move(nodes_[n].fn);
            const std::uint32_t next = nodes_[n].next;
            nodes_.release(n);
            fn(args...);
            n = next;
        }
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    static constexpr Addr kEmpty = kInvalidAddr;
    static constexpr std::size_t kInitialSlots = 16;

    struct Slot {
        Addr key = kEmpty;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    struct Node {
        Waiter fn;
        std::uint32_t next = kNone;
    };

    std::size_t
    home(Addr line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** The slot holding @p line, or the empty slot ending its probe. */
    std::size_t
    find(Addr line) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(line);
        while (slots_[i].key != line && slots_[i].key != kEmpty)
            i = (i + 1) & mask;
        return i;
    }

    /** Backward-shift deletion: pull later members of the probe run
     * into the hole, so lookups never need tombstones. */
    void
    erase(std::size_t hole)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmpty;
             j = (j + 1) & mask) {
            // Slot j may fill the hole unless its home lies cyclically
            // in (hole, j].
            const std::size_t k = home(slots_[j].key);
            const bool stays = hole < j ? (hole < k && k <= j)
                                        : (hole < k || k <= j);
            if (!stays) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
    }

    /** Double the key array (the first open() allocates it) and
     * re-place every open line. */
    void
    grow()
    {
        std::vector<Slot> old(slots_.empty() ? kInitialSlots
                                             : slots_.size() * 2);
        old.swap(slots_);
        shift_ = 64 - std::countr_zero(slots_.size());
        for (const Slot &slot : old) {
            if (slot.key != kEmpty)
                slots_[find(slot.key)] = slot;
        }
    }

    std::vector<Slot> slots_; //!< empty until the first open()
    /** 64 - log2(slots_.size()): home() keeps the hash's top bits. */
    unsigned shift_ = 0;
    std::size_t size_ = 0;
    RecordPool<Node> nodes_;
};

} // namespace tempo

#endif // TEMPO_COMMON_WAITER_TABLE_HH
