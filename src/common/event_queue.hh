/**
 * @file
 * The discrete-event scheduler: a bucketed calendar queue (timing
 * wheel) with an overflow tier for far-future events.
 *
 * Every timed interaction in the simulator — core issue slots, page table
 * walk steps, memory controller wakeups, DRAM command completions — is an
 * event on one global queue. Events at the same cycle execute in FIFO
 * insertion order, which keeps the simulation deterministic.
 *
 * Design (see docs/MODEL.md "Scheduler internals"):
 *  - Events within kWheelSlots cycles of now() live in a wheel of
 *    per-cycle FIFO buckets indexed by `when % kWheelSlots`; a two-level
 *    bitmap finds the next occupied slot in a handful of word scans.
 *  - Far-future events sit in a binary-heap overflow tier ordered by
 *    (when, seq) and are promoted into the wheel whenever now() advances,
 *    before any later insertion can target the same cycle — so global
 *    (when, insertion-seq) order is preserved exactly, bit-identical to
 *    a single ordered heap.
 *  - Event storage is allocation-free on the hot path: intrusive
 *    64-byte nodes (a link plus an InlineFunction whose capture is
 *    built in place by schedule()), recycled through a freelist backed
 *    by a chunked arena. Only overflow entries carry (when, seq).
 */

#ifndef TEMPO_COMMON_EVENT_QUEUE_HH
#define TEMPO_COMMON_EVENT_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_function.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "common/watchdog.hh"

namespace tempo {

/**
 * Time-ordered queue of callbacks. schedule() may be called from inside a
 * running callback (including for the current cycle).
 */
class EventQueue
{
  public:
    /** Inline capture capacity: sized so every hot-path event in the
     * simulator (issue slots, walk steps, MC kicks, DRAM completions
     * carrying a DramResult, TEMPO prefetch launches) stays in the
     * node, and a node fills one 64-byte host cache line. */
    static constexpr std::size_t kInlineBytes = 48;

    using Callback = InlineFunction<void(), kInlineBytes>;

    /** Wheel horizon in cycles. Most events are scheduled at most a few
     * hundred cycles out (≤ tRC plus queueing); anything further goes to
     * the overflow tier. Power of two for mask indexing. */
    static constexpr std::size_t kWheelSlots = 1024;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. Monotonically non-decreasing. */
    Cycle now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now()). The
     * callable is built in its event node: no temporary Callback. */
    template <typename F>
    void
    schedule(Cycle when, F &&fn)
    {
        TEMPO_ASSERT(when >= now_, "scheduling event in the past: ", when,
                     " < ", now_);
        Node *node = acquire();
        node->cb.emplace(std::forward<F>(fn));
        if (when - now_ < kWheelSlots)
            appendToWheel(node, when);
        else
            pushOverflow(node, when);
    }

    /** Schedule @p fn to run @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycle delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /** True when no events remain. */
    bool empty() const { return wheelCount_ == 0 && overflow_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return wheelCount_ + overflow_.size(); }

    /** Time of the next event; invalid to call when empty. */
    Cycle
    nextTime() const
    {
        TEMPO_ASSERT(!empty(), "nextTime on empty queue");
        if (wheelCount_ == 0)
            return overflow_.front().when;
        return nextWheelTime();
    }

    /** Run one event. Returns false if the queue was empty. */
    bool
    step()
    {
        if (empty())
            return false;
        advanceTo(nextTime());

        Bucket &bucket = buckets_[now_ & kMask];
        Node *node = bucket.head;
        bucket.head = node->next;
        if (bucket.head == nullptr) {
            bucket.tail = nullptr;
            clearBit(now_ & kMask);
        }
        --wheelCount_;

        node->cb();
        ++executed_;
        release(node);
        return true;
    }

    /** Run until the queue drains. Polls the per-thread watchdog so a
     * runaway simulation can be cancelled by wall-clock deadline (the
     * disarmed fast path is a thread-local decrement). */
    void
    runAll()
    {
        while (step())
            watchdog::poll();
    }

    /** Run all events with time <= @p until; advances now() to @p until. */
    void
    runUntil(Cycle until)
    {
        while (!empty() && nextTime() <= until)
            step();
        if (now_ < until)
            advanceTo(until);
    }

    /** Total number of events executed (for diagnostics). */
    std::uint64_t executed() const { return executed_; }

  private:
    static constexpr Cycle kMask = kWheelSlots - 1;
    static constexpr std::size_t kWords = kWheelSlots / 64;
    static constexpr std::size_t kChunkNodes = 256;

    /** One host cache line. A wheel node's time is its slot (all wheel
     * events lie within kWheelSlots of now()), so only overflow entries
     * carry a time and a sequence number. */
    struct alignas(64) Node {
        Node *next;
        Callback cb;
    };
    static_assert(sizeof(Node) == 64, "an event node is one cache line");

    /** Far-future entry; (when, seq) keeps the global insertion order. */
    struct Overflow {
        Cycle when;
        std::uint64_t seq;
        Node *node;
    };

    struct Bucket {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** Pops min-(when, seq) first. */
    static bool
    overflowAfter(const Overflow &a, const Overflow &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    Node *
    acquire()
    {
        if (free_ == nullptr)
            grow();
        Node *node = free_;
        free_ = node->next;
        return node;
    }

    void
    release(Node *node)
    {
        node->cb.reset();
        node->next = free_;
        free_ = node;
    }

    void
    grow()
    {
        chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
        Node *chunk = chunks_.back().get();
        for (std::size_t i = 0; i < kChunkNodes; ++i) {
            chunk[i].next = free_;
            free_ = &chunk[i];
        }
    }

    void
    appendToWheel(Node *node, Cycle when)
    {
        node->next = nullptr;
        Bucket &bucket = buckets_[when & kMask];
        if (bucket.tail == nullptr) {
            bucket.head = node;
            setBit(when & kMask);
        } else {
            bucket.tail->next = node;
        }
        bucket.tail = node;
        ++wheelCount_;
    }

    void
    pushOverflow(Node *node, Cycle when)
    {
        overflow_.push_back(Overflow{when, overflowSeq_++, node});
        std::push_heap(overflow_.begin(), overflow_.end(), overflowAfter);
    }

    /**
     * Move now() to @p t and pull newly in-horizon overflow events into
     * the wheel. Promotion happens on every advance, before any later
     * schedule() can insert directly at the same cycle, so same-cycle
     * FIFO order (global seq order) survives the tier crossing.
     */
    void
    advanceTo(Cycle t)
    {
        now_ = t;
        while (!overflow_.empty()
               && overflow_.front().when - now_ < kWheelSlots) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          overflowAfter);
            const Overflow entry = overflow_.back();
            overflow_.pop_back();
            appendToWheel(entry.node, entry.when);
        }
    }

    void setBit(std::size_t idx) { occupied_[idx / 64] |= 1ull << (idx % 64); }
    void
    clearBit(std::size_t idx)
    {
        occupied_[idx / 64] &= ~(1ull << (idx % 64));
    }

    /** Earliest event time in the wheel; wheelCount_ must be > 0. All
     * wheel events lie in [now_, now_ + kWheelSlots), so the first
     * occupied slot at circular distance d from now_ holds time
     * now_ + d. */
    Cycle
    nextWheelTime() const
    {
        const std::size_t start = now_ & kMask;
        std::size_t word = start / 64;
        std::uint64_t bits = occupied_[word] >> (start % 64);
        if (bits != 0)
            return now_ + std::countr_zero(bits);
        // Full words after the start word, wrapping once around; the
        // final iteration revisits the start word, whose remaining set
        // bits (if any) are all below start%64 — the partial scan above
        // would have caught the rest.
        std::size_t dist = 64 - start % 64;
        for (std::size_t i = 1; i <= kWords; ++i) {
            word = (start / 64 + i) % kWords;
            if (occupied_[word] != 0)
                return now_ + dist + std::countr_zero(occupied_[word]);
            dist += 64;
        }
        TEMPO_PANIC("wheelCount_ > 0 but no occupied slot");
    }

    Bucket buckets_[kWheelSlots];
    std::uint64_t occupied_[kWords] = {};
    std::size_t wheelCount_ = 0;
    std::vector<Overflow> overflow_;

    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *free_ = nullptr;

    Cycle now_ = 0;
    std::uint64_t overflowSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace tempo

#endif // TEMPO_COMMON_EVENT_QUEUE_HH
