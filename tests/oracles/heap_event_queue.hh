/**
 * @file
 * HeapEventQueue: the simulator's original binary-heap event scheduler,
 * kept with the tests as a reference implementation.
 *
 * Semantics are identical to EventQueue — global (when, insertion-seq)
 * execution order, FIFO for same-cycle events — but storage is a binary
 * heap of std::function callbacks, which heap-allocates every capture
 * larger than two pointers. It exists for two consumers:
 *
 *  - the randomized differential tests in tests/event_queue_test.cpp,
 *    which cross-check the calendar queue's execution order against it;
 *  - bench/perf_event_queue, which measures the calendar queue's
 *    events/sec against this baseline.
 *
 * It is never linked into the simulator, which uses EventQueue only.
 */

#ifndef TEMPO_ORACLES_HEAP_EVENT_QUEUE_HH
#define TEMPO_ORACLES_HEAP_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace tempo {

class HeapEventQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return now_; }

    void
    schedule(Cycle when, Callback cb)
    {
        TEMPO_ASSERT(when >= now_, "scheduling event in the past: ", when,
                     " < ", now_);
        heap_.push_back(Event{when, seq_++, std::move(cb)});
        std::push_heap(heap_.begin(), heap_.end(), after);
    }

    void
    scheduleIn(Cycle delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }

    Cycle
    nextTime() const
    {
        TEMPO_ASSERT(!heap_.empty(), "nextTime on empty queue");
        return heap_.front().when;
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), after);
        Event ev = std::move(heap_.back());
        heap_.pop_back();
        now_ = ev.when;
        ev.cb();
        ++executed_;
        return true;
    }

    void
    runAll()
    {
        while (step()) {
        }
    }

    void
    runUntil(Cycle until)
    {
        while (!heap_.empty() && heap_.front().when <= until)
            step();
        if (now_ < until)
            now_ = until;
    }

    std::uint64_t executed() const { return executed_; }

  private:
    struct Event {
        Cycle when;
        std::uint64_t seq;
        Callback cb;
    };

    /** Min-heap order on (when, seq). */
    static bool
    after(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    std::vector<Event> heap_;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace tempo

#endif // TEMPO_ORACLES_HEAP_EVENT_QUEUE_HH
