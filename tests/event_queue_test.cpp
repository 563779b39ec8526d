#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/event_queue.hh"
#include "oracles/heap_event_queue.hh"

namespace tempo {
namespace {

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, CallbackMayScheduleSameCycle)
{
    EventQueue eq;
    bool nested = false;
    eq.schedule(7, [&] { eq.schedule(7, [&] { nested = true; }); });
    eq.runAll();
    EXPECT_TRUE(nested);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 15u);
    eq.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue eq;
    eq.schedule(42, [] {});
    eq.schedule(17, [] {});
    EXPECT_EQ(eq.nextTime(), 17u);
}

TEST(EventQueue, ExecutedCountsEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.runAll();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runAll();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(EventQueue, ManyInterleavedEventsStaySorted)
{
    EventQueue eq;
    Cycle last = 0;
    bool monotone = true;
    // Pseudo-random times, inserted out of order.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const Cycle when = (i * 7919) % 5000;
        eq.schedule(when, [&, when] {
            if (when < last)
                monotone = false;
            last = when;
        });
    }
    eq.runAll();
    EXPECT_TRUE(monotone);
}

// --- Calendar-queue invariants ------------------------------------
//
// The wheel has 1024 slots, so cycles T and T+1024 share a bucket and
// events farther than 1024 cycles out live in the overflow tier. These
// tests pin the determinism contract across those internal boundaries.

TEST(EventQueue, SameBucketDifferentCycleStaysSorted)
{
    // 100 and 1124 map to the same wheel slot (1124 = 100 + 1024);
    // insertion in reverse time order must not reorder execution.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1124, [&] { order.push_back(2); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(2148, [&] { order.push_back(3); }); // 100 + 2*1024
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleFifoAcrossWheelWrap)
{
    // Events at a cycle beyond the wheel horizon go to the overflow
    // tier; once time wraps the wheel around to their slot they must
    // still run in insertion order.
    EventQueue eq;
    std::vector<int> order;
    const Cycle far = 5000; // > kWheelSlots away from now = 0
    for (int i = 0; i < 8; ++i)
        eq.schedule(far, [&order, i] { order.push_back(i); });
    // Keep time moving so the wheel actually rotates through the wrap.
    for (Cycle t = 100; t < far; t += 100)
        eq.schedule(t, [] {});
    eq.runAll();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, OverflowPromotionPreservesFifoWithLateInsert)
{
    // A overflows in at t=2000 (far from now=0). A filler at t=1500
    // brings t=2000 within the wheel horizon — A is promoted at that
    // advance — and then schedules B, also at t=2000. A was inserted
    // first globally, so A must run before B.
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(2000, [&] { order.push_back('A'); });
    eq.schedule(1500, [&] {
        eq.schedule(2000, [&] { order.push_back('B'); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(EventQueue, RunUntilBoundaryAcrossOverflowTier)
{
    // runUntil must execute events exactly at the boundary, including
    // ones that start out in the overflow tier, and not touch later
    // ones even when they share a wheel slot with executed ones.
    EventQueue eq;
    int fired = 0;
    eq.schedule(3000, [&] { ++fired; });        // overflow at insert
    eq.schedule(3000 + 1024, [&] { ++fired; }); // same slot, later
    eq.runUntil(3000);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 3000u);
    eq.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RandomizedStressMatchesReferenceHeap)
{
    // Differential test: run the same script — including events that
    // schedule more events — on the calendar queue and on the plain
    // binary-heap reference; execution (id, time) sequences must be
    // identical. Deltas are drawn so the run crosses wheel wraps and
    // the overflow tier many times; same-cycle collisions are common.
    struct Step {
        int id;
        Cycle delta;
        int children; // events this one schedules when it runs
    };
    std::vector<Step> script;
    std::uint64_t state = 99;
    auto rnd = [&state](std::uint64_t mod) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return (state >> 33) % mod;
    };
    for (int i = 0; i < 2000; ++i) {
        Cycle delta = rnd(64); // mostly near: frequent collisions
        if (rnd(10) == 0)
            delta = 900 + rnd(4000); // sometimes straddles the horizon
        script.push_back({i, delta,
                          static_cast<int>(rnd(4) == 0 ? rnd(3) : 0)});
    }

    auto run = [&script](auto &eq) {
        std::vector<std::pair<int, Cycle>> trace;
        std::size_t next = 0;
        // One "driver" chain pulls steps off the script; each step may
        // recursively schedule children (depth-first off the script).
        struct Driver {
            static void
            fire(decltype(eq) &q, std::vector<Step> &steps,
                 std::size_t &cursor,
                 std::vector<std::pair<int, Cycle>> &out, int children)
            {
                for (int c = 0; c < children; ++c) {
                    if (cursor >= steps.size())
                        return;
                    const Step s = steps[cursor++];
                    q.scheduleIn(s.delta, [&q, &steps, &cursor, &out, s] {
                        out.emplace_back(s.id, q.now());
                        fire(q, steps, cursor, out, s.children);
                    });
                }
            }
        };
        while (next < script.size()) {
            // Seed in bursts of 5 from whatever "now" is, then drain.
            for (int b = 0; b < 5 && next < script.size(); ++b) {
                const Step s = script[next++];
                eq.scheduleIn(s.delta, [&eq, &script, &next, &trace, s] {
                    trace.emplace_back(s.id, eq.now());
                    Driver::fire(eq, script, next, trace, s.children);
                });
            }
            eq.runAll();
        }
        return trace;
    };

    EventQueue calendar;
    HeapEventQueue heap;
    const auto calendar_trace = run(calendar);
    const auto heap_trace = run(heap);
    ASSERT_EQ(calendar_trace.size(), heap_trace.size());
    EXPECT_EQ(calendar_trace, heap_trace);
    EXPECT_EQ(calendar.now(), heap.now());
    EXPECT_EQ(calendar.executed(), heap.executed());
}

TEST(EventQueue, InlineCallbacksDoNotAllocatePerEvent)
{
    // Capture sizes up to EventQueue::kInlineBytes stay in the node's
    // inline buffer (the hot path's allocation-free guarantee); one
    // word more takes the heap fallback.
    struct Fits {
        std::uint64_t words[EventQueue::kInlineBytes / 8];
    };
    static_assert(sizeof(Fits) == EventQueue::kInlineBytes);
    EventQueue::Callback cb{[big = Fits{}] { (void)big; }};
    EXPECT_TRUE(cb.inlineStored());

    struct TooBig {
        std::uint64_t words[EventQueue::kInlineBytes / 8 + 1];
    };
    static_assert(sizeof(TooBig) == EventQueue::kInlineBytes + 8);
    EventQueue::Callback fat{[big = TooBig{}] { (void)big; }};
    EXPECT_FALSE(fat.inlineStored());
}

} // namespace
} // namespace tempo
