/**
 * @file
 * perf_event_queue: events/sec of the calendar-queue EventQueue vs the
 * binary-heap + std::function reference implementation it replaced.
 *
 *   perf_event_queue [--events N]
 *
 * Three patterns modelled on the simulator's real scheduling mix:
 *
 *   hot    — every delta <= ~300 cycles (tRC-ish), the common case the
 *            wheel is sized for; each event reschedules a successor.
 *   mixed  — 90% near deltas, 10% far (refresh/row-hold style), so the
 *            overflow tier and its promotion path get exercised.
 *   fanout — bursts of same-cycle events (MSHR release storms).
 *
 * Callbacks capture ~32 bytes so std::function must heap-allocate in
 * the reference queue — the honest old cost — while the new queue's
 * inline storage absorbs them. Output is plain text plus a final
 * geomean speedup line; the CI perf-smoke job prints it informationally.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/event_queue.hh"
#include "oracles/heap_event_queue.hh"

namespace {

using tempo::Cycle;

/** splitmix64: deterministic, seedable, no <random> state overhead. */
struct Rng {
    std::uint64_t x;
    std::uint64_t
    next()
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

/** Per-event payload: big enough that std::function heap-allocates. */
struct Payload {
    std::uint64_t acc = 0;
    std::uint64_t rngState = 0;
    std::uint64_t spare[2] = {};
};

// Each pattern seeds `width` self-sustaining event chains and runs
// until `target` events have executed. The callback captures the queue
// pointer, a sink pointer, and a Payload (~32+ bytes total).

template <typename Queue>
void
chainEvent(Queue &eq, std::uint64_t *sink, Payload p, std::uint64_t limit,
           Cycle delta, Cycle delta_near, unsigned far_percent)
{
    eq.scheduleIn(
        delta,
        [&eq, sink, p, limit, delta_near, far_percent]() mutable {
            *sink += p.acc;
            if (eq.executed() >= limit)
                return;
            Rng rng{p.rngState};
            p.rngState = rng.next();
            p.acc ^= p.rngState;
            // Delta drawn per event: mostly near, sometimes far.
            Cycle next = 1 + (p.rngState % delta_near);
            if (far_percent != 0 && (p.rngState % 100) < far_percent)
                next = 2000 + (p.rngState % 100000);
            chainEvent(eq, sink, p, limit, next, delta_near,
                       far_percent);
        });
}

template <typename Queue>
void
fanoutEvent(Queue &eq, std::uint64_t *sink, Payload p, std::uint64_t limit)
{
    eq.scheduleIn(
        1 + (p.rngState % 200),
        [&eq, sink, p, limit]() mutable {
            *sink += p.acc;
            if (eq.executed() >= limit)
                return;
            Rng rng{p.rngState};
            // A burst of 4 events at one cycle, then one continuation.
            const Cycle burst_at = 1 + (rng.next() % 200);
            for (int i = 0; i < 4; ++i) {
                const std::uint64_t tag = rng.next();
                eq.scheduleIn(burst_at, [sink, tag] { *sink += tag; });
            }
            p.rngState = rng.next();
            p.acc ^= p.rngState;
            fanoutEvent(eq, sink, p, limit);
        });
}

template <typename Queue>
double
runPattern(const char *pattern, std::uint64_t target)
{
    Queue eq;
    std::uint64_t sink = 0;
    Rng seed_rng{12345};
    constexpr unsigned kWidth = 64; // concurrent chains ~= MLP window
    for (unsigned i = 0; i < kWidth; ++i) {
        Payload p;
        p.rngState = seed_rng.next();
        p.acc = i;
        if (std::strcmp(pattern, "hot") == 0)
            chainEvent(eq, &sink, p, target, 1 + (p.rngState % 300),
                       300, 0);
        else if (std::strcmp(pattern, "mixed") == 0)
            chainEvent(eq, &sink, p, target, 1 + (p.rngState % 300),
                       300, 10);
        else
            fanoutEvent(eq, &sink, p, target);
    }

    const auto start = std::chrono::steady_clock::now();
    while (!eq.empty() && eq.executed() < target * 2)
        eq.step();
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    if (sink == 0x5eed) // defeat optimizing the whole run away
        std::printf("#");
    return static_cast<double>(eq.executed()) / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 2000000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
            events = std::strtoull(argv[++i], nullptr, 10);
            if (events == 0) {
                std::fprintf(stderr,
                             "error: --events needs a positive count, "
                             "got '%s'\n", argv[i]);
                return 2;
            }
        }
    }

    static const char *patterns[] = {"hot", "mixed", "fanout"};
    double geomean = 1.0;
    std::printf("%-8s %16s %16s %9s\n", "pattern", "heap ev/s",
                "calendar ev/s", "speedup");
    for (const char *pattern : patterns) {
        const double heap_rate =
            runPattern<tempo::HeapEventQueue>(pattern, events);
        const double cal_rate =
            runPattern<tempo::EventQueue>(pattern, events);
        const double speedup = cal_rate / heap_rate;
        geomean *= speedup;
        std::printf("%-8s %16.0f %16.0f %8.2fx\n", pattern, heap_rate,
                    cal_rate, speedup);
    }
    geomean = std::pow(geomean, 1.0 / 3.0);
    std::printf("geomean speedup: %.2fx\n", geomean);
    return 0;
}
