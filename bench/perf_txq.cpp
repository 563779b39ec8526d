/**
 * @file
 * perf_txq: scheduler picks/sec of the indexed transaction queue vs the
 * flat-scan reference schedulers (tests/oracles/), at steady queue
 * depths.
 *
 *   perf_txq [--picks N]
 *
 * Each trial holds one channel's queue at a fixed depth: pick, dispatch
 * through the DRAM device (so row buffers open and close exactly as in
 * the simulator), release, refill. The request mix mirrors a TEMPO run —
 * ~20% page-table walks (half tagged), 15% TEMPO prefetches, 10%
 * writebacks, 4 applications, a small row pool so row hits are common.
 *
 * Every steady-state queue is scheduled kPickRepeat times (advancing
 * the clock one cycle per pick) before the winning request dispatches:
 * the fixed DRAM-access/refill cost is amortized across the repeats so
 * the reported picks/sec tracks scheduler cost, not churn. Both paths
 * use the same repeat count and fold every picked seq.
 *
 * Both paths fold every picked seq into a checksum; a mismatch means the
 * indexed argmax diverged from the flat scan and the run aborts. Output
 * is plain text plus a final geomean speedup line; the CI perf-smoke job
 * prints it informationally.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "mc/bliss.hh"
#include "mc/tx_queue.hh"
#include "oracles/reference_scheduler.hh"

namespace {

using namespace tempo;

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

struct TrialResult {
    double rate = 0;          //!< picks per second
    std::uint64_t check = 0;  //!< folded seqs of every pick
};

QueuedRequest
makeRequest(Rng &rng, Cycle now, std::uint64_t seq)
{
    QueuedRequest entry;
    // Rows 0-15 across all banks of one channel: dense enough that row
    // hits, conflicts, and per-bank FIFO depth all occur.
    entry.req.paddr = rng.next() & ((1u << 20) - 1) & ~0x3full;
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 20) {
        entry.req.kind = ReqKind::PtWalk;
        entry.req.tempo.tagged = (roll % 2) == 0;
    } else if (roll < 35) {
        entry.req.kind = ReqKind::TempoPrefetch;
    } else if (roll < 45) {
        entry.req.kind = ReqKind::Writeback;
        entry.req.isWrite = true;
    }
    entry.req.app = static_cast<AppId>(rng.next() % 4);
    entry.arrival = now;
    entry.seq = seq;
    return entry;
}

constexpr unsigned kPickRepeat = 8;

template <typename Sched>
TrialResult
runTrial(unsigned depth, std::uint64_t dispatches, bool per_app)
{
    DramConfig dram_cfg;
    dram_cfg.channels = 1;
    dram_cfg.rowPolicy = RowPolicyKind::Open;
    SchedulerConfig sched_cfg;
    sched_cfg.tempoGrouping = true;

    DramDevice dram(dram_cfg);
    TxQueue txq(dram, per_app);
    Sched sched(sched_cfg);
    Rng rng{999};
    std::uint64_t seq = 0;
    Cycle now = 0;
    for (unsigned i = 0; i < depth; ++i)
        txq.enqueue(makeRequest(rng, now, seq++));

    TrialResult result;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < dispatches; ++i) {
        std::uint32_t id = TxQueue::kNone;
        for (unsigned r = 0; r < kPickRepeat; ++r) {
            id = sched.pick(txq, 0, dram, ++now);
            result.check = (result.check ^ txq.entry(id).seq)
                * 0x9e3779b97f4a7c15ULL;
        }
        const QueuedRequest &entry = txq.entry(id);
        txq.remove(id);
        dram.access(entry.req.paddr, entry.req.isWrite,
                    entry.req.kind == ReqKind::TempoPrefetch,
                    entry.req.app, now, 0);
        sched.served(entry, now);
        txq.release(id);
        txq.enqueue(makeRequest(rng, now, seq++));
    }
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    result.rate =
        static_cast<double>(dispatches * kPickRepeat) / secs;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t picks = 400000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--picks") == 0 && i + 1 < argc) {
            picks = std::strtoull(argv[++i], nullptr, 10);
            if (picks == 0) {
                std::fprintf(stderr,
                             "error: --picks needs a positive count, "
                             "got '%s'\n", argv[i]);
                return 2;
            }
        }
    }

    static const unsigned depths[] = {8, 32, 128, 512};
    bool diverged = false;
    double geomean = 1.0;

    std::printf("FR-FCFS\n%-6s %16s %16s %9s\n", "depth",
                "flat picks/s", "indexed picks/s", "speedup");
    for (const unsigned depth : depths) {
        // FR-FCFS ignores the app id, so the controller runs it with
        // merged per-app sub-FIFOs; measure that configuration.
        const TrialResult flat =
            runTrial<RefFrFcfsScheduler>(depth, picks, false);
        const TrialResult indexed =
            runTrial<FrFcfsScheduler>(depth, picks, false);
        if (flat.check != indexed.check) {
            std::fprintf(stderr,
                         "FAIL: pick divergence at depth %u "
                         "(flat %016llx vs indexed %016llx)\n", depth,
                         static_cast<unsigned long long>(flat.check),
                         static_cast<unsigned long long>(indexed.check));
            diverged = true;
        }
        const double speedup = indexed.rate / flat.rate;
        geomean *= speedup;
        std::printf("%-6u %16.0f %16.0f %8.2fx\n", depth, flat.rate,
                    indexed.rate, speedup);
    }

    std::printf("BLISS\n%-6s %16s %16s %9s\n", "depth",
                "flat picks/s", "indexed picks/s", "speedup");
    for (const unsigned depth : depths) {
        const TrialResult flat =
            runTrial<RefBlissScheduler>(depth, picks, true);
        const TrialResult indexed =
            runTrial<BlissScheduler>(depth, picks, true);
        if (flat.check != indexed.check) {
            std::fprintf(stderr,
                         "FAIL: BLISS pick divergence at depth %u "
                         "(flat %016llx vs indexed %016llx)\n", depth,
                         static_cast<unsigned long long>(flat.check),
                         static_cast<unsigned long long>(indexed.check));
            diverged = true;
        }
        const double speedup = indexed.rate / flat.rate;
        geomean *= speedup;
        std::printf("%-6u %16.0f %16.0f %8.2fx\n", depth, flat.rate,
                    indexed.rate, speedup);
    }

    geomean = std::pow(geomean, 1.0 / (2.0 * 4.0));
    std::printf("geomean speedup: %.2fx\n", geomean);
    return diverged ? 1 : 0;
}
