/**
 * @file
 * Example: plugging your own workload into the simulator.
 *
 * Scenario: you have a proprietary key-value store whose access pattern
 * you want to evaluate against TEMPO before asking your CPU vendor for
 * the feature. Implement the Workload interface — here, a hash-table
 * lookup service with a hot key distribution and value chains — and
 * hand it to System.
 *
 * Demonstrates: the Workload extension point, the IndirectStream helper
 * for IMP interoperability, and direct use of System (rather than
 * the runWorkload convenience wrapper).
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/system.hh"
#include "workloads/workload.hh"

namespace {

using namespace tempo;

/** A synthetic key-value store: bucket-array probe, then a short value
 * chain walk; 10% of requests are writes. */
class KvStoreWorkload : public RegionWorkload
{
  public:
    explicit KvStoreWorkload(std::uint64_t seed)
        : RegionWorkload("kvstore", 0x200000000000ull, 12ull << 30,
                         seed)
    {
    }

    unsigned mlpHint() const override { return 4; }

    MemRef
    next() override
    {
        MemRef ref;
        if (chainRemaining_ > 0) {
            // Walk the value chain: each hop lands anywhere in the
            // value heap (the second half of the region).
            --chainRemaining_;
            ref.vaddr = vaBase_ + (footprint_ / 2)
                + rng_.below(footprint_ / 2);
            ref.isWrite = isWrite_;
            ref.stream = 2;
            return ref;
        }
        // New request: hash a key to a bucket. 30% of requests target
        // the hot 1% of buckets (a realistic Zipf-ish skew).
        const Addr buckets = (footprint_ / 2) / kBucketBytes;
        const Addr bucket =
            rng_.skewedBelow(buckets, buckets / 100, 0.30);
        ref.vaddr = vaBase_ + bucket * kBucketBytes;
        isWrite_ = rng_.chance(0.1);
        chainRemaining_ = 1 + rng_.below(3);
        ref.stream = 1;
        return ref;
    }

  private:
    static constexpr Addr kBucketBytes = 64;
    unsigned chainRemaining_ = 0;
    bool isWrite_ = false;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t refs =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;

    SystemConfig base_cfg = SystemConfig::skylakeScaled();
    System baseline(base_cfg, std::make_unique<KvStoreWorkload>(42));
    const RunResult base = baseline.run(refs);

    SystemConfig tempo_cfg = SystemConfig::skylakeScaled();
    tempo_cfg.withTempo(true);
    System enhanced(tempo_cfg, std::make_unique<KvStoreWorkload>(42));
    const RunResult with_tempo = enhanced.run(refs);

    std::printf("kvstore (%llu requests' worth of references)\n",
                static_cast<unsigned long long>(refs));
    std::printf("  TLB miss rate            : %5.1f%%\n",
                100.0 * base.report.get("tlb.miss_rate"));
    std::printf("  DRAM refs that are PTWs  : %5.1f%%\n",
                100.0 * base.fracDramPtw());
    std::printf("  TEMPO performance gain   : %+5.1f%%\n",
                100.0 * with_tempo.speedupOver(base));
    std::printf("  TEMPO energy saving      : %+5.1f%%\n",
                100.0 * with_tempo.energySavingOver(base));
    std::printf("  replays served from LLC  : %llu of %llu eligible\n",
                static_cast<unsigned long long>(
                    with_tempo.core().replayLlcHits),
                static_cast<unsigned long long>(
                    with_tempo.core().replayAfterDramWalk));

    // Dump the full statistics report for deeper digging.
    if (argc > 2 && std::string(argv[2]) == "--full") {
        std::printf("\nfull baseline report:\n");
        base.report.printText(std::cout);
    }
    return 0;
}
