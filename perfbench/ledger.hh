/**
 * @file
 * The perf ledger's shared vocabulary: the benchmark workloads (fixed
 * point sets over frozen machine configs), the per-layer replay that
 * times calls into each simulator layer from outside src/, and a few
 * output helpers. See NOTES.md for what each workload and metric means.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"

namespace perfbench {

/** One application of a point: a workload generator and its seed. */
struct App {
    std::string name;
    std::uint64_t seed = 0;
};

/** One simulation point: one or more apps on one machine. A single app
 * runs on a TempoSystem, several on a MultiSystem. */
struct Point {
    std::string label;
    tempo::SystemConfig config;
    std::vector<App> apps;
    std::uint64_t refs = 0;   //!< measured references per app
    std::uint64_t warmup = 0; //!< warmup references per app

    /** Simulated references including warmup, over all apps. */
    std::uint64_t
    totalRefs() const
    {
        return (refs + warmup) * apps.size();
    }
};

/** A benchmark workload: the points one run simulates. */
struct BenchWorkload {
    std::string name;
    std::vector<Point> points;
    /** 0: points run one after another in this process, each built
     * and timed directly. > 0: the points form one sweep through
     * runExperiments() with this many jobs. */
    unsigned jobs = 0;
};

/** Build workload @p name from benchmark seed @p seed. @p scale
 * multiplies every reference count (1 = the ledger's lengths; the
 * self-test uses a tiny scale). @throws std::invalid_argument for an
 * unknown name. */
BenchWorkload makeBenchWorkload(const std::string &name,
                                std::uint64_t seed, double scale);

/** The timed layers, in report order. */
enum class Layer {
    Next,      //!< Workload::next
    Translate, //!< Translator::translate
    Tlb,       //!< Tlb::lookup, plus Tlb::fill on a miss
    Walk,      //!< Walker::plan + Walker::finish per STLB miss
    Cache,     //!< CacheHierarchy::access, plus fill on a miss
    Mc,        //!< MemoryController::submit + EventQueue drain
    Dram,      //!< DramDevice::access
    Event,     //!< EventQueue schedule + execute, per event
};
inline constexpr std::size_t kNumLayers = 8;

/** Metric name of @p layer ("vm.walk_ns", ...). */
const char *layerMetric(Layer layer);

/** Host time and calls per layer from one timed replay. */
struct LayerTotals {
    double ns[kNumLayers] = {};
    std::uint64_t calls[kNumLayers] = {};

    void
    add(const LayerTotals &other)
    {
        for (std::size_t i = 0; i < kNumLayers; ++i) {
            ns[i] += other.ns[i];
            calls[i] += other.calls[i];
        }
    }
};

/**
 * The recorded inputs of every layer for one point, and their timed
 * replay. Construction runs the point's reference streams through the
 * layers functionally (no timing model: each reference touches, probes
 * the TLB, walks on a miss, probes the caches and turns misses into
 * memory requests, like SimCore does) and records what each layer was
 * asked. time() then replays each layer's own input on freshly built
 * instances and times the calls in whole-stream batches, so a clock
 * read never lands between two calls.
 */
class LayerReplay
{
  public:
    /** Record the streams of @p point, @p refs_per_app references per
     * app (apps interleave one reference at a time). */
    LayerReplay(const Point &point, std::uint64_t refs_per_app);
    ~LayerReplay();

    LayerReplay(const LayerReplay &) = delete;
    LayerReplay &operator=(const LayerReplay &) = delete;

    /** Replay every layer once on fresh state and return its times. */
    LayerTotals time() const;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMb();

/** JSON string literal for @p s. */
std::string jsonString(const std::string &s);

/** JSON number with every digit of @p v (null when not finite). */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
