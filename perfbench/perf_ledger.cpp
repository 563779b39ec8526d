/**
 * @file
 * perf_ledger: runs one benchmark workload for a wall-clock budget and
 * prints every raw sample as one JSON object on stdout. run.py builds
 * this binary, turns the samples into the ledger's metrics and checks
 * them; see NOTES.md.
 *
 *   perf_ledger --workload NAME --seed N --seconds S --trace 0|1
 *               [--scale F]
 *   perf_ledger --shard-study --seed N [--scale F]
 *
 * --trace 0 measures end to end: set-up time, simulated references per
 * host second and peak RSS. --trace 1 measures per layer: timed layer
 * replays, profiled against unprofiled runs, the experiment engine's
 * per-point times, and the deterministic simulated counts. Every pass
 * hashes each point's simulated report into a sim digest that must
 * match across repeats and passes; a mismatch fails the point.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <numeric>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/profiler.hh"
#include "core/experiment.hh"
#include "core/multi_system.hh"
#include "core/tempo_system.hh"
#include "ledger.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace tempo;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Simulated-report digest -------------------------------------------

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Hash of every simulated statistic in @p report. The wall-clock
 * profile.* keys are excluded: they are the only nondeterministic
 * entries, and a profiled run must digest like an unprofiled one. */
std::uint64_t
digestReport(const stats::Report &report)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &[name, value] : report.entries()) {
        if (name.rfind("profile.", 0) == 0)
            continue;
        h = fnv(h, name.data(), name.size());
        h = fnv(h, &value, sizeof value);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- Deterministic per-layer counts ------------------------------------

constexpr ReqKind kDelayKinds[] = {ReqKind::Regular, ReqKind::Replay,
                                   ReqKind::PtWalk, ReqKind::TempoPrefetch,
                                   ReqKind::Writeback};

/** Numerators and denominators of the count metrics, summed over a
 * workload's points. */
struct Counts {
    double refs = 0;         //!< issued, warmup included
    double measuredRefs = 0; //!< issued after warmup
    double events = 0;
    double tlbLookups = 0, tlbMisses = 0;
    double xlateHits = 0, xlateMisses = 0;
    double walks = 0;
    double mmuHits = 0, mmuMisses = 0;
    double l1Hits = 0, l1Misses = 0;
    double llcHits = 0, llcMisses = 0;
    double droppedWritebacks = 0;
    double delaySum[std::size(kDelayKinds)] = {};
    double served[std::size(kDelayKinds)] = {};
    double highWater = 0;
    double pfIssued = 0, pfDropped = 0;
    double replaysAfterDramWalk = 0, replayLlcHits = 0;
    double rowHits = 0, dramAccesses = 0;

    /** Fold in one finished machine and its cores. */
    void
    add(Machine &machine, const std::vector<SimCore *> &cores,
        std::uint64_t refs_issued)
    {
        refs += static_cast<double>(refs_issued);
        events += static_cast<double>(machine.eq.executed());
        for (SimCore *core : cores) {
            const CoreStats &st = core->stats();
            measuredRefs += static_cast<double>(st.refs);
            walks += static_cast<double>(st.walks);
            replaysAfterDramWalk +=
                static_cast<double>(st.replayAfterDramWalk);
            replayLlcHits += static_cast<double>(st.replayLlcHits);
            tlbLookups += static_cast<double>(core->tlb.lookups());
            tlbMisses += static_cast<double>(core->tlb.misses());
            const Translator &xl = core->addressSpace.translator();
            xlateHits += static_cast<double>(xl.hits());
            xlateMisses += static_cast<double>(xl.misses());
            mmuHits += static_cast<double>(core->mmu.hits());
            mmuMisses += static_cast<double>(core->mmu.misses());
            l1Hits += static_cast<double>(core->caches.l1().hits());
            l1Misses += static_cast<double>(core->caches.l1().misses());
            droppedWritebacks +=
                static_cast<double>(core->caches.droppedWritebacks());
        }
        llcHits += static_cast<double>(machine.llc.cache().hits());
        llcMisses += static_cast<double>(machine.llc.cache().misses());
        for (std::size_t k = 0; k < std::size(kDelayKinds); ++k) {
            const double n =
                static_cast<double>(machine.mc.served(kDelayKinds[k]));
            served[k] += n;
            delaySum[k] += n * machine.mc.avgQueueDelay(kDelayKinds[k]);
        }
        highWater = std::max(
            highWater, static_cast<double>(machine.mc.queueHighWater()));
        pfIssued += static_cast<double>(machine.mc.tempoPrefetchesIssued());
        pfDropped +=
            static_cast<double>(machine.mc.tempoPrefetchesDropped());
        rowHits += static_cast<double>(machine.dram.rowHits());
        dramAccesses += static_cast<double>(machine.dram.accesses());
    }

    std::vector<std::pair<std::string, double>>
    metrics() const
    {
        auto r = [](double num, double den) {
            return den != 0 ? num / den : 0.0;
        };
        std::vector<std::pair<std::string, double>> out = {
            {"core.events_per_ref", r(events, refs)},
            {"vm.stlb_miss_rate", r(tlbMisses, tlbLookups)},
            {"vm.translator_hit_rate",
             r(xlateHits, xlateHits + xlateMisses)},
            {"vm.walks_per_kref", 1000 * r(walks, measuredRefs)},
            {"vm.mmu_hit_rate", r(mmuHits, mmuHits + mmuMisses)},
            {"cache.l1_miss_rate", r(l1Misses, l1Hits + l1Misses)},
            {"cache.llc_miss_rate", r(llcMisses, llcHits + llcMisses)},
            {"cache.dropped_writebacks", droppedWritebacks},
        };
        for (std::size_t k = 0; k < std::size(kDelayKinds); ++k)
            out.emplace_back(std::string("mc.queue_delay_cycles.")
                                 + reqKindName(kDelayKinds[k]),
                             r(delaySum[k], served[k]));
        out.emplace_back("mc.queue_high_water", highWater);
        out.emplace_back("mc.writebacks_per_kref",
                         1000 * r(served[4], measuredRefs));
        out.emplace_back("mc.tempo.prefetches_issued", pfIssued);
        out.emplace_back("mc.tempo.drop_ratio",
                         r(pfDropped, pfIssued + pfDropped));
        out.emplace_back("mc.tempo.replay_llc_ratio",
                         r(replayLlcHits, replaysAfterDramWalk));
        out.emplace_back("dram.row_hit_rate", r(rowHits, dramAccesses));
        return out;
    }
};

// --- Running points ----------------------------------------------------

/** How one point ended, with its host times. */
struct Outcome {
    bool ok = false;
    std::string error;
    double setupS = 0;
    double runS = 0;
    std::vector<double> slices; //!< run phase by SliceClock slice
    std::uint64_t digest = 0;
    prof::Totals profile;
};

/** Profile totals from a report's profile.<component>_{ms,calls}. */
prof::Totals
profileFrom(const stats::Report &report)
{
    prof::Totals t;
    for (std::size_t i = 0; i < prof::kNumComponents; ++i) {
        const std::string name =
            std::string("profile.")
            + prof::componentName(static_cast<prof::Component>(i));
        if (report.has(name + "_ms")) {
            t.ns[i] = static_cast<std::uint64_t>(
                report.get(name + "_ms") * 1e6);
            t.calls[i] =
                static_cast<std::uint64_t>(report.get(name + "_calls"));
        }
    }
    return t;
}

/** The simulated report of a finished multiprogrammed run. */
stats::Report
mixReport(MultiSystem &system, const MultiResult &result)
{
    stats::Report out;
    out.add("runtime", static_cast<std::uint64_t>(result.runtime));
    for (std::size_t i = 0; i < system.numCores(); ++i) {
        SimCore &core = system.core(i);
        const std::string app = "app" + std::to_string(i) + ".";
        out.add(app + "finish",
                static_cast<std::uint64_t>(result.appFinish[i]));
        stats::Report part;
        result.appStats[i].report(part);
        out.merge(app, part);
        stats::Report tlb, mmu, caches, vm;
        core.tlb.report(tlb);
        out.merge(app + "tlb.", tlb);
        core.mmu.report(mmu);
        out.merge(app + "mmu.", mmu);
        core.caches.report(caches);
        out.merge(app + "cache.", caches);
        core.addressSpace.report(vm);
        out.merge(app + "vm.", vm);
    }
    stats::Report dram, mc, energy;
    system.machine().dram.report(dram);
    out.merge("dram.", dram);
    system.machine().mc.report(mc);
    out.merge("mc.", mc);
    result.energy.report(energy);
    out.merge("energy.", energy);
    return out;
}

/** References per run-phase slice (see SliceClock). */
constexpr std::uint64_t kSliceRefs = 2000;

/**
 * Splits a point's run phase into slices of kSliceRefs generated
 * references. The simulation is deterministic, so slice k is the same
 * work in every repeat, and the sum over slices of each slice's fastest
 * repeat is the point's run time with host interference filtered out
 * at slice granularity.
 */
class SliceClock
{
  public:
    void start() { marks_.assign(1, Clock::now()); }

    void
    tick()
    {
        if (++count_ % kSliceRefs == 0)
            marks_.push_back(Clock::now());
    }

    /** Slice durations, the last one ending now. */
    std::vector<double>
    finish()
    {
        marks_.push_back(Clock::now());
        std::vector<double> slices;
        for (std::size_t k = 1; k < marks_.size(); ++k)
            slices.push_back(
                std::chrono::duration<double>(marks_[k] - marks_[k - 1])
                    .count());
        return slices;
    }

  private:
    std::uint64_t count_ = 0;
    std::vector<Clock::time_point> marks_;
};

/** Forwards to a generator, ticking a SliceClock per reference. */
class SlicedWorkload : public Workload
{
  public:
    SlicedWorkload(std::unique_ptr<Workload> inner, SliceClock &clock)
        : inner_(std::move(inner)), clock_(clock)
    {
    }

    const std::string &name() const override { return inner_->name(); }
    Addr footprintBytes() const override { return inner_->footprintBytes(); }
    unsigned mlpHint() const override { return inner_->mlpHint(); }

    MemRef
    next() override
    {
        clock_.tick();
        return inner_->next();
    }

  private:
    std::unique_ptr<Workload> inner_;
    SliceClock &clock_;
};

/** The point's generators, sliced by @p clock when it is given. */
std::vector<std::unique_ptr<Workload>>
makeApps(const Point &point, SliceClock *clock = nullptr)
{
    std::vector<std::unique_ptr<Workload>> apps;
    for (const App &app : point.apps) {
        auto workload = makeWorkload(app.name, app.seed);
        if (clock)
            workload = std::make_unique<SlicedWorkload>(
                std::move(workload), *clock);
        apps.push_back(std::move(workload));
    }
    return apps;
}

/** Build every system of @p w and destroy it again: one set-up time
 * sample (configs, workload generators and systems, as a run builds
 * them before its first reference). */
double
dryBuild(const BenchWorkload &w, std::uint64_t seed, double scale)
{
    const auto t0 = Clock::now();
    const BenchWorkload fresh = makeBenchWorkload(w.name, seed, scale);
    std::vector<std::unique_ptr<TempoSystem>> single;
    std::vector<std::unique_ptr<MultiSystem>> multi;
    for (const Point &point : fresh.points) {
        if (point.apps.size() == 1)
            single.push_back(std::make_unique<TempoSystem>(
                point.config, std::move(makeApps(point)[0])));
        else
            multi.push_back(std::make_unique<MultiSystem>(
                point.config, makeApps(point)));
    }
    return secondsSince(t0);
}

/**
 * Build and run @p point in this thread behind an exception barrier.
 * TEMPO_FAULT_INJECT throw entries (parsed by ExperimentOptions)
 * target the point's index, as they would in the experiment engine.
 * With @p counts, the finished machine is folded into it; with
 * @p sliced, the run phase is also timed in slices (Outcome::slices).
 */
Outcome
runPoint(const Point &point, std::size_t index,
         const std::vector<FaultInjection> &inject, bool profiling,
         Counts *counts, bool sliced = false)
{
    Outcome out;
    SliceClock clock;
    try {
        for (const FaultInjection &fault : inject) {
            if (fault.index == index)
                throw std::runtime_error("injected fault");
        }
        const auto t0 = Clock::now();
        stats::Report report;
        if (point.apps.size() == 1) {
            TempoSystem system(
                point.config,
                std::move(makeApps(point, sliced ? &clock : nullptr)[0]));
            out.setupS = secondsSince(t0);
            const auto t1 = Clock::now();
            clock.start();
            RunResult result = system.run(point.refs, point.warmup);
            out.slices = clock.finish();
            out.runS = secondsSince(t1);
            if (result.runtime == 0)
                throw std::runtime_error("zero simulated runtime");
            report = std::move(result.report);
            report.add("runtime",
                       static_cast<std::uint64_t>(result.runtime));
            if (counts)
                counts->add(system.machine(), {&system.core()},
                            point.totalRefs());
        } else {
            MultiSystem system(point.config,
                               makeApps(point, sliced ? &clock : nullptr));
            out.setupS = secondsSince(t0);
            const auto t1 = Clock::now();
            if (profiling)
                prof::beginWindow();
            clock.start();
            const MultiResult result =
                system.run(point.refs, point.warmup);
            out.slices = clock.finish();
            if (profiling)
                out.profile = prof::endWindow();
            out.runS = secondsSince(t1);
            if (result.appFinish.size() != point.apps.size()
                || result.runtime == 0)
                throw std::runtime_error("mix did not finish");
            report = mixReport(system, result);
            if (counts) {
                std::vector<SimCore *> cores;
                for (std::size_t i = 0; i < system.numCores(); ++i)
                    cores.push_back(&system.core(i));
                counts->add(system.machine(), cores, point.totalRefs());
            }
        }
        if (profiling && point.apps.size() == 1)
            out.profile = profileFrom(report);
        out.digest = digestReport(report);
        out.ok = true;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

/** One pass over all points of a workload. */
struct Pass {
    std::vector<Outcome> points;
    double wallS = 0;
    /** Sum of per-point wall times (set-up + run, or the engine's
     * completion-to-completion time per worker). */
    double pointSumS = 0;
    double pointMaxS = 0;
    std::uint64_t refsOk = 0; //!< simulated refs of ok points
    double runS = 0;          //!< run-phase seconds (single process)
};

Pass
runPass(const BenchWorkload &w, const std::vector<FaultInjection> &inject,
        bool profiling, bool sliced = false)
{
    prof::setEnabled(profiling);
    Pass pass;
    const auto t0 = Clock::now();
    if (w.jobs == 0) {
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            Outcome o = runPoint(w.points[i], i, inject, profiling,
                                 nullptr, sliced);
            const double point_s = o.setupS + o.runS;
            pass.pointSumS += point_s;
            pass.pointMaxS = std::max(pass.pointMaxS, point_s);
            if (o.ok) {
                pass.refsOk += w.points[i].totalRefs();
                pass.runS += o.runS;
            }
            pass.points.push_back(std::move(o));
        }
        pass.wallS = secondsSince(t0);
    } else {
        std::vector<ExperimentPoint> points;
        for (const Point &p : w.points) {
            ExperimentPoint ep;
            ep.workload = p.apps[0].name;
            ep.config = p.config;
            ep.refs = p.refs;
            ep.warmup = p.warmup;
            ep.seed = p.apps[0].seed;
            points.push_back(std::move(ep));
        }
        ExperimentOptions opts;
        opts.jobs = w.jobs;
        opts.inject = inject;
        // Completion timestamps per worker thread: a point's wall time
        // is the gap since that worker's previous completion.
        std::map<std::thread::id, Clock::time_point> last;
        std::vector<double> point_s(points.size(), 0);
        opts.onPointDone = [&](std::size_t i, const RunResult &) {
            const auto now = Clock::now();
            auto it = last.try_emplace(std::this_thread::get_id(), t0).first;
            point_s[i] =
                std::chrono::duration<double>(now - it->second).count();
            it->second = now;
        };
        const std::vector<RunResult> results =
            runExperiments(points, opts);
        pass.wallS = secondsSince(t0);
        pass.runS = pass.wallS;
        for (std::size_t i = 0; i < results.size(); ++i) {
            Outcome o;
            o.ok = results[i].status.ok();
            o.error = results[i].status.error;
            if (o.ok) {
                stats::Report report = results[i].report;
                report.add("runtime",
                           static_cast<std::uint64_t>(results[i].runtime));
                o.digest = digestReport(report);
                if (profiling)
                    o.profile = profileFrom(report);
                pass.refsOk += w.points[i].totalRefs();
            }
            o.runS = point_s[i];
            pass.pointSumS += point_s[i];
            pass.pointMaxS = std::max(pass.pointMaxS, point_s[i]);
            pass.points.push_back(std::move(o));
        }
    }
    prof::setEnabled(false);
    return pass;
}

// --- Output ------------------------------------------------------------

/** The JSON members "build_type" and "compiler" of the host stamp. */
std::string
buildStamp()
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "  \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE)
        + ",\n  \"compiler\": " + jsonString(compiler);
}

/** Accumulates samples and failures over a run; prints the JSON. */
class Ledger
{
  public:
    explicit Ledger(const BenchWorkload &w)
        : digests_(w.points.size(), 0), labels_(w.points.size())
    {
        for (std::size_t i = 0; i < w.points.size(); ++i)
            labels_[i] = w.points[i].label;
    }

    void sample(const std::string &metric, double v)
    {
        samples_[metric].push_back(v);
    }

    void set(const std::string &metric, double v) { values_[metric] = v; }

    std::uint64_t digest(std::size_t i) const { return digests_.at(i); }
    std::uint64_t failed() const { return failed_; }

    /** Count @p pass's points; a failure or digest change fails one. */
    void
    account(const Pass &pass, const char *what)
    {
        for (std::size_t i = 0; i < pass.points.size(); ++i) {
            const Outcome &o = pass.points[i];
            ++attempted_;
            if (!o.ok) {
                fail(i, what, o.error);
                continue;
            }
            if (digests_[i] == 0)
                digests_[i] = o.digest;
            else if (digests_[i] != o.digest)
                fail(i, what,
                     "sim digest " + hex(o.digest) + " != "
                         + hex(digests_[i]));
        }
    }

    void
    print(const BenchWorkload &w, std::uint64_t seed, int trace) const
    {
        std::string s = "{\n";
        s += "  \"workload\": " + jsonString(w.name) + ",\n";
        s += "  \"seed\": " + std::to_string(seed) + ",\n";
        s += "  \"trace\": " + std::to_string(trace) + ",\n";
        s += buildStamp() + ",\n";
        s += "  \"jobs\": " + std::to_string(w.jobs) + ",\n";
        s += "  \"attempted\": " + std::to_string(attempted_) + ",\n";
        s += "  \"failed\": " + std::to_string(failed_) + ",\n";
        s += "  \"errors\": [";
        for (std::size_t i = 0; i < errors_.size(); ++i)
            s += (i ? ", " : "") + jsonString(errors_[i]);
        s += "],\n  \"points\": [";
        for (std::size_t i = 0; i < labels_.size(); ++i) {
            s += std::string(i ? ", " : "") + "{\"label\": "
                + jsonString(labels_[i]) + ", \"refs\": "
                + std::to_string(w.points[i].totalRefs())
                + ", \"sim_digest\": " + jsonString(hex(digests_[i]))
                + "}";
        }
        s += "],\n  \"samples\": {";
        bool first = true;
        for (const auto &[name, values] : samples_) {
            s += std::string(first ? "\n" : ",\n") + "    "
                + jsonString(name) + ": [";
            for (std::size_t i = 0; i < values.size(); ++i)
                s += (i ? ", " : "") + jsonNumber(values[i]);
            s += "]";
            first = false;
        }
        s += "\n  },\n  \"values\": {";
        first = true;
        for (const auto &[name, value] : values_) {
            s += std::string(first ? "\n" : ",\n") + "    "
                + jsonString(name) + ": " + jsonNumber(value);
            first = false;
        }
        s += "\n  }\n}\n";
        std::fputs(s.c_str(), stdout);
    }

  private:
    void
    fail(std::size_t i, const char *what, const std::string &error)
    {
        ++failed_;
        if (errors_.size() < 16)
            errors_.push_back(labels_[i] + " (" + what + "): " + error);
    }

    std::vector<std::uint64_t> digests_;
    std::vector<std::string> labels_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
    std::vector<std::string> errors_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Pins the calling thread to one allowed CPU after another, so that the
 * rounds of a run sample every CPU the process may use: on a shared
 * host, tenants of sibling hardware threads slow some CPUs at a time.
 * Restores the original mask on destruction.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    pin(std::size_t round)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[round % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

// --- Modes -------------------------------------------------------------

/** Samples per metric even when the budget runs out first. */
constexpr int kMinRounds = 3;
/** Set-up samples (dry builds) per round. */
constexpr int kSetupSamplesPerRound = 5;

void
endToEnd(const BenchWorkload &w, std::uint64_t seed, double scale,
         Clock::time_point deadline,
         const std::vector<FaultInjection> &inject, Ledger &ledger)
{
    // Run-phase times per timing unit: each point of an in-process
    // workload, or the whole sweep of an engine workload.
    std::uint64_t sweep_refs = 0;
    for (const Point &point : w.points)
        sweep_refs += point.totalRefs();
    if (w.jobs > 0)
        ledger.set("refs.sweep", static_cast<double>(sweep_refs));
    else
        for (const Point &point : w.points)
            ledger.set("refs." + point.label,
                       static_cast<double>(point.totalRefs()));

    // Fastest repeat of each slice of each point (in-process), or the
    // fastest sweep (engine).
    std::vector<std::vector<double>> fastest(w.points.size());
    double fastest_sweep = 0;
    // An engine workload's pool threads inherit this thread's mask, so
    // only in-process workloads rotate.
    CpuRotation rotation;
    for (int round = 0; round < kMinRounds || Clock::now() < deadline;
         ++round) {
        if (w.jobs == 0)
            rotation.pin(round);
        // Set-up samples are spread over the run so that their median
        // sees the same host conditions as the run phases.
        for (int i = 0; i < kSetupSamplesPerRound; ++i)
            ledger.sample("setup_s", dryBuild(w, seed, scale));
        const Pass pass = runPass(w, inject, false, true);
        ledger.account(pass, "untraced");
        if (w.jobs > 0) {
            if (pass.refsOk == sweep_refs) {
                ledger.sample("run_s.sweep", pass.wallS);
                if (fastest_sweep == 0 || pass.wallS < fastest_sweep)
                    fastest_sweep = pass.wallS;
            }
            continue;
        }
        for (std::size_t i = 0; i < pass.points.size(); ++i) {
            const Outcome &o = pass.points[i];
            if (!o.ok)
                continue;
            ledger.sample("run_s." + w.points[i].label, o.runS);
            std::vector<double> &best = fastest[i];
            if (best.empty())
                best = o.slices;
            best.resize(std::min(best.size(), o.slices.size()));
            for (std::size_t k = 0; k < best.size(); ++k)
                best[k] = std::min(best[k], o.slices[k]);
        }
    }
    if (w.jobs > 0 && fastest_sweep > 0)
        ledger.set("run_s_fastest.sweep", fastest_sweep);
    for (std::size_t i = 0; i < fastest.size(); ++i) {
        if (!fastest[i].empty())
            ledger.set("run_s_fastest." + w.points[i].label,
                       std::accumulate(fastest[i].begin(),
                                       fastest[i].end(), 0.0));
    }
    ledger.set("peak_rss_mb", peakRssMb());
}

void
traced(const BenchWorkload &w, Clock::time_point deadline,
       const std::vector<FaultInjection> &inject, Ledger &ledger)
{
    // Deterministic counts, read after one untraced in-process run of
    // every point (also the digest reference for the passes below).
    Counts counts;
    Pass direct;
    for (std::size_t i = 0; i < w.points.size(); ++i)
        direct.points.push_back(
            runPoint(w.points[i], i, inject, false, &counts));
    ledger.account(direct, "counts");
    for (const auto &[name, value] : counts.metrics())
        ledger.set(name, value);

    std::vector<std::unique_ptr<LayerReplay>> replays;
    for (const Point &point : w.points)
        replays.push_back(std::make_unique<LayerReplay>(
            point, point.refs + point.warmup));

    for (int round = 0; round < kMinRounds || Clock::now() < deadline;
         ++round) {
        LayerTotals layers;
        for (const auto &replay : replays)
            layers.add(replay->time());
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            if (layers.calls[l] > 0)
                ledger.sample(layerMetric(static_cast<Layer>(l)),
                              layers.ns[l] / layers.calls[l]);
        }

        // Alternate which pass runs first so drift cannot bias the
        // profiler-overhead ratio.
        Pass plain, profiled;
        if (round % 2 == 0) {
            plain = runPass(w, inject, false);
            profiled = runPass(w, inject, true);
        } else {
            profiled = runPass(w, inject, true);
            plain = runPass(w, inject, false);
        }
        ledger.account(plain, "untraced");
        ledger.account(profiled, "profiled");

        const double jobs = std::max(1u, w.jobs);
        ledger.sample("experiment.parallel_efficiency",
                      plain.pointSumS / (jobs * plain.wallS));
        ledger.sample("experiment.point_s_max", plain.pointMaxS);
        ledger.sample("profile.overhead", profiled.wallS / plain.wallS);

        prof::Totals totals;
        for (const Outcome &o : profiled.points)
            totals.add(o.profile);
        double total_ns = 0, calls = 0;
        for (std::size_t c = 0; c < prof::kNumComponents; ++c) {
            total_ns += static_cast<double>(totals.ns[c]);
            calls += static_cast<double>(totals.calls[c]);
        }
        for (std::size_t c = 0; c < prof::kNumComponents; ++c) {
            ledger.sample(
                std::string("profile.")
                    + prof::componentName(static_cast<prof::Component>(c))
                    + "_share",
                total_ns > 0 ? totals.ns[c] / total_ns : 0.0);
        }
        if (calls > 0)
            ledger.sample("profile.ns_per_scope",
                          (profiled.wallS - plain.wallS) * 1e9 / calls);
    }
}

/** mix8-bliss on the inline engine (shards 0) and at every shard worker
 * count: does sharding pay on this host? Sharding is a different timing
 * model, so its digest differs from the inline engine's by design; it
 * must only agree across worker counts. Prints its own JSON. */
void
shardStudy(std::uint64_t seed, double scale, int rounds)
{
    const BenchWorkload base = makeBenchWorkload("mix8-bliss", seed, scale);
    const unsigned max_shards =
        std::max(1u, std::thread::hardware_concurrency());
    std::string rows;
    for (unsigned shards = 0; shards <= max_shards; ++shards) {
        BenchWorkload w = base;
        w.points[0].config.withShards(shards);
        Ledger check(w);
        std::vector<double> rates;
        for (int round = 0; round < rounds; ++round) {
            const Pass pass = runPass(w, {}, false);
            check.account(pass, "shards");
            if (pass.refsOk > 0)
                rates.push_back(pass.refsOk / pass.runS);
        }
        std::sort(rates.begin(), rates.end());
        rows += std::string(shards ? ",\n" : "\n") + "  {\"shards\": "
            + std::to_string(shards) + ", \"refs_per_s\": "
            + jsonNumber(rates.empty() ? 0 : rates[rates.size() / 2])
            + ", \"sim_digest\": " + jsonString(hex(check.digest(0)))
            + ", \"failed\": " + std::to_string(check.failed()) + "}";
    }
    std::printf("{\n%s,\n  \"shard_study\": [%s\n]}\n",
                buildStamp().c_str(), rows.c_str());
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    double scale = 1;
    bool shardStudy = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--shard-study") {
            a.shardStudy = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        std::size_t used = 0;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value, &used);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value, &used);
        } else if (flag == "--trace") {
            a.trace = std::stoi(value, &used);
        } else if (flag == "--scale") {
            a.scale = std::stod(value, &used);
        } else {
            throw std::invalid_argument("unknown option " + flag);
        }
        if (flag != "--workload" && used != value.size())
            throw std::invalid_argument("bad value for " + flag);
    }
    if (!a.shardStudy && !have_workload)
        throw std::invalid_argument("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    if (!(a.seconds >= 0 && a.seconds <= 86400)
        || !(a.scale > 0 && a.scale <= 100))
        throw std::invalid_argument("--seconds and --scale out of range");
    return a;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    try {
        const Args args = parseArgs(argc, argv);
        // The budget covers the whole run, set-up passes included.
        const auto deadline = std::chrono::steady_clock::now()
            + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(args.seconds));
        // Only the fault-injection hook is taken from the environment;
        // engine knobs are fixed by the workload definitions.
        const std::vector<tempo::FaultInjection> inject =
            tempo::ExperimentOptions::fromEnv().inject;
        if (args.shardStudy) {
            shardStudy(args.seed, args.scale, kMinRounds);
            return 0;
        }
        const BenchWorkload w =
            makeBenchWorkload(args.workload, args.seed, args.scale);
        Ledger ledger(w);
        if (args.trace == 0)
            endToEnd(w, args.seed, args.scale, deadline, inject, ledger);
        else
            traced(w, deadline, inject, ledger);
        ledger.print(w, args.seed, args.trace);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perf_ledger: error: %s\n", e.what());
        return 2;
    }
}
