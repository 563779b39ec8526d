/**
 * @file
 * Deterministic, simulator-time observability: a ring-buffered trace
 * recorder, a windowed time-series sampler, and a per-walk lifecycle
 * audit, all cycle-stamped so output is bit-identical across runs and
 * thread counts (unlike the wall-clock profiler).
 *
 * Three cooperating pieces:
 *
 *  - Trace recorder: typed events (walk start/step/finish, PT-access
 *    tag, Tx-Q enqueue/split/dispatch, prefetch issue/activate/fill/
 *    drop, replay classification, row open/close, BLISS blacklist)
 *    land in a pre-reserved ring buffer; when full, the oldest events
 *    are overwritten and counted as dropped. writeChromeTrace() exports
 *    the ring as Chrome trace-event JSON (Perfetto-loadable), with one
 *    thread track per walk id so walker, prefetch-engine, and replay
 *    events join visually.
 *
 *  - Time-series sampler: every `timeseriesWindow` cycles System
 *    snapshots Tx-Q occupancy, prefetch slots in use, outstanding
 *    walks (summed over its cores), the row-buffer hit rate over the
 *    window, and the window's mean replay latency. The samples surface
 *    as a "timeseries" section of the tempo-bench-1 JSON and as
 *    counter tracks in the trace.
 *
 *  - Lifecycle audit: events are joined by walk id into a replay-latency
 *    breakdown (LLC hit / private hit / merged / row-buffer hit / array
 *    access) and a prefetch taxonomy (useful / late / useless /
 *    dropped), reported as "obs.*" stats. The breakdown counts exactly
 *    the replays the cores count, so obs.replay_* sums to
 *    replay_after_dram_walk (over every app of a mix) and the prefetch
 *    taxonomy sums to mc.tempo.prefetches_issued.
 *
 * Cost discipline (mirrors common/profiler.hh): every instrumentation
 * site is `if (auto *s = obs::session())` — one relaxed atomic load and
 * a predictable branch when observability is off, so default runs stay
 * byte-identical to a build without the hooks. Sessions are
 * thread_local and created only by System::run, for one app or a mix
 * alike (the parallel engine runs each point entirely on one worker
 * thread, so a mix's cores share one session and one walk-id space).
 */

#ifndef TEMPO_OBS_OBS_HH
#define TEMPO_OBS_OBS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace tempo::obs {

/** Trace event categories, selectable via --trace-filter. */
enum Category : std::uint32_t {
    kWalk = 1u << 0,     //!< walk begin/step/end
    kPt = 1u << 1,       //!< leaf PT-access tagging
    kTxq = 1u << 2,      //!< transaction-queue enqueue/split/dispatch
    kPrefetch = 1u << 3, //!< prefetch issue/activate/fill/drop/fault
    kReplay = 1u << 4,   //!< replay begin + classification
    kRow = 1u << 5,      //!< DRAM row open/close
    kBliss = 1u << 6,    //!< BLISS blacklist events
    kAllCategories = (1u << 7) - 1,
};

/**
 * Parse a comma-separated category list ("walk,prefetch,replay"; "all"
 * selects everything).
 * @throws std::invalid_argument on an unknown category name.
 */
std::uint32_t parseCategories(const std::string &csv);

/** Typed trace events; see chrome_trace.cc for the export mapping. */
enum class EventType : std::uint8_t {
    WalkBegin,        //!< walker planned a walk (a=vaddr, b=steps<<16|skipped, arg=WalkKind)
    WalkStep,         //!< one PTE fetch (a=pteAddr, b=level, arg=CacheLevel found)
    PtAccessTag,      //!< leaf PT access tagged for TEMPO (a=pteLine, b=replayLine, arg=pteValid)
    WalkEnd,          //!< walk finished (arg=leaf-from-DRAM)
    TxqEnqueue,       //!< request entered a Tx-Q (a=channel, b=occupancy, arg=ReqKind)
    TxqSplit,         //!< tagged PT request took a second Tx-Q slot (a=channel)
    TxqDispatch,      //!< scheduler dispatched a request (a=paddr, arg=ReqKind)
    PrefetchIssue,    //!< Prefetch Engine accepted a trigger (a=line)
    PrefetchActivate, //!< prefetch reached DRAM (a=line, arg=RowEvent)
    PrefetchFill,     //!< prefetch data arrived / LLC filled (a=line)
    PrefetchDrop,     //!< dropped: queue too deep (a=line)
    PrefetchFault,    //!< suppressed: PTE marked a page fault
    ReplayBegin,      //!< replay issued after TLB fill (a=paddr)
    ReplayEnd,        //!< replay serviced (arg=ReplayClass)
    RowOpen,          //!< bank activated a row (a=bank, b=row)
    RowClose,         //!< bank precharged a row (a=bank, b=row)
    BlissBlacklist,   //!< BLISS blacklisted an app (a=app)
};

/** Where a replay was ultimately serviced (joins CoreStats's classes). */
enum class ReplayClass : std::uint8_t {
    PrivateHit, //!< L1/L2 hit
    LlcHit,     //!< LLC hit (TEMPO fill or resident line)
    Merged,     //!< merged with the in-flight TEMPO prefetch
    RowHit,     //!< DRAM row-buffer hit
    Array,      //!< full DRAM array access (incl. demand-MSHR waits)
};

inline constexpr std::size_t kNumReplayClasses = 5;

const char *replayClassName(ReplayClass cls);

/** What kind of translation started a walk. */
enum class WalkKind : std::uint8_t {
    Demand,       //!< demand reference (has a replay)
    CorePrefetch, //!< IMP/stride prefetch chain
    TlbPrefetch,  //!< next-page TLB prefetch chain
};

/** One recorded event: a fixed 40-byte POD, so the ring never
 * allocates past its up-front reservation. */
struct TraceEvent {
    Cycle ts = 0;
    std::uint64_t walkId = 0; //!< 0 when the event has no walk
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    EventType type = EventType::WalkBegin;
    std::uint8_t arg = 0;
};

/** Global observability configuration (off by default). */
struct Config {
    /** Record trace events (enables the whole subsystem). */
    bool trace = false;
    /** Category mask for trace events (audit counters ignore it). */
    std::uint32_t categories = kAllCategories;
    /** Ring capacity in events; oldest events are overwritten (and
     * counted) when a run produces more. Reserved up front so steady-
     * state recording never allocates. */
    std::size_t traceCapacity = 1u << 20;
    /** Sample the time-series every this many cycles; 0 = off. */
    Cycle timeseriesWindow = 0;
    std::string traceDir; //!< TEMPO_TRACE_DIR: cli::runBatch() writes here

    bool enabled() const { return trace || timeseriesWindow > 0; }
};

/** Install @p cfg globally. Call between runs, not during one. */
void configure(const Config &cfg);

/** The active global configuration. */
const Config &config();

/** The observability fields of cli::RunOptions::fromEnv() (defined
 * beside the run-option table, src/cli/run_options.cc), not installed.
 * @throws std::invalid_argument naming a malformed variable. */
Config configFromEnv();

/** Windowed time-series samples: parallel per-metric columns. */
struct TimeSeries {
    Cycle windowCycles = 0;
    /** (metric name, one value per window), all columns equal length.
     * The first column is "cycle": the sample timestamps. */
    std::vector<std::pair<std::string, std::vector<double>>> columns;

    bool
    empty() const
    {
        return columns.empty() || columns.front().second.empty();
    }
};

/** Everything one observed run produced. */
struct RunObs {
    Config cfg;                     //!< config the run recorded under
    std::vector<TraceEvent> events; //!< ring contents, oldest first
    std::uint64_t droppedEvents = 0;
    TimeSeries timeseries;
};

class Session;

namespace detail {

extern std::atomic<bool> globallyEnabled;
extern thread_local Session *tlsSession;

} // namespace detail

/**
 * The active session for this thread, or nullptr. The disabled path is
 * one relaxed atomic load plus a predictable branch — the contract every
 * instrumentation site relies on.
 */
inline Session *
session()
{
    if (!detail::globallyEnabled.load(std::memory_order_relaxed))
        return nullptr;
    return detail::tlsSession;
}

/**
 * Per-run recording state. Instrumentation hooks call into the session
 * returned by obs::session(); System::run owns one via ScopedRun.
 */
class Session
{
  public:
    explicit Session(const Config &cfg);

    // --- Walker lifecycle (SimCore) ---
    /** Register a planned walk of @p app; returns its dense 1-based
     * id. */
    std::uint64_t walkBegin(Cycle now, AppId app, Addr vaddr,
                            WalkKind kind, std::size_t planned_steps,
                            std::size_t skipped_steps);
    void walkStep(Cycle now, std::uint64_t id, int level, Addr pte_addr,
                  std::uint8_t found_level);
    void ptAccessTag(Cycle now, std::uint64_t id, Addr pte_line,
                     Addr replay_line, bool pte_valid);
    void walkEnd(Cycle now, std::uint64_t id, bool leaf_dram);

    // --- Replay lifecycle (SimCore) ---
    void replayBegin(Cycle now, std::uint64_t id, Addr paddr);
    /** Classify the replay; @p when is its service-completion cycle. */
    void replayEnd(Cycle when, std::uint64_t id, ReplayClass cls);

    // --- Memory controller ---
    void txqEnqueue(Cycle now, unsigned channel, std::uint8_t kind,
                    std::uint64_t walk_id, std::size_t occupancy);
    void txqSplit(Cycle now, unsigned channel, std::uint64_t walk_id);
    void txqDispatch(Cycle now, std::uint8_t kind, std::uint64_t walk_id,
                     Addr paddr);

    // --- Prefetch engine ---
    void prefetchIssue(Cycle now, std::uint64_t walk_id, Addr line);
    void prefetchDrop(Cycle now, std::uint64_t walk_id, Addr line);
    void prefetchFault(Cycle now, std::uint64_t walk_id);
    void prefetchActivate(Cycle when, std::uint64_t walk_id, Addr line,
                          std::uint8_t row_event);
    void prefetchFill(Cycle when, std::uint64_t walk_id, Addr line);

    // --- Core prefetch engines (prefetch/registry.hh) ---
    // Trace-only: the events land in the ring (b = 1 marks them as
    // core-engine, distinguishing them from the TEMPO engine's b = 0)
    // but touch no audit counters, so obs.prefetch_* keeps summing to
    // mc.tempo.prefetches_issued exactly as before.
    void corePrefetchIssue(Cycle now, Addr line);
    void corePrefetchDrop(Cycle now, Addr line);

    // --- DRAM / scheduler ---
    void rowOpen(Cycle when, unsigned bank, Addr row);
    void rowClose(Cycle when, unsigned bank, Addr row);
    void blissBlacklist(Cycle now, AppId app);

    /** Append one time-series sample (System's sampler). */
    void timeseriesSample(Cycle now, std::size_t txq_occupancy,
                          std::size_t prefetch_slots,
                          std::uint64_t outstanding_walks,
                          std::uint64_t row_hits,
                          std::uint64_t row_accesses);

    /**
     * Warmup windows. Walk and replay audit counters (walks*,
     * walk_steps*, replay_*) follow each app's own window, as its core
     * stats do: after warmUp(@p apps), an app's walks and replays count
     * only once startMeasuring() named it at its warmup boundary.
     */
    void warmUp(std::size_t apps);
    void startMeasuring(AppId app);

    /**
     * Machine warmup boundary (the last app's; the system resets MC,
     * DRAM and LLC stats here too): zero the prefetch and BLISS
     * counters, which are checked against mc.tempo.*, and start a new
     * epoch so prefetches issued before the boundary never classify
     * into the measured window. Recorded trace events and time-series
     * samples are kept — they are timestamped history, not counters.
     */
    void resetCounters();

    /** Finalize: classify leftover prefetches, fill the "obs." report,
     * and hand the recorded data out. The session becomes inert. */
    std::shared_ptr<RunObs> finish(stats::Report &audit);

  private:
    friend class ScopedRun;

    struct WalkRecord {
        Cycle replayStart = 0;
        std::uint32_t pfEpoch = 0;
        AppId app = 0;
        WalkKind kind = WalkKind::Demand;
        bool leafDram = false;
        bool pfIssued = false;
        bool pfClassified = false;
    };

    /** Walk and replay audit counters: each counts in its app's
     * window. */
    struct WalkCounters {
        std::uint64_t walks = 0;
        std::uint64_t walksPrefetch = 0;
        std::uint64_t walksTlbPrefetch = 0;
        std::uint64_t walksLeafDram = 0;
        std::uint64_t walkSteps = 0;
        std::uint64_t walkStepsSkipped = 0;
        std::uint64_t replay[kNumReplayClasses] = {};
    };

    /** Prefetch and BLISS audit counters: the machine's window. */
    struct MachineCounters {
        std::uint64_t prefetchIssued = 0;
        std::uint64_t prefetchUseful = 0;
        std::uint64_t prefetchLate = 0;
        std::uint64_t prefetchUseless = 0;
        std::uint64_t prefetchDropped = 0;
        std::uint64_t prefetchFaults = 0;
        std::uint64_t blissBlacklists = 0;
    };

    void record(Category cat, EventType type, Cycle ts,
                std::uint64_t walk_id, std::uint64_t a, std::uint64_t b,
                std::uint8_t arg);
    WalkRecord *walk(std::uint64_t id);
    bool measuring(AppId app) const
    {
        return app >= warming_.size() || !warming_[app];
    }

    Config cfg_;
    std::vector<TraceEvent> ring_;
    std::size_t ringNext_ = 0;     //!< next write position
    bool ringWrapped_ = false;
    std::uint64_t dropped_ = 0;

    std::vector<WalkRecord> walks_; //!< indexed by walk id - 1
    WalkCounters walkCounts_;
    MachineCounters machineCounts_;
    std::uint32_t epoch_ = 0;
    std::vector<char> warming_; //!< per app: still before its boundary

    stats::Distribution replayLat_[kNumReplayClasses];
    stats::Distribution windowLat_; //!< current sample window's latency
    stats::Distribution totalLat_;
    stats::Histogram replayHist_;

    TimeSeries ts_;
    std::uint64_t prevRowHits_ = 0;
    std::uint64_t prevRowAccesses_ = 0;
};

/**
 * RAII guard System::run uses: creates a thread-local session when
 * observability is enabled and guarantees the thread-local slot is
 * cleared on scope exit (including exception unwinds from watchdog
 * timeouts or injected faults).
 */
class ScopedRun
{
  public:
    ScopedRun();
    ~ScopedRun();

    ScopedRun(const ScopedRun &) = delete;
    ScopedRun &operator=(const ScopedRun &) = delete;

    Session *session() const { return session_.get(); }

    /** Finalize and detach the session's data (see Session::finish). */
    std::shared_ptr<RunObs> finish(stats::Report &audit);

  private:
    std::unique_ptr<Session> session_;
};

/**
 * Export a run's ring as Chrome trace-event JSON: pid 1 = walks (one
 * tid per walk id), pid 2 = memory controller, pid 3 = prefetch engine
 * (tid per walk id), pid 4 = DRAM banks, pid 5 = time-series counters.
 * Per-track timestamps are clamped monotone and unmatched begin/end
 * events (ring overwrites, rows still open at exit) are repaired, so
 * the output always nests cleanly.
 */
void writeChromeTrace(std::ostream &os, const RunObs &run);

/** @throws std::runtime_error when @p path cannot be written. */
void writeChromeTrace(const std::string &path, const RunObs &run);

} // namespace tempo::obs

#endif // TEMPO_OBS_OBS_HH
