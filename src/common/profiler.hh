/**
 * @file
 * A lightweight built-in profiler: wall-clock self-time attribution per
 * simulator component (event scheduler, core, page-table walker, memory
 * controller, DRAM device, workload generation).
 *
 * Off by default; the CLI's --profile flag enables it globally before
 * any run starts. When disabled, every instrumentation point costs one
 * relaxed atomic load and a predictable branch. When enabled, each run
 * opens a per-thread collection window, and prof::Scope RAII markers
 * attribute elapsed time to the innermost active component — self
 * time, not inclusive time: a Dram scope inside an Mc scope bills the
 * DRAM portion to Dram only. All mutable state is thread-local, so
 * profiling is thread-safe by construction: the parallel experiment
 * engine runs each point's window on one worker thread, and callers
 * that open several windows sum them with Totals::add.
 *
 * Profile numbers are wall-clock and therefore NOT deterministic; they
 * are reported under the "profile." prefix only when --profile is on,
 * so default runs (and the golden-stats byte-identity checks) are
 * unaffected.
 */

#ifndef TEMPO_COMMON_PROFILER_HH
#define TEMPO_COMMON_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace tempo::prof {

/** Attribution buckets, one per major simulator component. */
enum class Component : std::uint8_t {
    Scheduler, //!< event-queue machinery + un-attributed simulator code
    Core,      //!< SimCore reference state machine (TLB, MSHRs)
    Cache,     //!< cache-hierarchy tag lookups, fills, victim handling
    Walker,    //!< page-table walk chains
    Mc,        //!< memory controller queues, scheduling, completions
    Dram,      //!< DRAM device timing
    Workload,  //!< workload generation (address stream synthesis)
};

inline constexpr std::size_t kNumComponents = 7;

inline const char *
componentName(Component c)
{
    switch (c) {
      case Component::Scheduler: return "scheduler";
      case Component::Core: return "core";
      case Component::Cache: return "cache";
      case Component::Walker: return "walker";
      case Component::Mc: return "mc";
      case Component::Dram: return "dram";
      case Component::Workload: return "workload";
    }
    return "?";
}

/** One window's accumulated self-time and entry counts. */
struct Totals {
    std::uint64_t ns[kNumComponents] = {};
    std::uint64_t calls[kNumComponents] = {};

    /** Merge another window into this one (e.g. per-worker windows
     * summed into one total). */
    void
    add(const Totals &other)
    {
        for (std::size_t i = 0; i < kNumComponents; ++i) {
            ns[i] += other.ns[i];
            calls[i] += other.calls[i];
        }
    }
};

/** Global opt-in; set once (e.g. from the CLI) before runs start. */
void setEnabled(bool on);
bool enabled();

/** Reset this thread's totals and start attributing. */
void beginWindow();

/** Stop attributing on this thread and return the window's totals. */
Totals endWindow();

namespace detail {

struct ThreadState {
    bool active = false;
    Component current = Component::Scheduler;
    std::uint64_t stamp = 0;
    Totals totals;
};

ThreadState &state();

extern std::atomic<bool> globallyEnabled;

inline std::uint64_t
clockNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
}

inline void
switchTo(ThreadState &st, Component c)
{
    const std::uint64_t t = clockNs();
    st.totals.ns[static_cast<std::size_t>(st.current)] += t - st.stamp;
    st.stamp = t;
    st.current = c;
}

} // namespace detail

/**
 * RAII attribution marker: while alive, elapsed wall time bills to
 * @p c; on destruction attribution reverts to the enclosing component.
 */
class Scope
{
  public:
    explicit Scope(Component c)
    {
        if (!detail::globallyEnabled.load(std::memory_order_relaxed))
            return;
        detail::ThreadState &st = detail::state();
        if (!st.active)
            return;
        st_ = &st;
        prev_ = st.current;
        detail::switchTo(st, c);
        ++st.totals.calls[static_cast<std::size_t>(c)];
    }

    ~Scope()
    {
        if (st_)
            detail::switchTo(*st_, prev_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    detail::ThreadState *st_ = nullptr;
    Component prev_ = Component::Scheduler;
};

} // namespace tempo::prof

#endif // TEMPO_COMMON_PROFILER_HH
