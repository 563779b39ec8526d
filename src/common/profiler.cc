#include "common/profiler.hh"

namespace tempo::prof {

namespace detail {

std::atomic<bool> globallyEnabled{false};

ThreadState &
state()
{
    static thread_local ThreadState st;
    return st;
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::globallyEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return detail::globallyEnabled.load(std::memory_order_relaxed);
}

void
beginWindow()
{
    detail::ThreadState &st = detail::state();
    st.totals = Totals{};
    st.current = Component::Scheduler;
    st.stamp = detail::clockNs();
    st.active = true;
}

Totals
endWindow()
{
    detail::ThreadState &st = detail::state();
    if (!st.active)
        return Totals{};
    detail::switchTo(st, Component::Scheduler);
    st.active = false;
    return st.totals;
}

bool
windowOpen()
{
    return detail::state().active;
}

} // namespace tempo::prof
