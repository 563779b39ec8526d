/**
 * @file
 * A small work-stealing thread pool for the experiment engine.
 *
 * Each worker owns a deque: it pops its own work from the front and,
 * when empty, steals from the back of the other workers' deques. Tasks
 * are full simulation points (seconds of work each), so contention on
 * the single pool mutex is irrelevant; what matters is that idle
 * workers drain whichever queue still has work, keeping all cores busy
 * through the uneven tail of a sweep.
 *
 * Determinism contract: the pool never hands tasks any shared mutable
 * state, so a task set whose tasks are independent (each simulation
 * point constructs its own system and RNG from an explicit seed)
 * produces bit-identical results regardless of thread count or
 * scheduling order. parallelFor() writes results by index, never by
 * completion order.
 *
 * Fault handling: the pool itself only offers fail-fast semantics —
 * wait() rethrows the first task exception after every task has run.
 * Per-point fault isolation (capturing a failure into the point's own
 * result instead of aborting the sweep) lives one layer up, in
 * core/experiment's exception barrier; tasks submitted through the
 * engine never leak exceptions into wait().
 */

#ifndef TEMPO_COMMON_THREAD_POOL_HH
#define TEMPO_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tempo {

class ThreadPool
{
  public:
    /** @p num_threads 0 selects defaultThreads(). */
    explicit ThreadPool(unsigned num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task (round-robin across worker deques). */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. Rethrows the
     * first exception a task raised, if any (remaining tasks still run
     * to completion first).
     */
    void wait();

    /** TEMPO_JOBS env var if set and positive, else all hardware
     * threads (at least 1).
     * @throws std::invalid_argument when TEMPO_JOBS is not a number. */
    static unsigned defaultThreads();

  private:
    void workerLoop(std::size_t self);

    // All pool state shares one mutex: tasks are coarse (whole
    // simulation points), so per-queue locks would buy nothing.
    std::mutex mutex_;
    std::condition_variable workCv_; //!< wakes workers
    std::condition_variable idleCv_; //!< wakes wait()
    std::vector<std::deque<std::function<void()>>> queues_;
    std::vector<std::thread> workers_;
    std::size_t nextQueue_ = 0; //!< round-robin submit cursor
    std::size_t pending_ = 0;   //!< submitted, not yet finished
    bool stop_ = false;
    std::exception_ptr error_;
};

/**
 * Run fn(0) .. fn(n-1) on @p jobs threads (0 = defaultThreads) and
 * block until all complete. The callable must only touch state owned
 * by its own index.
 */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned jobs, Fn &&fn)
{
    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace tempo

#endif // TEMPO_COMMON_THREAD_POOL_HH
