#include "common/thread_pool.hh"

#include "common/parse.hh"

namespace tempo {

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = envValue("TEMPO_JOBS")) {
        const unsigned parsed = parseUnsigned("TEMPO_JOBS", env);
        if (parsed > 0)
            return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = defaultThreads();
    queues_.resize(num_threads);
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queues_[nextQueue_].push_back(std::move(task));
        nextQueue_ = (nextQueue_ + 1) % queues_.size();
        ++pending_;
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return pending_ == 0; });
    if (error_) {
        std::exception_ptr error = std::exchange(error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop(std::size_t self)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::function<void()> task;
        if (!queues_[self].empty()) {
            // Own work first, oldest first.
            task = std::move(queues_[self].front());
            queues_[self].pop_front();
        } else {
            // Steal the newest task off the back of another deque.
            for (std::size_t k = 1; k < queues_.size() && !task; ++k) {
                auto &victim = queues_[(self + k) % queues_.size()];
                if (!victim.empty()) {
                    task = std::move(victim.back());
                    victim.pop_back();
                }
            }
        }

        if (task) {
            lock.unlock();
            std::exception_ptr raised;
            try {
                task();
            } catch (...) {
                raised = std::current_exception();
            }
            lock.lock();
            if (raised && !error_)
                error_ = raised;
            --pending_;
            if (pending_ == 0)
                idleCv_.notify_all();
            continue;
        }

        if (stop_)
            return;
        workCv_.wait(lock);
    }
}

} // namespace tempo
