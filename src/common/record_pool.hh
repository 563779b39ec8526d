/**
 * @file
 * RecordPool: a free-listed array of records named by 32-bit index.
 *
 * In-flight simulator state (a reference, a page walk, a pending
 * prefetch launch, an MSHR waiter) lives in a pool, so an event or a
 * completion callback names its record with an index instead of owning
 * a heap object. Indices survive growth; references into the pool do
 * not, so never hold one across a call that can acquire a record. The
 * pool starts empty, doubles when it runs dry and never shrinks: once
 * a run reaches its peak occupancy it stops allocating.
 */

#ifndef TEMPO_COMMON_RECORD_POOL_HH
#define TEMPO_COMMON_RECORD_POOL_HH

#include <cstdint>
#include <vector>

namespace tempo {

template <typename T>
class RecordPool
{
  public:
    /** Take a free record, reset to T{}, and return its index. */
    std::uint32_t
    acquire()
    {
        if (free_.empty())
            grow();
        const std::uint32_t id = free_.back();
        free_.pop_back();
        records_[id] = T{};
        return id;
    }

    /** Return record @p id to the pool. */
    void release(std::uint32_t id) { free_.push_back(id); }

    T &operator[](std::uint32_t id) { return records_[id]; }
    const T &operator[](std::uint32_t id) const { return records_[id]; }

  private:
    /** Double the pool (the first acquire() makes one record). */
    void
    grow()
    {
        const std::size_t old = records_.size();
        records_.resize(old == 0 ? 1 : 2 * old);
        free_.reserve(records_.size());
        // Lowest new index on top: a fresh pool hands out 0, 1, 2, ...
        for (std::size_t i = records_.size(); i-- > old;)
            free_.push_back(static_cast<std::uint32_t>(i));
    }

    std::vector<T> records_;
    std::vector<std::uint32_t> free_; //!< LIFO: the warmest record first
};

} // namespace tempo

#endif // TEMPO_COMMON_RECORD_POOL_HH
