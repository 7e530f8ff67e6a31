/**
 * @file
 * BoundedQueue: the fixed-capacity MPSC ring between connection
 * readers and a bank's encode worker — the backpressure element of
 * the live service.
 *
 * The ring is preallocated at construction, so a steady-state
 * push/popSome cycle performs no heap allocation; the consumer takes
 * whatever is queued, up to a block, under one lock. push() blocks
 * while the ring is full: a connection that outruns its bank's
 * encode stops reading its socket, the kernel receive window fills,
 * and TCP pushes back on the client — memory use stays bounded by
 * (capacity x item size) per bank no matter how fast clients send.
 * stallCount() counts pushes that had to wait, which telemetry
 * reports as the backpressure signal.
 */

#ifndef WLCRC_SERVE_QUEUE_HH
#define WLCRC_SERVE_QUEUE_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace wlcrc::serve
{

/** Fixed-capacity blocking queue (many producers, one consumer). */
template <typename T>
class BoundedQueue
{
  public:
    /** @throws std::invalid_argument if @p capacity is 0. */
    explicit BoundedQueue(std::size_t capacity)
        : ring_(capacity ? capacity : throwCapacity())
    {}

    /**
     * Enqueue @p item, blocking while the queue is full.
     * @return false (item not enqueued) once close()d.
     */
    bool
    push(const T &item)
    {
        std::unique_lock lock(mutex_);
        if (size_ == ring_.size()) {
            ++stalls_;
            notFull_.wait(lock, [&] {
                return closed_ || size_ < ring_.size();
            });
        }
        if (closed_)
            return false;
        ring_[(head_ + size_) % ring_.size()] = item;
        ++size_;
        lock.unlock();
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Dequeue everything queued, up to @p max >= 1 items, into
     * @p out in push order, blocking only while the queue is empty:
     * it never waits for more items to arrive.
     * @return the number taken; 0 once close()d *and* drained — the
     * consumer's termination signal; every pushed item is still
     * delivered.
     */
    std::size_t
    popSome(T *out, std::size_t max)
    {
        std::unique_lock lock(mutex_);
        notEmpty_.wait(lock, [&] { return closed_ || size_ > 0; });
        const std::size_t n = std::min(size_, max);
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = ring_[head_];
            head_ = (head_ + 1) % ring_.size();
        }
        size_ -= n;
        lock.unlock();
        // Each freed slot can unblock a different producer.
        notFull_.notify_all();
        return n;
    }

    /** Reject future pushes; popSome drains what is already queued. */
    void
    close()
    {
        {
            std::lock_guard lock(mutex_);
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    /** Items currently queued (racy snapshot, for telemetry). */
    std::size_t
    depth() const
    {
        std::lock_guard lock(mutex_);
        return size_;
    }

    /** Pushes that found the queue full and had to wait. */
    uint64_t
    stallCount() const
    {
        std::lock_guard lock(mutex_);
        return stalls_;
    }

    std::size_t capacity() const { return ring_.size(); }

  private:
    [[noreturn]] static std::size_t throwCapacity();

    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::vector<T> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    uint64_t stalls_ = 0;
    bool closed_ = false;
};

template <typename T>
std::size_t
BoundedQueue<T>::throwCapacity()
{
    throw std::invalid_argument("BoundedQueue capacity must be > 0");
}

} // namespace wlcrc::serve

#endif // WLCRC_SERVE_QUEUE_HH
