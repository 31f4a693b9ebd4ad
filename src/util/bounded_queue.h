// Bounded multi-producer multi-consumer blocking queue, the backbone of the
// data-loader pipeline (prefetch queue between reader/decoder threads and the
// consumer).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "util/logging.h"

namespace pcr {

/// Blocking FIFO with a fixed capacity. Push blocks when full; Pop blocks
/// when empty. Close() wakes all waiters: pending items drain, then Pop
/// returns nullopt and Push returns false.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    PCR_CHECK_GT(capacity, 0u);
  }

  /// Blocks until space is available or the queue is closed.
  /// Returns false (dropping the item) if closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false if full or closed.
  bool TryPush(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // Closed and drained.
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Pop with a deadline: blocks up to `timeout_nanos` for an item. Returns
  /// nullopt on timeout *and* on closed-and-drained; use closed() to tell the
  /// two apart when it matters (the I/O schedulers' bounded waits do).
  std::optional<T> PopFor(int64_t timeout_nanos) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, std::chrono::nanoseconds(timeout_nanos),
                        [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // Timeout or closed-and-drained.
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Marks the queue closed; all blocked producers/consumers wake up.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace pcr
