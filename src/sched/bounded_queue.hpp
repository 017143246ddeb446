// Bounded multi-producer / multi-consumer queue — the admission-control
// primitive of the serving layer (serve/service.hpp), kept generic here
// next to the other scheduling building blocks.
//
// Semantics chosen for request serving:
//   - push() blocks while full (backpressure on the submitter).
//   - pop() blocks while empty (and while paused), returning std::nullopt
//     only once the queue is closed AND empty — the consumer's exit signal.
//   - close() wakes every waiter; subsequent pushes fail, already-queued
//     items remain poppable (drain), or can be flushed with drain_now().
//   - extract_if() lets a consumer pull additional matching items out of
//     the middle of the queue (request coalescing / batching).
//   - set_paused(true) holds consumers without rejecting producers, which
//     gives tests and benchmarks a deterministic queue composition.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace mfgpu {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    MFGPU_CHECK(capacity > 0, "BoundedQueue: capacity must be positive");
  }

  /// Blocking push. Returns false only when the queue is or becomes closed
  /// while waiting; the item is consumed (moved from) only on success, so a
  /// failed push leaves it intact for the caller (e.g. to fail its promise).
  bool push(T& item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }
  bool push(T&& item) {
    T local = std::move(item);
    return push(local);
  }

  /// Blocking pop; waits while paused or empty, std::nullopt once closed
  /// and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] {
      // Closing clears the pause.
      return !paused_ && (!items_.empty() || closed_);
    });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Remove up to `max_items` queued items satisfying `pred`, preserving
  /// queue order. Intended for consumers assembling a batch around an item
  /// they just popped.
  template <typename Pred>
  std::vector<T> extract_if(Pred pred, std::size_t max_items) {
    std::vector<T> extracted;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = items_.begin();
           it != items_.end() && extracted.size() < max_items;) {
        if (pred(*it)) {
          extracted.push_back(std::move(*it));
          it = items_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!extracted.empty()) not_full_.notify_all();
    return extracted;
  }

  /// Close the queue: producers fail from now on, consumers drain what is
  /// left and then see std::nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      paused_ = false;  // a paused closed queue would deadlock its drain
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Remove and return everything still queued (e.g. to fail pending
  /// requests on a non-draining shutdown).
  std::vector<T> drain_now() {
    std::vector<T> drained;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      drained.assign(std::make_move_iterator(items_.begin()),
                     std::make_move_iterator(items_.end()));
      items_.clear();
    }
    not_full_.notify_all();
    return drained;
  }

  /// While paused, consumers block even when items are queued; producers
  /// are unaffected. Closing clears the pause.
  void set_paused(bool paused) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      paused_ = paused;
    }
    if (!paused) not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  bool paused_ = false;
};

}  // namespace mfgpu
