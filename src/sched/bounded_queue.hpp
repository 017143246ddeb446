// Bounded multi-producer / multi-consumer queue — the admission-control
// primitive of the serving layer (serve/service.hpp), kept generic here
// next to the other scheduling building blocks.
//
// Semantics chosen for request serving:
//   - push() blocks while full (the Block admission policy);
//     try_push() fails immediately instead (the Reject policy).
//   - pop() blocks while empty (and while paused), returning std::nullopt
//     only once the queue is closed AND empty — the consumer's exit signal.
//     pop(eligible) does the same over the items a consumer accepts: it
//     takes the first queued item satisfying the predicate, leaving the
//     ones before it in place (routing a retry away from a consumer).
//   - close() wakes every waiter; subsequent pushes fail, already-queued
//     items remain poppable (drain), or can be flushed with drain_now().
//   - extract_if() lets a consumer pull additional matching items out of
//     the middle of the queue (request coalescing / batching).
//   - set_paused(true) holds consumers without rejecting producers, which
//     gives tests and benchmarks a deterministic queue composition.
#pragma once

#include <algorithm>
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
  /// Pushes wake every consumer: one waiting in pop(eligible) may not
  /// accept the new item while another would.
  bool push(T& item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_all();
    return true;
  }
  bool push(T&& item) {
    T local = std::move(item);
    return push(local);
  }

  /// Non-blocking push: false when full or closed.
  bool try_push(T& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_all();
    return true;
  }

  /// Blocking pop; std::nullopt once closed and drained.
  std::optional<T> pop() {
    return pop([](const T&) { return true; });
  }

  /// Blocking pop of the first queued item satisfying `eligible`. Waits
  /// while paused or while no queued item qualifies; std::nullopt once the
  /// queue is closed and no queued item qualifies.
  template <typename Pred>
  std::optional<T> pop(Pred eligible) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = items_.end();
    not_empty_.wait(lock, [&] {
      if (paused_) return false;  // closing clears the pause
      it = std::find_if(items_.begin(), items_.end(), eligible);
      return it != items_.end() || closed_;
    });
    if (it == items_.end()) return std::nullopt;
    T item = std::move(*it);
    items_.erase(it);
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
