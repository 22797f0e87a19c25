#include "serve/request_queue.h"

#include <utility>

#include "tensor/check.h"

namespace ttrec::serve {

RequestQueue::RequestQueue(size_t capacity) : capacity_(capacity) {
  TTREC_CHECK_CONFIG(capacity >= 1, "RequestQueue: capacity must be >= 1");
}

RequestQueue::PushResult RequestQueue::PushUntil(
    PendingRequest& item, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto admissible = [this] {
    return closed_ || items_.size() < capacity_;
  };
  if (deadline == kNoDeadline) {
    // wait_until with time_point::max() overflows on some libstdc++
    // versions, so the unbounded mode takes the plain wait.
    not_full_.wait(lock, admissible);
  } else if (!not_full_.wait_until(lock, deadline, admissible)) {
    return PushResult::kTimedOut;
  }
  // The wake reasons are checked in a fixed priority order under the lock:
  // a producer that raced Close() always observes kClosed here (never
  // enqueues onto a closed queue), and the caller — the only owner of the
  // item — fails the promise exactly once.
  if (closed_) return PushResult::kClosed;
  items_.push_back(std::move(item));
  if (items_.size() > high_water_) high_water_ = items_.size();
  lock.unlock();
  not_empty_.notify_one();
  return PushResult::kOk;
}

std::vector<PendingRequest> RequestQueue::PopBatch(int64_t max_items) {
  std::vector<PendingRequest> out;
  if (max_items < 1) max_items = 1;
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
  while (!items_.empty() && static_cast<int64_t>(out.size()) < max_items) {
    out.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  lock.unlock();
  not_full_.notify_all();
  return out;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

size_t RequestQueue::high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

}  // namespace ttrec::serve
