// The producer side of the serving pipeline: request/result types and the
// bounded MPMC queue that feeds the batching consumers.
//
// Thread-safety: every RequestQueue method may be called concurrently from
// any number of producer and consumer threads. PendingRequest itself is
// move-only (it carries a std::promise) and owned by exactly one thread at
// a time — the producer until PushUntil returns kOk, the queue while
// enqueued, one consumer after PopBatch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "data/csr_batch.h"
#include "tensor/tensor.h"

namespace ttrec::serve {

/// Sentinel deadline: the request is willing to wait forever.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// One inference request: `dense` is (num_samples x num_dense) and `sparse`
/// holds one CsrBatch per table with num_samples bags each. Most clients
/// send a single sample; multi-sample requests ride through unchanged and
/// get one logit per sample back.
struct InferenceRequest {
  Tensor dense;
  std::vector<CsrBatch> sparse;
  /// Absolute deadline: once it passes, the server fails the future with
  /// DeadlineExceeded instead of computing logits nobody is waiting for —
  /// checked at admission, and again by the consumer before the forward
  /// pass. kNoDeadline (the default) opts out.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;

  int64_t num_samples() const {
    return dense.ndim() == 2 ? dense.dim(0) : 0;
  }

  bool has_deadline() const { return deadline != kNoDeadline; }
  bool expired(std::chrono::steady_clock::time_point now) const {
    return has_deadline() && now >= deadline;
  }
};

struct InferenceResult {
  std::vector<float> logits;  // one per request sample
  /// Size of the micro-batch this request was folded into — telemetry for
  /// the client; the logits themselves are batching-invariant.
  int64_t micro_batch_size = 0;
  /// Generation of the model that served this request (1 for the model the
  /// server started with, +1 per successful SwapModel). Every sample of a
  /// request is computed by exactly this generation — micro-batches never
  /// mix generations.
  uint64_t model_generation = 0;
};

/// A request plus its delivery machinery, as stored on the queue.
struct PendingRequest {
  InferenceRequest request;
  std::promise<InferenceResult> promise;
  std::chrono::steady_clock::time_point enqueued_at;
};

/// Bounded FIFO between producers (Submit) and batching consumers.
class RequestQueue {
 public:
  /// Why a push did not enqueue. On kOk the item has been consumed; on
  /// kClosed / kTimedOut the item (promise included) stays with the
  /// caller, which owns the failure: exactly one party ever touches the
  /// promise, so a producer racing Close() cannot double-fail it.
  enum class PushResult { kOk, kClosed, kTimedOut };

  explicit RequestQueue(size_t capacity);

  /// Admission primitive with a bounded wait: blocks until space, the
  /// queue closes, or `deadline` passes — whichever comes first.
  /// kNoDeadline blocks indefinitely (the classic backpressure mode); a
  /// deadline already in the past is a try-push.
  PushResult PushUntil(PendingRequest& item,
                       std::chrono::steady_clock::time_point deadline);

  /// Takes up to `max_items` requests. Blocks until at least one is
  /// queued, then takes whatever is queued, up to `max_items`, and returns
  /// at once: it never waits for stragglers, so an idle consumer serves a
  /// lone request alone and batches grow only with the backlog. An empty
  /// return means closed-and-drained (the consumer's exit signal).
  std::vector<PendingRequest> PopBatch(int64_t max_items);

  /// Closes the queue: subsequent pushes fail with kClosed, pushers
  /// blocked in PushUntil wake promptly, consumers drain what remains and
  /// then get empty batches.
  void Close();

  bool closed() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Deepest the queue has ever been — the overload post-mortem figure
  /// exported as queue_depth_high_water in the metrics snapshot.
  size_t high_water() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<PendingRequest> items_;
  size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace ttrec::serve
