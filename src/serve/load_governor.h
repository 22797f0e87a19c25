// Admission control + graceful degradation for the InferenceServer.
//
// A small background thread samples queue depth against capacity each tick
// and walks the server through the explicit health states of
// serve_metrics.h (depth below means depth / capacity):
//
//       ┌────────────────────── depth >= shed_at ───────────────────────┐
//       │                                                               ▼
//   healthy ──depth >= degrade_at──▶ degraded ──depth >= shed_at──▶ shedding
//      ▲                               │  ▲                           │
//      └───── depth <= recover_at ─────┘  └─── depth <= degrade_at ───┘
//
// Degraded and shedding favor latency over throughput (the server caps
// each micro-batch at max(1, max_batch_size / 4)); shedding also rejects
// at admission with a retry-after hint; draining (entered only via
// ForceDrain, never by sampling) is terminal. Hysteresis comes from
// recover_at < degrade_at < shed_at — the state cannot flap on a depth
// hovering at one threshold.
//
// The governor owns no serving machinery: it reads Signals through a
// callback and announces transitions through another, so it is testable
// with a synthetic queue and reusable by a future multi-shard router.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "serve/serve_metrics.h"

namespace ttrec::serve {

struct LoadGovernorConfig {
  /// false: the server stays kHealthy forever (modulo ForceDrain) and no
  /// tick thread is started.
  bool enabled = true;
  /// Sampling cadence. Reaction time to an overload onset is one tick.
  std::chrono::milliseconds tick{20};
  /// Queue-depth fractions (depth / capacity) driving the state machine;
  /// must satisfy recover_at <= degrade_at <= shed_at.
  double degrade_at = 0.5;
  double shed_at = 0.9;
  double recover_at = 0.25;
  /// Backoff hint carried by ServerOverloaded rejections while shedding.
  std::chrono::milliseconds retry_after{50};
};

class LoadGovernor {
 public:
  /// What one tick sees.
  struct Signals {
    size_t queue_depth = 0;
    size_t queue_capacity = 1;
  };

  using Sampler = std::function<Signals()>;
  /// Called from the governor thread (or Evaluate's caller) on every
  /// transition, after state() already reads `to`.
  using TransitionHook = std::function<void(HealthState from, HealthState to)>;

  LoadGovernor(LoadGovernorConfig config, Sampler sampler,
               TransitionHook on_transition);
  ~LoadGovernor();

  LoadGovernor(const LoadGovernor&) = delete;
  LoadGovernor& operator=(const LoadGovernor&) = delete;

  /// Starts the tick thread (no-op when disabled). Stop() is idempotent
  /// and also run by the destructor.
  void Start();
  void Stop();

  HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }

  /// One sampling step: reads Signals, applies the state machine, fires
  /// the hook on change, returns the new state. The tick thread calls
  /// this; tests may drive it directly on a stopped governor.
  HealthState Evaluate();

  /// Forces kDraining, a terminal state Evaluate never leaves.
  void ForceDrain();

  const LoadGovernorConfig& config() const { return config_; }

 private:
  HealthState Next(HealthState cur, const Signals& s) const;
  void SetState(HealthState to);

  LoadGovernorConfig config_;
  Sampler sampler_;
  TransitionHook on_transition_;
  std::atomic<int> state_{static_cast<int>(HealthState::kHealthy)};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ttrec::serve
