#include "serve/load_governor.h"

#include <utility>

#include "tensor/check.h"

namespace ttrec::serve {

LoadGovernor::LoadGovernor(LoadGovernorConfig config, Sampler sampler,
                           TransitionHook on_transition)
    : config_(config),
      sampler_(std::move(sampler)),
      on_transition_(std::move(on_transition)) {
  TTREC_CHECK_CONFIG(sampler_ != nullptr, "LoadGovernor: sampler required");
  TTREC_CHECK_CONFIG(
      config_.recover_at <= config_.degrade_at &&
          config_.degrade_at <= config_.shed_at,
      "LoadGovernor: thresholds must order recover_at <= degrade_at <= "
      "shed_at");
  TTREC_CHECK_CONFIG(config_.tick.count() > 0,
                     "LoadGovernor: tick must be positive");
}

LoadGovernor::~LoadGovernor() { Stop(); }

void LoadGovernor::Start() {
  if (!config_.enabled || thread_.joinable()) return;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      // Evaluate without the lock: the sampler may take the server's model
      // or queue locks, and Stop() must never wait behind a slow sample.
      lock.unlock();
      Evaluate();
      lock.lock();
      cv_.wait_for(lock, config_.tick, [this] { return stopping_; });
    }
  });
}

void LoadGovernor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

HealthState LoadGovernor::Next(HealthState cur, const Signals& s) const {
  const double frac =
      s.queue_capacity > 0
          ? static_cast<double>(s.queue_depth) /
                static_cast<double>(s.queue_capacity)
          : 0.0;
  switch (cur) {
    case HealthState::kHealthy:
      if (frac >= config_.shed_at) return HealthState::kShedding;
      if (frac >= config_.degrade_at) return HealthState::kDegraded;
      return cur;
    case HealthState::kDegraded:
      if (frac >= config_.shed_at) return HealthState::kShedding;
      if (frac <= config_.recover_at) return HealthState::kHealthy;
      return cur;
    case HealthState::kShedding:
      // Recovery from shedding steps down through degraded — the queue
      // must first drain well below the shed threshold.
      if (frac <= config_.degrade_at) return HealthState::kDegraded;
      return cur;
    case HealthState::kDraining:
      return cur;  // terminal
  }
  return cur;
}

HealthState LoadGovernor::Evaluate() {
  const HealthState cur = state();
  if (cur == HealthState::kDraining) return cur;
  const HealthState next = Next(cur, sampler_());
  if (next != cur) {
    // Tick thread and test callers never race each other by contract, and
    // ForceDrain wins any race by being re-checked in SetState.
    SetState(next);
  }
  return state();
}

void LoadGovernor::ForceDrain() {
  if (state() == HealthState::kDraining) return;
  SetState(HealthState::kDraining);
}

void LoadGovernor::SetState(HealthState to) {
  const HealthState from = state();
  // Draining is sticky: a concurrent ForceDrain must not be overwritten by
  // an in-flight Evaluate's verdict.
  int expected = static_cast<int>(from);
  if (from == HealthState::kDraining ||
      !state_.compare_exchange_strong(expected, static_cast<int>(to),
                                      std::memory_order_acq_rel)) {
    return;
  }
  if (on_transition_) on_transition_(from, to);
}

}  // namespace ttrec::serve
