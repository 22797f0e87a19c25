// SIMD tier sweeps for the kernel conformance tests.
#pragma once

#include <vector>

#include "tensor/cpu_features.h"

namespace ttrec {

/// Restores the forced dispatch tier on scope exit, so a failing test can't
/// leak its tier into the rest of the binary.
class TierGuard {
 public:
  TierGuard() : saved_(ActiveSimdTier()) {}
  ~TierGuard() { SetSimdTier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  SimdTier saved_;
};

/// Every tier this machine can actually execute: scalar is always present,
/// vector tiers only when CPUID reports them (SetSimdTier would clamp an
/// unsupported request anyway, which would silently re-test a lower tier).
inline std::vector<SimdTier> TestableTiers() {
  std::vector<SimdTier> tiers;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

}  // namespace ttrec
