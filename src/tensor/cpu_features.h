// Runtime CPU capability detection and SIMD dispatch-tier selection.
//
// The GEMM microkernels ship in up to three tiers — portable scalar,
// AVX2+FMA, and AVX-512 (F/BW/DQ/VL) — compiled into separate translation
// units with per-file ISA flags. Which tier actually runs is decided once
// at startup from CPUID/XCR0, clamped by what this binary was compiled
// with, and optionally overridden DOWN via the TTREC_SIMD environment
// variable or SetSimdTier() (bench sweeps, CI's forced-scalar job).
//
// Determinism contract: results are bitwise reproducible within a tier
// (same inputs, any thread count, any operand alignment), and a GEMM row's
// or an interaction sample's result does not depend on m, the batch size
// or its position in it. Different tiers
// round differently (FMA, vectorized reduction order); cross-tier
// agreement is gated against GemmRef at tight tolerance in test_gemm.
#pragma once

#include <string>

namespace ttrec {

/// Dispatch tiers, ordered: a CPU that supports tier t supports every
/// tier below it, and any tier may be selected at or below the detected one.
enum class SimdTier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar" / "avx2" / "avx512" — the names TTREC_SIMD accepts and the
/// labels stamped into BENCH_kernels.json and the obs registry.
const char* SimdTierName(SimdTier tier);

/// Best tier this process can run: hardware capability (CPUID + OS state
/// via XCR0) intersected with the kernel TUs compiled into this binary.
/// Cached after the first call.
SimdTier DetectedSimdTier();

/// The tier Gemm/Axpy dispatch on right now: DetectedSimdTier() clamped by
/// the TTREC_SIMD override (scalar|avx2|avx512; unknown values are ignored
/// with a warning, requests above the detected tier clamp down) and by the
/// last SetSimdTier() call.
SimdTier ActiveSimdTier();

/// Programmatic override for tests and bench tier sweeps. Requests above
/// DetectedSimdTier() clamp down. Takes effect for subsequent kernel
/// calls; do not change the tier while kernels are in flight if bitwise
/// reproducibility of that computation matters.
void SetSimdTier(SimdTier tier);

/// Drops any SetSimdTier() override and re-resolves from CPUID + TTREC_SIMD.
void ResetSimdTier();

/// CPU brand string via CPUID (e.g. "Intel(R) Xeon(R) CPU @ 2.10GHz");
/// "unknown" on non-x86 builds. Stamped into bench artifacts so perf
/// numbers are attributable to the machine that produced them.
std::string CpuModelName();

}  // namespace ttrec
