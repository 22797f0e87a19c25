#include "report.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "obs/json_writer.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"
#include "tensor/parallel.h"
#include "tensor/random.h"

namespace perfbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  const size_t n = v.size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))), 1,
      n);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

std::vector<Samples> Samples::Split(int n) const {
  std::vector<Samples> parts(static_cast<size_t>(n));
  const size_t total = values_.size();
  for (size_t i = 0; i < total; ++i) {
    parts[i * static_cast<size_t>(n) / total].Add(values_[i]);
  }
  return parts;
}

double MedianOfWindows(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double BetterQuartile(std::vector<double> v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  if (higher_is_better) {
    std::sort(v.begin(), v.end(), std::greater<double>());
  } else {
    std::sort(v.begin(), v.end());
  }
  return v[(v.size() + 3) / 4 - 1];
}

std::string WindowSummary(const std::string& name,
                          const std::vector<double>& per_window) {
  std::string line = "windows " + name + ":";
  char buf[32];
  for (double v : per_window) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    line += buf;
  }
  return line;
}

int64_t Samples::CountAbove(double x) const {
  return std::count_if(values_.begin(), values_.end(),
                       [x](double v) { return v > x; });
}

std::string Samples::Summary(const std::string& name, const std::string& unit,
                             double tail_p) const {
  const double p50 = Percentile(50.0);
  const double tail = Percentile(tail_p);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "timing %s: n=%zu p50=%.1f %s (%lld above) p%g=%.1f %s "
                "(%lld above)",
                name.c_str(), size(), p50, unit.c_str(),
                static_cast<long long>(CountAbove(p50)), tail_p, tail,
                unit.c_str(), static_cast<long long>(CountAbove(tail)));
  return buf;
}

double MeanLogloss(const std::vector<float>& logits,
                   const std::vector<float>& labels) {
  if (logits.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    const double z = logits[i];
    const double y = labels[i];
    sum += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::abs(z)));
  }
  return sum / static_cast<double>(logits.size());
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    return;
  }
  metrics_.push_back({name, value, unit});
}

void Result::Fail(const std::string& why) { problems_.push_back(why); }

void Result::Note(const std::string& line) { notes_.push_back(line); }

void Result::Print() const {
  if (correct()) {
    for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  } else {
    for (const std::string& p : problems_) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    }
  }
  ttrec::obs::JsonWriter w;
  w.BeginObject();
  w.Kv("correct", correct());
  w.Kv("attempted", attempted);
  w.Kv("failed", failed);
  w.Key("metrics").BeginObject();
  if (correct()) {
    for (const Entry& m : metrics_) {
      w.Key(m.name).BeginObject();
      w.Kv("value", m.value, 9);
      w.Kv("unit", m.unit.c_str());
      w.EndObject();
    }
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

namespace {

/// A dependent chain of integer multiply-adds: CPU-bound, cache-resident.
uint64_t Spin(uint64_t seed, uint64_t iters) {
  uint64_t x = seed;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

/// N x (time of one spin) / (time of N concurrent spins), median of rounds.
double EffectiveParallelism(int threads) {
  constexpr uint64_t kIters = 20'000'000;
  Samples rounds;
  uint64_t sink = 0;
  for (int r = 0; r < 3; ++r) {
    std::vector<uint64_t> out(static_cast<size_t>(threads) + 1, 0);
    const auto t0 = Clock::now();
    out[0] = Spin(out.size(), kIters);
    const double one = SecondsBetween(t0, Clock::now());
    std::vector<std::thread> workers;
    const auto t1 = Clock::now();
    for (int i = 1; i <= threads; ++i) {
      workers.emplace_back([&out, i] {
        out[static_cast<size_t>(i)] = Spin(static_cast<uint64_t>(i), kIters);
      });
    }
    for (std::thread& t : workers) t.join();
    const double all = SecondsBetween(t1, Clock::now());
    for (uint64_t v : out) sink ^= v;
    rounds.Add(static_cast<double>(threads) * one / all);
  }
  // Folding the results into the return value keeps the loops alive.
  return rounds.Percentile(50.0) + (sink == 1 ? 1e-12 : 0.0);
}

/// Single-thread SGEMM rate of a fixed 256^3 problem, median of rounds:
/// the roofline denominator for the TT GFLOP/s figures.
double MeasureGemmGflops() {
  constexpr int64_t kN = 256;
  constexpr int kCallsPerRound = 8;
  std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN, 0.0f);
  ttrec::Rng rng(0x6E33);
  ttrec::FillUniform(rng, a, -1.0, 1.0);
  ttrec::FillUniform(rng, b, -1.0, 1.0);
  Samples rounds;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCallsPerRound; ++i) {
      ttrec::Gemm(ttrec::Trans::kNo, ttrec::Trans::kNo, kN, kN, kN, 1.0f,
                  a.data(), b.data(), 0.0f, c.data());
    }
    const double flops = 2.0 * kN * kN * kN * kCallsPerRound;
    rounds.Add(flops / SecondsBetween(t0, Clock::now()) / 1e9);
  }
  return rounds.Percentile(50.0);
}

}  // namespace

int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

EnvStamp MeasureEnv(const std::string& commit) {
  EnvStamp env;
  env.cpu_model = ttrec::CpuModelName();
  env.simd_detected = ttrec::SimdTierName(ttrec::DetectedSimdTier());
  env.simd_active = ttrec::SimdTierName(ttrec::ActiveSimdTier());
  env.build_type = PERFBENCH_BUILD_TYPE;
  env.commit = commit;
  env.nproc = static_cast<int>(std::thread::hardware_concurrency());
  env.pool_threads = ttrec::ThreadPool::Global().num_threads();
  env.effective_parallelism = EffectiveParallelism(std::max(1, env.nproc));
  env.gemm_gflops = MeasureGemmGflops();
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  env.debug_or_sanitized = true;
#endif
  return env;
}

void PrintEnv(const EnvStamp& env) {
  ttrec::obs::JsonWriter w;
  w.BeginObject();
  w.Kv("cpu_model", env.cpu_model.c_str());
  w.Kv("simd_detected", env.simd_detected.c_str());
  w.Kv("simd_active", env.simd_active.c_str());
  w.Kv("nproc", env.nproc);
  w.Kv("pool_threads", env.pool_threads);
  w.Kv("pinned_cpu", env.pinned_cpu);
  w.Kv("effective_parallelism", env.effective_parallelism, 2);
  w.Kv("gemm_gflops", env.gemm_gflops, 2);
  w.Kv("build_type", env.build_type.c_str());
  w.Kv("commit", env.commit.c_str());
  w.EndObject();
  std::printf("env %s\n", w.str().c_str());
  if (env.debug_or_sanitized) {
    std::printf("WARNING: debug or sanitizer build; timings are not "
                "comparable with optimized builds\n");
  }
}

}  // namespace perfbench
