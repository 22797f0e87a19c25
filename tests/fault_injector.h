// Fault-injection utilities for the crash-safety, self-healing, and
// overload tests.
//
// Five fault families, matching the failure modes the checkpoint, trainer,
// and serving hardening defends against:
//   - file faults: truncation (torn write / crash mid-save) and byte
//     flips (media corruption) applied to an on-disk snapshot;
//   - stream faults: an ostream that starts failing after a byte budget
//     (disk full), driving the writer's error paths;
//   - gradient faults: an EmbeddingOp wrapper that poisons grad_output
//     with NaNs on chosen Backward calls (a flipped bit in an
//     accumulator), driving the non-finite-gradient guard;
//   - latency faults: an EmbeddingOp wrapper that slows or fully stalls
//     lookups (a degraded replica, a page-cache miss storm), driving the
//     load governor and deadline paths;
//   - load faults: an open-loop request generator that overruns serving
//     capacity on purpose and classifies every future's outcome.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dlrm/embedding_op.h"
#include "serve/inference_server.h"
#include "serve/serve_errors.h"
#include "tensor/check.h"

namespace ttrec {
namespace testing {

inline uint64_t FileSize(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  TTREC_CHECK(is.is_open(), "FileSize: cannot open ", path);
  return static_cast<uint64_t>(is.tellg());
}

/// Truncates `path` to its first `bytes` bytes (a torn write: the process
/// died mid-save, or the filesystem lost the tail).
inline void TruncateFileAt(const std::string& path, uint64_t bytes) {
  std::ifstream is(path, std::ios::binary);
  TTREC_CHECK(is.is_open(), "TruncateFileAt: cannot open ", path);
  std::vector<char> head(static_cast<size_t>(bytes));
  is.read(head.data(), static_cast<std::streamsize>(bytes));
  TTREC_CHECK(is.gcount() == static_cast<std::streamsize>(bytes),
              "TruncateFileAt: file shorter than ", bytes, " bytes");
  is.close();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(head.data(), static_cast<std::streamsize>(head.size()));
  TTREC_CHECK(os.good(), "TruncateFileAt: rewrite failed");
}

/// XORs `mask` into the byte at `offset` (a single flipped bit or burst
/// error on the storage medium).
inline void FlipByte(const std::string& path, uint64_t offset,
                     unsigned char mask = 0x40) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  TTREC_CHECK(f.is_open(), "FlipByte: cannot open ", path);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  TTREC_CHECK(f.gcount() == 1, "FlipByte: offset ", offset, " past EOF");
  c = static_cast<char>(c ^ mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
  TTREC_CHECK(f.good(), "FlipByte: write-back failed");
}

/// Streambuf that accepts `budget` bytes and then fails every write —
/// the disk filled up mid-checkpoint.
class FailAfterStreambuf : public std::streambuf {
 public:
  explicit FailAfterStreambuf(uint64_t budget) : budget_(budget) {}

 protected:
  int_type overflow(int_type ch) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return ch;
  }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    if (static_cast<uint64_t>(n) > budget_) {
      budget_ = 0;
      return 0;  // short write -> stream enters the fail state
    }
    budget_ -= static_cast<uint64_t>(n);
    return n;
  }

 private:
  uint64_t budget_;
};

/// EmbeddingOp decorator that replaces grad_output with NaNs on the
/// `fault_on_call`-th Backward (0-based), then behaves normally again —
/// a transient hardware fault. Everything else delegates, including
/// Name(), so checkpoints of a wrapped model stay format-identical.
class NanGradInjector : public EmbeddingOp {
 public:
  NanGradInjector(std::unique_ptr<EmbeddingOp> inner, int64_t fault_on_call)
      : inner_(std::move(inner)), fault_on_call_(fault_on_call) {}

  void Forward(const CsrBatch& batch, float* output) override {
    inner_->Forward(batch, output);
  }
  void ForwardInference(const CsrBatch& batch,
                        float* output) const override {
    inner_->ForwardInference(batch, output);
  }
  void Backward(const CsrBatch& batch, const float* grad_output) override {
    if (backward_calls_++ == fault_on_call_) {
      const std::vector<float> poisoned(
          static_cast<size_t>(batch.num_bags() * emb_dim()),
          std::numeric_limits<float>::quiet_NaN());
      inner_->Backward(batch, poisoned.data());
      return;
    }
    inner_->Backward(batch, grad_output);
  }
  void ApplySgd(float lr) override { inner_->ApplySgd(lr); }
  void ApplyUpdate(const OptimizerConfig& opt) override {
    inner_->ApplyUpdate(opt);
  }
  void SaveState(BinaryWriter& w) const override { inner_->SaveState(w); }
  void LoadState(BinaryReader& r) override { inner_->LoadState(r); }
  void SaveOptState(BinaryWriter& w) const override {
    inner_->SaveOptState(w);
  }
  void LoadOptState(BinaryReader& r) override { inner_->LoadOptState(r); }
  void ZeroGrad() override { inner_->ZeroGrad(); }
  double GradSqNorm() const override { return inner_->GradSqNorm(); }
  void ScaleGrads(float scale) override { inner_->ScaleGrads(scale); }
  int64_t num_rows() const override { return inner_->num_rows(); }
  int64_t emb_dim() const override { return inner_->emb_dim(); }
  int64_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::string Name() const override { return inner_->Name(); }

  int64_t backward_calls() const { return backward_calls_; }

 private:
  std::unique_ptr<EmbeddingOp> inner_;
  int64_t fault_on_call_;
  int64_t backward_calls_ = 0;
};

/// EmbeddingOp decorator that delays (or fully stalls) every lookup — a
/// degraded replica whose consumer drains slower than producers submit.
/// Overrides the serving path (ForwardInference) as well as the training
/// one, so overload tests can pin the queue's drain rate precisely; the
/// delay and stall gate are adjustable mid-flight from the test thread.
class SlowEmbeddingInjector : public EmbeddingOp {
 public:
  SlowEmbeddingInjector(std::unique_ptr<EmbeddingOp> inner,
                        std::chrono::microseconds delay)
      : inner_(std::move(inner)), delay_us_(delay.count()) {}

  void set_delay(std::chrono::microseconds delay) {
    delay_us_.store(delay.count(), std::memory_order_relaxed);
  }

  /// While stalled, every lookup blocks until set_stalled(false) — the
  /// consumer is wedged, not merely slow. Releasing wakes all waiters.
  void set_stalled(bool stalled) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stalled_ = stalled;
    }
    cv_.notify_all();
  }

  int64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  void Forward(const CsrBatch& batch, float* output) override {
    Delay();
    inner_->Forward(batch, output);
  }
  void ForwardInference(const CsrBatch& batch,
                        float* output) const override {
    Delay();
    inner_->ForwardInference(batch, output);
  }
  void Backward(const CsrBatch& batch, const float* grad_output) override {
    inner_->Backward(batch, grad_output);
  }
  void ApplySgd(float lr) override { inner_->ApplySgd(lr); }
  void ApplyUpdate(const OptimizerConfig& opt) override {
    inner_->ApplyUpdate(opt);
  }
  void SaveState(BinaryWriter& w) const override { inner_->SaveState(w); }
  void LoadState(BinaryReader& r) override { inner_->LoadState(r); }
  void SaveOptState(BinaryWriter& w) const override {
    inner_->SaveOptState(w);
  }
  void LoadOptState(BinaryReader& r) override { inner_->LoadOptState(r); }
  void ZeroGrad() override { inner_->ZeroGrad(); }
  double GradSqNorm() const override { return inner_->GradSqNorm(); }
  void ScaleGrads(float scale) override { inner_->ScaleGrads(scale); }
  void CollectStats(obs::MetricRegistry& reg) const override {
    inner_->CollectStats(reg);
  }
  void ResetStats() override { inner_->ResetStats(); }
  int64_t num_rows() const override { return inner_->num_rows(); }
  int64_t emb_dim() const override { return inner_->emb_dim(); }
  int64_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  int64_t WorkspaceBytes(int num_threads = 0) const override {
    return inner_->WorkspaceBytes(num_threads);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  void Delay() const {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !stalled_; });
    }
    const int64_t us = delay_us_.load(std::memory_order_relaxed);
    if (us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  }

  std::unique_ptr<EmbeddingOp> inner_;
  std::atomic<int64_t> delay_us_;
  mutable std::atomic<int64_t> lookups_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool stalled_ = false;
};

/// Where every future of an overload run ended up. The overload contract
/// under test: ok + shed + deadline + shutdown == submitted (each request
/// resolves exactly once with a typed outcome — no hangs, no leaks) and
/// other == 0.
struct OverloadOutcome {
  int64_t submitted = 0;
  int64_t ok = 0;        // logits delivered
  int64_t shed = 0;      // ServerOverloaded
  int64_t deadline = 0;  // DeadlineExceeded
  int64_t shutdown = 0;  // ServerShutdown
  int64_t other = 0;     // anything else — a test failure when nonzero

  int64_t resolved() const { return ok + shed + deadline + shutdown + other; }

  void Merge(const OverloadOutcome& o) {
    submitted += o.submitted;
    ok += o.ok;
    shed += o.shed;
    deadline += o.deadline;
    shutdown += o.shutdown;
    other += o.other;
  }
};

/// Open-loop load: `num_threads` producers each fire `requests_per_thread`
/// Submits back-to-back (no pacing, no reaction to rejections — the
/// clients that actually melt servers), then harvest every future. The
/// factory runs on the producer thread per request; use it to vary
/// payloads or attach deadlines.
class OverloadGenerator {
 public:
  using RequestFactory = std::function<serve::InferenceRequest()>;

  OverloadGenerator(serve::InferenceServer& server, RequestFactory factory)
      : server_(server), factory_(std::move(factory)) {
    TTREC_CHECK(factory_ != nullptr, "OverloadGenerator: factory required");
  }

  OverloadOutcome Run(int num_threads, int requests_per_thread) {
    OverloadOutcome total;
    std::mutex merge_mu;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&] {
        OverloadOutcome mine;
        std::vector<std::future<serve::InferenceResult>> futures;
        futures.reserve(static_cast<size_t>(requests_per_thread));
        for (int i = 0; i < requests_per_thread; ++i) {
          futures.push_back(server_.Submit(factory_()));
          ++mine.submitted;
        }
        for (auto& f : futures) {
          try {
            f.get();
            ++mine.ok;
          } catch (const serve::ServerOverloaded&) {
            ++mine.shed;
          } catch (const serve::DeadlineExceeded&) {
            ++mine.deadline;
          } catch (const serve::ServerShutdown&) {
            ++mine.shutdown;
          } catch (...) {
            ++mine.other;
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        total.Merge(mine);
      });
    }
    for (std::thread& t : threads) t.join();
    return total;
  }

 private:
  serve::InferenceServer& server_;
  RequestFactory factory_;
};

}  // namespace testing
}  // namespace ttrec
