#include "dlrm/train_stages.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <sstream>
#include <utility>

#include "tensor/serialize.h"

namespace ttrec {

namespace {
using Clock = std::chrono::steady_clock;
int64_t Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}
}  // namespace

void SortUniqueIds(std::vector<int64_t>& ids) {
  if (ids.size() < 2) return;
  // Keys are id - min in unsigned arithmetic, so negative ids and spans
  // past 2^63 order correctly. The digits split the key width evenly.
  constexpr int kMaxDigitBits = 11;
  const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
  const uint64_t base = static_cast<uint64_t>(*lo);
  const int width = std::bit_width(static_cast<uint64_t>(*hi) - base);
  const int passes = (width + kMaxDigitBits - 1) / kMaxDigitBits;
  const int bits = passes > 0 ? (width + passes - 1) / passes : 0;
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  std::vector<int64_t> scratch(ids.size());
  std::array<size_t, size_t{1} << kMaxDigitBits> counts{};
  for (int p = 0; p < passes; ++p) {
    const int shift = p * bits;
    const auto digit = [&](int64_t id) {
      return static_cast<size_t>(((static_cast<uint64_t>(id) - base) >> shift) &
                                 mask);
    };
    std::fill_n(counts.begin(), mask + 1, size_t{0});
    for (const int64_t id : ids) ++counts[digit(id)];
    size_t start = 0;
    for (size_t d = 0; d <= mask; ++d) {
      start += std::exchange(counts[d], start);
    }
    for (const int64_t id : ids) scratch[counts[digit(id)]++] = id;
    ids.swap(scratch);
  }
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

LookaheadStage::LookaheadStage(BatchSource& source, LookaheadOptions options)
    : source_(source), options_(std::move(options)) {
  TTREC_CHECK_CONFIG(options_.depth >= 0,
                     "LookaheadStage: depth must be >= 0");
  TTREC_CHECK_CONFIG(options_.batch_size >= 1,
                     "LookaheadStage: batch_size must be >= 1");
  TTREC_CHECK_CONFIG(options_.start_index >= 0,
                     "LookaheadStage: start_index must be >= 0");
  TTREC_CHECK_CONFIG(options_.total_batches >= 0,
                     "LookaheadStage: total_batches must be >= 0");
  TTREC_CHECK_CONFIG(
      options_.plan_tables.empty() ||
          static_cast<int>(options_.plan_tables.size()) ==
              source_.num_tables(),
      "LookaheadStage: plan_tables must be empty or have one entry per "
      "source table (", options_.plan_tables.size(), " vs ",
      source_.num_tables(), ")");
  end_index_ = options_.start_index + options_.total_batches;
  next_produce_ = options_.start_index;
  next_consume_ = options_.start_index;
  StartProducer();
}

LookaheadStage::~LookaheadStage() { StopProducer(); }

bool LookaheadStage::Exhausted() const { return next_consume_ >= end_index_; }

StagedBatch LookaheadStage::Produce(int64_t index) {
  StagedBatch sb;
  sb.index = index;
  sb.batch = source_.NextBatch(options_.batch_size);
  if (options_.depth >= 1 && !options_.plan_tables.empty()) {
    sb.plan.resize(sb.batch.sparse.size());
    for (size_t t = 0; t < sb.batch.sparse.size(); ++t) {
      if (t >= options_.plan_tables.size() || !options_.plan_tables[t]) {
        continue;
      }
      sb.plan[t] = sb.batch.sparse[t].indices;
      SortUniqueIds(sb.plan[t]);
    }
  }
  if (options_.capture_state) {
    std::ostringstream ss;
    BinaryWriter w(ss);
    source_.SaveState(w);
    sb.source_state = ss.str();
  }
  return sb;
}

void LookaheadStage::StartProducer() {
  if (!options_.threaded || options_.depth < 1 ||
      next_produce_ >= end_index_) {
    return;
  }
  stop_requested_ = false;
  producer_done_ = false;
  producer_error_ = nullptr;
  producer_ = std::thread([this] { ProducerLoop(); });
}

void LookaheadStage::ProducerLoop() {
  try {
    while (true) {
      {
        // Bounded queue: never run more than `depth` staged batches ahead
        // of what the consumer has taken.
        std::unique_lock<std::mutex> lock(mu_);
        const auto w0 = Clock::now();
        queue_not_full_.wait(lock, [this] {
          return stop_requested_ ||
                 static_cast<int64_t>(queue_.size()) < options_.depth;
        });
        stats_.producer_wait_us += Micros(w0, Clock::now());
        if (stop_requested_ || next_produce_ >= end_index_) break;
      }
      StagedBatch sb = Produce(next_produce_);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_requested_) break;
        queue_.push_back(std::move(sb));
        ++next_produce_;
        ++stats_.batches_produced;
        stats_.max_queue_depth = std::max(
            stats_.max_queue_depth, static_cast<int64_t>(queue_.size()));
        if (next_produce_ >= end_index_) producer_done_ = true;
      }
      queue_not_empty_.notify_one();
      if (producer_done_) break;
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    producer_error_ = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    producer_done_ = true;
  }
  queue_not_empty_.notify_all();
}

void LookaheadStage::StopProducer() {
  if (!producer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  queue_not_full_.notify_all();
  queue_not_empty_.notify_all();
  producer_.join();
}

StagedBatch LookaheadStage::Next() {
  TTREC_CHECK_INTERNAL(next_consume_ < end_index_,
                       "LookaheadStage::Next past the end of the stream");
  if (!producer_.joinable()) {
    // Inline mode (depth 0, threaded off, or the producer already joined
    // after an error/rollback): generate on the caller's thread. Identical
    // bytes to the threaded path — generation order is the schedule's.
    StagedBatch sb = [&] {
      try {
        return Produce(next_consume_);
      } catch (const std::exception& e) {
        throw PipelineError(std::string("lookahead stage failed at batch ") +
                            std::to_string(next_consume_) + ": " + e.what());
      }
    }();
    ++next_produce_;
    ++next_consume_;
    ++stats_.batches_produced;
    return sb;
  }

  std::unique_lock<std::mutex> lock(mu_);
  const auto w0 = Clock::now();
  queue_not_empty_.wait(lock,
                        [this] { return !queue_.empty() || producer_done_; });
  stats_.consumer_wait_us += Micros(w0, Clock::now());
  if (queue_.empty()) {
    if (producer_error_ != nullptr) {
      std::exception_ptr err = std::exchange(producer_error_, nullptr);
      try {
        std::rethrow_exception(err);
      } catch (const std::exception& e) {
        throw PipelineError(std::string("lookahead producer failed: ") +
                            e.what());
      } catch (...) {
        throw PipelineError("lookahead producer failed");
      }
    }
    throw PipelineError("lookahead producer ended early (batch " +
                        std::to_string(next_consume_) + " of " +
                        std::to_string(end_index_) + ")");
  }
  StagedBatch sb = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  queue_not_full_.notify_one();
  TTREC_CHECK_INTERNAL(sb.index == next_consume_,
                       "LookaheadStage: staged batch out of order (", sb.index,
                       " vs ", next_consume_, ")");
  ++next_consume_;
  return sb;
}

void LookaheadStage::Pause() { StopProducer(); }

void LookaheadStage::Resume() { StartProducer(); }

void LookaheadStage::Restart(int64_t next_index) {
  TTREC_CHECK_CONFIG(next_index >= 0 && next_index <= end_index_,
                     "LookaheadStage::Restart: index ", next_index,
                     " outside [0, ", end_index_, "]");
  StopProducer();
  queue_.clear();
  producer_error_ = nullptr;
  next_produce_ = next_index;
  next_consume_ = next_index;
  ++stats_.restarts;
  StartProducer();
}

LookaheadStage::Stats LookaheadStage::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ttrec
