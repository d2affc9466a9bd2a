// Epoch executor — the real (wall-clock) counterpart of the cost model's
// Eq. 4, and the only driver of Algo. 1's per-batch loop. Every epoch
// runs the same three callbacks (sample -> prepare -> consume) under one
// of three schedules, picked from PipelineConfig::mode and whether
// sampling batch i must observe prepare(i-1)'s side effects:
//
//   sync + chained   inline on the caller, zero threads:
//                    sample(i) -> prepare(i) -> consume(i).
//   sync             sample(i) runs on the run's ThreadPool, a bounded
//                    window of batches ahead (PyG num_workers-style);
//                    prepare and consume run inline on the caller.
//   async            a staged producer/consumer pipeline over bounded
//                    StagedQueues:
//
//   [sampler worker xN] --> sampled queue --> [transfer/cache stage]
//        --> prepared queue --> [compute stage, calling thread]
//
//   - N sampler workers draw mini-batches concurrently. Batch i always
//     draws from Rng(task_seed(epoch_seed, i)) (the pool's determinism
//     contract), so the mini-batch stream is independent of worker count
//     and scheduling order.
//   - The transfer stage reorders out-of-order arrivals and applies
//     device-cache admissions, cost-model accounting, and feature
//     staging in STRICT batch order — the cache hit/miss sequence is
//     bit-identical to the synchronous schedules.
//   - The compute stage (the caller's thread) trains on batch i while
//     batches i+1..i+depth are in flight; optimizer steps and the
//     dropout RNG stream stay serialized by batch index.
//
// A TicketGate bounds the total number of claimed-but-unconsumed batch
// indices to the prefetch depth: workers claim consecutive tickets, and a
// ticket is released only when the transfer stage consumed that batch in
// order. Claims are consecutive and consumption is in-order, so the
// in-flight window is always {next_consumed .. next_consumed+depth-1} —
// the reorder ring needs exactly `depth` slots and the index the transfer
// stage waits for is always in flight (no deadlock).
//
// Cache-aware biased sampling couples batch i's sampling to batch i-1's
// cache update through the residency bitmap, so its sample+transfer
// stages cannot parallelize; `chain_sample_and_prepare` collapses them
// into one producer (sample(i) observes exactly the post-update residency
// of batch i-1): the caller itself under sync, one producer thread that
// still overlaps the compute stage under async.
//
// Determinism contract: only wall-clock observables (stage busy seconds,
// stall counts, queue occupancy) depend on the schedule, thread count and
// prefetch depth. Everything data-bearing — batches, cache state
// sequence, loss trajectory, profiler phase sums — is bit-identical
// across schedules because every side-effecting callback runs in strict
// batch order on a single stage.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/staged_queue.hpp"
#include "support/thread_safety.hpp"

namespace gnav::runtime {

enum class PipelineMode { kSync, kAsync };

std::string to_string(PipelineMode mode);
/// Throws gnav::Error on anything but "sync" / "async".
PipelineMode pipeline_mode_from_string(const std::string& s);

struct PipelineConfig {
  PipelineMode mode = PipelineMode::kSync;
  /// Bound on in-flight mini-batches (claimed but not yet consumed by the
  /// transfer stage) and on each inter-stage queue.
  std::size_t prefetch_depth = 4;
  /// Sampler worker threads; 0 resolves to default_thread_count(). The
  /// executor additionally clamps to min(prefetch_depth, num_batches).
  std::size_t sampler_workers = 0;
};

/// Resolves the process-wide default from the environment:
///   GNAV_PIPELINE         sync | async            (default sync)
///   GNAV_PIPELINE_DEPTH   prefetch depth >= 1     (default 4)
///   GNAV_PIPELINE_WORKERS sampler workers >= 0;
///                         0 = auto (default_thread_count())
/// Invalid values log one warning and fall back to the default instead of
/// silently misconfiguring the executor.
PipelineConfig default_pipeline_config();

/// Execution profile of the epoch executor: one epoch as
/// run_pipelined_epoch returns it, or a run's total after accumulate().
/// The modeled_* pair is simulated (cost model, Eq. 4, dataset-scale
/// seconds; RuntimeBackend fills it) and fully deterministic; everything
/// else is REAL wall-clock and stall accounting, so it varies run to run —
/// it is exempt from the cross-schedule bit-identity contract.
struct PipelineReport {
  std::string executor = "sync";  // which executor ran ("sync" | "async")
  std::size_t prefetch_depth = 0;
  std::size_t sampler_workers = 0;
  std::uint64_t batches = 0;

  /// Backpressure: pushes that waited on a full inter-stage queue.
  std::uint64_t push_stalls = 0;
  /// Starvation: pops that waited on an empty inter-stage queue.
  std::uint64_t pop_stalls = 0;
  /// Mean pre-push backlog of the compute-facing prefetch queue
  /// (0..prefetch_depth-1; near depth-1 = compute-bound, 0 = compute
  /// always kept up — the shrink-the-depth signal).
  double mean_queue_occupancy = 0.0;

  /// Measured per-stage busy seconds, summed over the calls each stage
  /// made. Under the sync pool schedule "sample" is the time the caller
  /// spent blocked waiting on mini-batch construction.
  double sample_wall_s = 0.0;
  double transfer_wall_s = 0.0;
  double compute_wall_s = 0.0;
  /// Measured wall-clock of the training loops (excludes evaluation).
  double measured_wall_s = 0.0;

  /// Eq. 4 prediction for the same iterations (simulated seconds at
  /// original dataset scale, like TrainReport::epoch_times_s).
  double modeled_overlapped_s = 0.0;
  double modeled_sequential_s = 0.0;

  /// What a strictly serial execution of the same stage work would cost.
  double measured_sequential_s() const {
    return sample_wall_s + transfer_wall_s + compute_wall_s;
  }
  /// Measured stage-overlap speedup (1.0 = fully serial).
  double measured_speedup() const {
    return measured_wall_s > 0.0 ? measured_sequential_s() / measured_wall_s
                                 : 1.0;
  }
  /// Eq. 4's predicted overlap speedup for comparison with the above.
  double predicted_speedup() const {
    return modeled_overlapped_s > 0.0
               ? modeled_sequential_s / modeled_overlapped_s
               : 1.0;
  }
  /// Fraction of the hideable (non-bottleneck) stage time actually
  /// hidden by overlap: 0 = serial, 1 = wall equals the bottleneck stage.
  double overlap_efficiency() const;

  /// Accumulate (epoch totals -> run totals). Counters and seconds sum;
  /// mean occupancy stays a mean over the accumulated epochs.
  void accumulate(const PipelineReport& epoch);

 private:
  std::uint64_t occupancy_epochs_ = 0;
};

namespace detail {

/// Bounded dispenser of consecutive batch indices: acquire() hands out
/// 0,1,2,... but blocks while `depth` tickets are claimed-and-unreleased;
/// release() marks the next in-order batch consumed. abort() wakes every
/// waiter and makes further acquires fail (error shutdown).
class TicketGate {
 public:
  TicketGate(std::size_t num_tickets, std::size_t depth);

  std::optional<std::size_t> acquire() GNAV_EXCLUDES(mutex_);
  void release() GNAV_EXCLUDES(mutex_);
  void abort() GNAV_EXCLUDES(mutex_);

 private:
  support::Mutex mutex_;
  std::condition_variable cv_;
  const std::size_t num_tickets_;
  const std::size_t depth_;
  std::size_t next_ GNAV_GUARDED_BY(mutex_) = 0;
  std::size_t released_ GNAV_GUARDED_BY(mutex_) = 0;
  bool aborted_ GNAV_GUARDED_BY(mutex_) = false;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  // gnav-lint(wall-clock): profiler wall — measured stage seconds are
  // wall-clock observables by definition, never data-bearing state.
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// First-error-wins collector; fire() also runs the caller's shutdown
/// hook exactly once so queues close and stages unwind.
class ErrorLatch {
 public:
  template <typename Shutdown>
  void fire(std::exception_ptr error, Shutdown&& shutdown)
      GNAV_EXCLUDES(mutex_) {
    bool run_shutdown = false;
    {
      const support::MutexLock lock(mutex_);
      if (!error_) {
        error_ = std::move(error);
        run_shutdown = true;
      }
    }
    if (run_shutdown) shutdown();
  }

  void rethrow_if_set() GNAV_EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  support::Mutex mutex_;
  std::exception_ptr error_ GNAV_GUARDED_BY(mutex_);
};

/// Publishes one epoch's measured stats to the obs metrics registry
/// (stall counters, occupancy histogram, wall/overlap gauges). No-op
/// cost when metrics are disabled beyond a relaxed load per instrument.
void publish_epoch_metrics(const PipelineReport& stats);

/// The two synchronous schedules: prepare and consume run inline on the
/// caller in batch order. Chained, sample(i) runs inline too; otherwise
/// it runs on `pool`, a window of batches ahead, and the sample stage's
/// busy time is the caller's blocked wait.
template <typename Sampled, typename Prepared, typename SampleFn,
          typename PrepareFn, typename ConsumeFn>
void run_sync_epoch(std::size_t num_batches, support::ThreadPool& pool,
                    bool chain_sample_and_prepare, SampleFn& sample,
                    PrepareFn& prepare, ConsumeFn& consume,
                    PipelineReport& stats) {
  // The window caps live prefetched mini-batches at ~4 per pool worker.
  const std::size_t window =
      chain_sample_and_prepare ? 0
                               : std::max<std::size_t>(8, 4 * pool.size());
  stats.sampler_workers = chain_sample_and_prepare ? 1 : pool.size();
  stats.prefetch_depth = window;
  std::deque<std::future<Sampled>> pending;
  std::size_t submitted = 0;
  const auto top_up = [&] {
    while (submitted < num_batches && pending.size() < window) {
      const std::size_t i = submitted++;
      pending.push_back(pool.submit([&sample, i] { return sample(i); }));
    }
  };
  try {
    top_up();
    for (std::size_t i = 0; i < num_batches; ++i) {
      std::future<Sampled> built;
      if (!chain_sample_and_prepare) {
        built = std::move(pending.front());
        pending.pop_front();
        top_up();
      }
      auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
      Sampled s = chain_sample_and_prepare ? sample(i) : built.get();
      stats.sample_wall_s += seconds_since(t0);
      t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
      Prepared p = prepare(i, std::move(s));
      stats.transfer_wall_s += seconds_since(t0);
      t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
      consume(i, std::move(p));
      stats.compute_wall_s += seconds_since(t0);
    }
  } catch (...) {
    // In-flight builds call `sample` by reference: wait them out before
    // the caller's closures go out of scope.
    for (auto& f : pending) f.wait();
    throw;
  }
}

/// The async schedule: sampler workers (or, chained, one sample+prepare
/// producer) feed the ordered transfer stage through bounded queues on
/// dedicated threads while the caller runs the compute stage.
template <typename Sampled, typename Prepared, typename SampleFn,
          typename PrepareFn, typename ConsumeFn>
void run_async_epoch(std::size_t num_batches, const PipelineConfig& config,
                     bool chain_sample_and_prepare, SampleFn& sample,
                     PrepareFn& prepare, ConsumeFn& consume,
                     PipelineReport& stats) {
  struct IndexedSampled {
    std::size_t index;
    Sampled value;
  };
  struct IndexedPrepared {
    std::size_t index;
    Prepared value;
  };

  const std::size_t depth = std::max<std::size_t>(1, config.prefetch_depth);
  stats.prefetch_depth = depth;
  support::StagedQueue<IndexedSampled> sampled(depth);
  support::StagedQueue<IndexedPrepared> prepared(depth);
  TicketGate gate(num_batches, depth);
  ErrorLatch latch;
  auto shutdown = [&] {
    gate.abort();
    sampled.close();
    prepared.close();
  };

  std::mutex busy_mutex;  // folds per-thread busy timers into `stats`
  std::vector<std::thread> threads;

  if (chain_sample_and_prepare) {
    // Two stages: one producer runs the serial sample->prepare chain (so
    // sampling batch i observes prepare(i-1)'s side effects), compute
    // overlaps on the caller thread.
    stats.sampler_workers = 1;
    threads.emplace_back([&] {
      // Self-execute nested pool work: the global pool's workers may be
      // blocked inside nested runs waiting on this very pipeline.
      const support::InlineExecutionScope inline_scope;
      obs::set_thread_name("gnav-stage-producer");
      try {
        double sample_busy = 0.0;
        double transfer_busy = 0.0;
        for (std::size_t i = 0; i < num_batches; ++i) {
          auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
          Sampled s = sample(i);
          sample_busy += seconds_since(t0);
          t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
          Prepared p = prepare(i, std::move(s));
          transfer_busy += seconds_since(t0);
          if (!prepared.push({i, std::move(p)})) break;  // shut down
        }
        prepared.close();
        std::lock_guard<std::mutex> lock(busy_mutex);
        stats.sample_wall_s += sample_busy;
        stats.transfer_wall_s += transfer_busy;
      } catch (...) {
        latch.fire(std::current_exception(), shutdown);
      }
    });
  } else {
    // Three stages: N sampler workers feed the transfer thread through
    // the bounded sampled queue; the gate caps total in-flight batches.
    const std::size_t workers = std::min(
        {config.sampler_workers == 0 ? support::default_thread_count()
                                     : config.sampler_workers,
         depth, num_batches});
    stats.sampler_workers = std::max<std::size_t>(1, workers);
    for (std::size_t w = 0; w < stats.sampler_workers; ++w) {
      threads.emplace_back([&, w] {
        const support::InlineExecutionScope inline_scope;
        obs::set_thread_name("gnav-stage-sample-" + std::to_string(w));
        try {
          double sample_busy = 0.0;
          while (const auto ticket = gate.acquire()) {
            const auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
            Sampled s = sample(*ticket);
            sample_busy += seconds_since(t0);
            if (!sampled.push({*ticket, std::move(s)})) break;
          }
          std::lock_guard<std::mutex> lock(busy_mutex);
          stats.sample_wall_s += sample_busy;
        } catch (...) {
          latch.fire(std::current_exception(), shutdown);
        }
      });
    }
    threads.emplace_back([&] {
      const support::InlineExecutionScope inline_scope;
      obs::set_thread_name("gnav-stage-transfer");
      try {
        // Reorder ring: in-flight indices form a consecutive window of at
        // most `depth` (TicketGate invariant), so residues mod depth are
        // unique and `depth` slots suffice.
        std::vector<std::optional<IndexedSampled>> ring(depth);
        double transfer_busy = 0.0;
        std::size_t next = 0;
        while (next < num_batches) {
          auto item = sampled.pop();
          if (!item) break;  // shut down
          auto& slot = ring[item->index % depth];
          GNAV_CHECK(!slot.has_value(),
                     "pipeline reorder ring slot collision");
          slot = std::move(*item);
          while (next < num_batches && ring[next % depth].has_value()) {
            GNAV_CHECK(ring[next % depth]->index == next,
                       "pipeline reorder ring out of window");
            const auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
            Prepared p = prepare(next, std::move(ring[next % depth]->value));
            transfer_busy += seconds_since(t0);
            ring[next % depth].reset();
            if (!prepared.push({next, std::move(p)})) {
              next = num_batches;  // shut down
              break;
            }
            gate.release();
            ++next;
          }
        }
        prepared.close();
        std::lock_guard<std::mutex> lock(busy_mutex);
        stats.transfer_wall_s += transfer_busy;
      } catch (...) {
        latch.fire(std::current_exception(), shutdown);
      }
    });
  }

  // Compute stage on the calling thread.
  std::size_t consumed = 0;
  try {
    std::size_t expect = 0;
    while (auto item = prepared.pop()) {
      GNAV_CHECK(item->index == expect,
                 "pipeline delivered batches out of order");
      const auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
      consume(item->index, std::move(item->value));
      stats.compute_wall_s += seconds_since(t0);
      ++expect;
      ++consumed;
    }
  } catch (...) {
    latch.fire(std::current_exception(), shutdown);
  }

  for (auto& t : threads) t.join();
  latch.rethrow_if_set();
  GNAV_CHECK(consumed == num_batches,
             "pipeline finished without consuming every batch");

  const auto sq = sampled.stats();
  const auto pq = prepared.stats();
  stats.push_stalls = sq.push_stalls + pq.push_stalls;
  stats.pop_stalls = sq.pop_stalls + pq.pop_stalls;
  stats.mean_queue_occupancy = pq.mean_occupancy();
}

}  // namespace detail

/// Runs one epoch of `num_batches` mini-batches under the schedule that
/// `config.mode` and `chain_sample_and_prepare` select (see the header
/// comment) and returns its measured stats.
///
///   sample:  (std::size_t i) -> Sampled.   Thread-safe; may be called
///            from pool workers or dedicated threads in arbitrary index
///            order (must seed per index, never from shared state).
///   prepare: (std::size_t i, Sampled&&) -> Prepared.  Called in strict
///            batch order from one stage (cache updates, profiler
///            accounting, feature staging).
///   consume: (std::size_t i, Prepared&&) -> void.  Called in strict
///            batch order on the calling thread (train step).
///
/// With `chain_sample_and_prepare` the sample and prepare callbacks run
/// back-to-back on one producer (required when sampling batch i reads
/// state written by prepare(i-1), e.g. cache-aware bias). `pool` builds
/// mini-batches ahead under the unchained sync schedule. Exceptions from
/// any stage stop the epoch, wait out every in-flight callback and
/// rethrow here.
template <typename Sampled, typename Prepared, typename SampleFn,
          typename PrepareFn, typename ConsumeFn>
PipelineReport run_pipelined_epoch(std::size_t num_batches,
                                   const PipelineConfig& config,
                                   support::ThreadPool& pool,
                                   bool chain_sample_and_prepare,
                                   SampleFn&& sample, PrepareFn&& prepare,
                                   ConsumeFn&& consume) {
  PipelineReport stats;
  stats.executor = to_string(config.mode);
  stats.batches = num_batches;
  if (num_batches == 0) return stats;

  const auto epoch_start = detail::Clock::now();  // gnav-lint(wall-clock): profiler wall
  if (config.mode == PipelineMode::kAsync) {
    detail::run_async_epoch<Sampled, Prepared>(num_batches, config,
                                               chain_sample_and_prepare,
                                               sample, prepare, consume,
                                               stats);
  } else {
    detail::run_sync_epoch<Sampled, Prepared>(num_batches, pool,
                                              chain_sample_and_prepare,
                                              sample, prepare, consume,
                                              stats);
  }
  stats.measured_wall_s = detail::seconds_since(epoch_start);
  detail::publish_epoch_metrics(stats);
  return stats;
}

}  // namespace gnav::runtime
