// Tests for the epoch executor subsystem: the bounded MPMC StagedQueue,
// the run_pipelined_epoch driver under all of its schedules (ordering,
// bounded prefetch, error propagation, the sync pool schedule's
// bit-identical mini-batch stream at any pool size), the env-knob
// validation, and the headline contract — the async executor's
// TrainReport is bit-identical to the synchronous executor's for every
// template configuration at any worker count and prefetch depth (only
// wall-clock observables differ).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "graph/dataset.hpp"
#include "graph/generators.hpp"
#include "hw/platform.hpp"
#include "runtime/backend.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/templates.hpp"
#include "sampling/batcher.hpp"
#include "sampling/sampler_factory.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/staged_queue.hpp"

namespace gnav {
namespace {

using runtime::PipelineConfig;
using runtime::PipelineReport;
using runtime::PipelineMode;
using support::StagedQueue;

// ------------------------------------------------------------ StagedQueue

TEST(StagedQueue, FifoSingleThread) {
  StagedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(int(i)));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  const auto st = q.stats();
  EXPECT_EQ(st.pushes, 5u);
  EXPECT_EQ(st.pops, 5u);
  EXPECT_EQ(st.push_stalls, 0u);
  EXPECT_EQ(st.pop_stalls, 0u);
  EXPECT_GT(st.mean_occupancy(), 0.0);
}

TEST(StagedQueue, CapacityClampedToOne) {
  StagedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
}

// Occupancy is sampled BEFORE each push lands: the just-pushed item never
// counts itself. A queue whose consumer always keeps up therefore reports
// mean occupancy 0 — the signal the auto-depth tuning needs — instead of
// the constant 1.0 a post-push sample would produce.
TEST(StagedQueue, OccupancySampledBeforePushExcludesOwnItem) {
  StagedQueue<int> never_backlogged(1);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(never_backlogged.push(int(i)));
    EXPECT_EQ(never_backlogged.pop().value(), i);
  }
  EXPECT_EQ(never_backlogged.stats().pushes, 6u);
  EXPECT_DOUBLE_EQ(never_backlogged.stats().mean_occupancy(), 0.0);

  // Backlog builds without pops: pushes observe 0, 1, 2 items already
  // buffered -> mean 1.0 (and never the capacity itself).
  StagedQueue<int> backlogged(4);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(backlogged.push(int(i)));
  EXPECT_DOUBLE_EQ(backlogged.stats().mean_occupancy(), 1.0);
}

TEST(StagedQueue, PushBlocksWhenFullAndCountsStall) {
  StagedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    EXPECT_TRUE(q.push(3));  // must wait for a pop
    pushed = true;
  });
  // The push cannot complete while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  t.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GE(q.stats().push_stalls, 1u);
}

TEST(StagedQueue, PopBlocksWhenEmptyAndCountsStall) {
  StagedQueue<int> q(2);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(42);
  });
  const auto v = q.pop();  // waits for the delayed push
  t.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_GE(q.stats().pop_stalls, 1u);
}

TEST(StagedQueue, CloseDrainsBufferedItemsThenEndsStream) {
  StagedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // closed: push fails, item dropped
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained
  EXPECT_FALSE(q.pop().has_value());  // stays ended
}

TEST(StagedQueue, CloseWakesBlockedProducerAndConsumer) {
  StagedQueue<int> full(1);
  ASSERT_TRUE(full.push(0));
  std::thread producer([&] { EXPECT_FALSE(full.push(1)); });
  StagedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  full.close();
  empty.close();
  producer.join();
  consumer.join();
  // The buffered item survives the close for draining.
  EXPECT_EQ(full.pop().value(), 0);
}

TEST(StagedQueue, MpmcStressPreservesEveryItem) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  StagedQueue<int> q(8);
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (const auto v = q.pop()) {
        sum += *v;
        ++popped;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<std::size_t>(kProducers + c)].join();
  }
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --------------------------------------------------- run_pipelined_epoch

PipelineConfig async_config(std::size_t workers, std::size_t depth) {
  PipelineConfig c;
  c.mode = PipelineMode::kAsync;
  c.sampler_workers = workers;
  c.prefetch_depth = depth;
  return c;
}

PipelineConfig sync_config() { return PipelineConfig{}; }

support::ThreadPool& test_pool() {
  static support::ThreadPool pool(4);
  return pool;
}

/// One of the executor's schedules: the mode plus whether sample(i) and
/// prepare(i) chain on one producer.
struct Schedule {
  const char* name;
  PipelineConfig config;
  bool chain;
};

std::vector<Schedule> all_schedules(std::size_t workers, std::size_t depth) {
  return {{"sync-chained", sync_config(), true},
          {"sync-pool", sync_config(), false},
          {"async-chained", async_config(workers, depth), true},
          {"async", async_config(workers, depth), false}};
}

TEST(PipelinedEpoch, StagesRunInStrictBatchOrderAtAnyShape) {
  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const std::size_t depth : {1u, 2u, 4u}) {
      for (const Schedule& schedule : all_schedules(workers, depth)) {
        SCOPED_TRACE(schedule.name);
        constexpr std::size_t kBatches = 200;
        std::atomic<std::size_t> sampled{0};
        std::size_t prepared_next = 0;  // only touched by one stage
        std::vector<int> consumed;
        const auto stats = runtime::run_pipelined_epoch<int, int>(
            kBatches, schedule.config, test_pool(), schedule.chain,
            [&](std::size_t i) {
              ++sampled;
              // Jitter completion order so the reorder ring does real
              // work.
              if (i % 7 == 0) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
              return static_cast<int>(i);
            },
            [&](std::size_t i, int&& v) {
              EXPECT_EQ(prepared_next, i) << "transfer stage out of order";
              ++prepared_next;
              return v * 3;
            },
            [&](std::size_t i, int&& v) {
              EXPECT_EQ(static_cast<int>(i) * 3, v);
              consumed.push_back(v);
            });
        EXPECT_EQ(sampled.load(), kBatches);
        EXPECT_EQ(prepared_next, kBatches);
        ASSERT_EQ(consumed.size(), kBatches);
        EXPECT_EQ(stats.batches, kBatches);
        EXPECT_EQ(stats.executor,
                  runtime::to_string(schedule.config.mode));
        if (schedule.config.mode == PipelineMode::kAsync) {
          EXPECT_LE(stats.sampler_workers, std::max<std::size_t>(workers, 1));
        }
        EXPECT_GT(stats.measured_wall_s, 0.0);
      }
    }
  }
}

TEST(PipelinedEpoch, PrefetchDepthBoundsInFlightBatches) {
  constexpr std::size_t kDepth = 3;
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  const auto stats = runtime::run_pipelined_epoch<int, int>(
      100, async_config(8, kDepth), test_pool(), false,
      [&](std::size_t i) {
        const int now = ++in_flight;
        int seen = max_in_flight.load();
        while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return static_cast<int>(i);
      },
      [&](std::size_t, int&& v) {
        --in_flight;  // consumed in order by the transfer stage
        return v;
      },
      [](std::size_t, int&&) {});
  EXPECT_EQ(stats.batches, 100u);
  // Sampling of batch i only starts once fewer than `depth` batches are
  // claimed-but-unconsumed, so concurrency can never exceed the depth.
  EXPECT_LE(max_in_flight.load(), static_cast<int>(kDepth));
}

TEST(PipelinedEpoch, ChainModeSamplesAfterPreviousPrepare) {
  // Biased-sampling mode: sample(i) must observe prepare(i-1)'s side
  // effects, i.e. they alternate strictly on one producer.
  for (const PipelineConfig& config : {sync_config(), async_config(4, 2)}) {
    SCOPED_TRACE(runtime::to_string(config.mode));
    std::atomic<std::size_t> prepares_done{0};
    const auto stats = runtime::run_pipelined_epoch<int, int>(
        64, config, test_pool(), /*chain_sample_and_prepare=*/true,
        [&](std::size_t i) {
          EXPECT_EQ(prepares_done.load(), i)
              << "sample(i) ran before prepare(i-1) finished";
          return static_cast<int>(i);
        },
        [&](std::size_t, int&& v) {
          ++prepares_done;
          return v;
        },
        [](std::size_t, int&&) {});
    EXPECT_EQ(stats.batches, 64u);
    EXPECT_EQ(stats.sampler_workers, 1u);  // chain forces one producer
  }
}

TEST(PipelinedEpoch, SyncChainedRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  const auto on_caller = [&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  };
  const auto stats = runtime::run_pipelined_epoch<int, int>(
      16, sync_config(), test_pool(), /*chain_sample_and_prepare=*/true,
      [&](std::size_t i) {
        on_caller();
        return static_cast<int>(i);
      },
      [&](std::size_t, int&& v) {
        on_caller();
        return v;
      },
      [&](std::size_t, int&&) { on_caller(); });
  EXPECT_EQ(stats.executor, "sync");
  EXPECT_EQ(stats.prefetch_depth, 0u);
  EXPECT_EQ(stats.push_stalls + stats.pop_stalls, 0u);  // no queues
}

TEST(PipelinedEpoch, SyncPoolWindowBoundsInFlightBatches) {
  // The sync pool schedule keeps max(8, 4 * pool size) batches built
  // ahead of the one the caller trains on.
  support::ThreadPool pool(2);
  const std::size_t window = 8;
  std::atomic<std::size_t> started{0};
  std::size_t consumed = 0;
  const auto stats = runtime::run_pipelined_epoch<int, int>(
      64, sync_config(), pool, /*chain_sample_and_prepare=*/false,
      [&](std::size_t i) {
        ++started;
        return static_cast<int>(i);
      },
      [](std::size_t, int&& v) { return v; },
      [&](std::size_t, int&&) {
        // Batch `consumed` is being trained: at most `window` batches
        // beyond it can have been submitted.
        EXPECT_LE(started.load(), consumed + 1 + window);
        ++consumed;
      });
  EXPECT_EQ(stats.sampler_workers, 2u);
  EXPECT_EQ(stats.prefetch_depth, window);
  EXPECT_EQ(consumed, 64u);
}

TEST(PipelinedEpoch, BackpressureIsObservableWhenComputeIsSlow) {
  const auto stats = runtime::run_pipelined_epoch<int, int>(
      60, async_config(4, 2), test_pool(), false,
      [](std::size_t i) { return static_cast<int>(i); },
      [](std::size_t, int&& v) { return v; },
      [](std::size_t, int&&) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      });
  // Slow consumer: the prepared queue fills up and upstream stalls.
  EXPECT_GT(stats.push_stalls, 0u);
  EXPECT_GT(stats.mean_queue_occupancy, 0.0);
  EXPECT_GT(stats.compute_wall_s, 0.0);
}

/// Runs a 500-batch epoch under `schedule` whose stage `throwing_stage`
/// (0 sample, 1 prepare, 2 consume) throws at batch `at`, and checks the
/// error propagates only after every in-flight callback returned: the
/// callbacks reference this frame, so none may outlive the call.
void expect_stage_error_propagates(const Schedule& schedule,
                                   int throwing_stage, std::size_t at) {
  SCOPED_TRACE(schedule.name);
  std::atomic<int> running{0};
  const auto stage = [&](int which, std::size_t i) {
    ++running;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    --running;
    if (which == throwing_stage && i == at) throw Error("stage boom");
  };
  EXPECT_THROW((runtime::run_pipelined_epoch<int, int>(
                   500, schedule.config, test_pool(), schedule.chain,
                   [&](std::size_t i) {
                     stage(0, i);
                     return static_cast<int>(i);
                   },
                   [&](std::size_t i, int&& v) {
                     stage(1, i);
                     return v;
                   },
                   [&](std::size_t i, int&&) { stage(2, i); })),
               Error);
  EXPECT_EQ(running.load(), 0);
}

TEST(PipelinedEpoch, ConsumerExceptionShutsDownAndPropagates) {
  for (const Schedule& schedule : all_schedules(4, 4)) {
    expect_stage_error_propagates(schedule, 2, 3);
  }
}

TEST(PipelinedEpoch, SamplerExceptionShutsDownAndPropagates) {
  for (const Schedule& schedule : all_schedules(2, 2)) {
    expect_stage_error_propagates(schedule, 0, 17);
  }
}

TEST(PipelinedEpoch, TransferExceptionShutsDownAndPropagates) {
  for (const Schedule& schedule : all_schedules(2, 4)) {
    expect_stage_error_propagates(schedule, 1, 29);
  }
}

TEST(PipelinedEpoch, ZeroBatchesIsANoOp) {
  for (const Schedule& schedule : all_schedules(2, 2)) {
    const auto stats = runtime::run_pipelined_epoch<int, int>(
        0, schedule.config, test_pool(), schedule.chain,
        [](std::size_t i) { return static_cast<int>(i); },
        [](std::size_t, int&& v) { return v; }, [](std::size_t, int&&) {});
    EXPECT_EQ(stats.batches, 0u);
  }
}

// The per-batch task_seed determinism contract through the sync pool
// schedule: for every sampler kind the epoch's mini-batch stream must be
// bit-identical whether batches build on 1, 2, or 8 pool threads.
TEST(PipelinedEpoch, SyncPoolStreamBitIdenticalAcrossPoolSizes) {
  Rng graph_rng(42);
  const graph::CsrGraph g =
      graph::power_law_configuration(500, 2.2, 3, 60, graph_rng);
  Rng seed_rng(59);
  std::vector<graph::NodeId> train;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) train.push_back(v);
  sampling::SeedBatcher batcher(train, 64);
  const auto seed_batches = batcher.epoch_batches(seed_rng);
  const std::uint64_t epoch_seed = 0xEB0C5EEDULL;

  using sampling::MiniBatch;
  using sampling::SamplerKind;
  for (SamplerKind kind :
       {SamplerKind::kNodeWise, SamplerKind::kLayerWise,
        SamplerKind::kSaintWalk, SamplerKind::kSaintNode,
        SamplerKind::kSaintEdge, SamplerKind::kCluster}) {
    sampling::SamplerSettings settings;
    settings.kind = kind;
    settings.hop_list = {4, 4};
    const auto sampler = sampling::make_sampler(settings, nullptr);

    std::vector<MiniBatch> reference;
    for (std::size_t threads : {1u, 2u, 8u}) {
      support::ThreadPool pool(threads);
      std::vector<MiniBatch> stream;
      runtime::run_pipelined_epoch<MiniBatch, MiniBatch>(
          seed_batches.size(), sync_config(), pool,
          /*chain_sample_and_prepare=*/false,
          [&](std::size_t i) {
            Rng rng(support::task_seed(epoch_seed, i));
            return sampler->sample(g, seed_batches[i], rng);
          },
          [](std::size_t, MiniBatch&& mb) { return std::move(mb); },
          [&](std::size_t, MiniBatch&& mb) {
            stream.push_back(std::move(mb));
          });
      if (threads == 1u) {
        reference = std::move(stream);
        continue;
      }
      const std::string kind_name = sampling::to_string(kind);
      ASSERT_EQ(stream.size(), reference.size()) << kind_name;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream[i].nodes, reference[i].nodes)
            << kind_name << " batch " << i << " @" << threads;
        EXPECT_EQ(stream[i].seed_local, reference[i].seed_local)
            << kind_name << " batch " << i;
        EXPECT_EQ(stream[i].subgraph.indptr(),
                  reference[i].subgraph.indptr())
            << kind_name << " batch " << i;
        EXPECT_EQ(stream[i].subgraph.indices(),
                  reference[i].subgraph.indices())
            << kind_name << " batch " << i;
        EXPECT_DOUBLE_EQ(stream[i].sampling_work,
                         reference[i].sampling_work)
            << kind_name << " batch " << i;
      }
    }
  }
}

TEST(PipelineReport, OverlapEfficiencyEndpoints) {
  PipelineReport s;
  s.sample_wall_s = 1.0;
  s.transfer_wall_s = 0.5;
  s.compute_wall_s = 2.0;
  s.measured_wall_s = 3.5;  // fully serial
  EXPECT_DOUBLE_EQ(s.overlap_efficiency(), 0.0);
  s.measured_wall_s = 2.0;  // wall == bottleneck stage: perfect overlap
  EXPECT_DOUBLE_EQ(s.overlap_efficiency(), 1.0);
  s.measured_wall_s = 2.75;  // halfway
  EXPECT_NEAR(s.overlap_efficiency(), 0.5, 1e-12);
}

// ------------------------------------------------------- env validation

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(EnvValidation, PipelineModeFallsBackToSyncOnGarbage) {
  EnvGuard guard("GNAV_PIPELINE");
  ::setenv("GNAV_PIPELINE", "turbo", 1);
  EXPECT_EQ(runtime::default_pipeline_config().mode, PipelineMode::kSync);
  ::setenv("GNAV_PIPELINE", "async", 1);
  EXPECT_EQ(runtime::default_pipeline_config().mode, PipelineMode::kAsync);
  ::setenv("GNAV_PIPELINE", "sync", 1);
  EXPECT_EQ(runtime::default_pipeline_config().mode, PipelineMode::kSync);
  ::unsetenv("GNAV_PIPELINE");
  EXPECT_EQ(runtime::default_pipeline_config().mode, PipelineMode::kSync);
}

TEST(EnvValidation, PipelineDepthRejectsZeroAndGarbage) {
  EnvGuard guard("GNAV_PIPELINE_DEPTH");
  ::setenv("GNAV_PIPELINE_DEPTH", "0", 1);
  EXPECT_EQ(runtime::default_pipeline_config().prefetch_depth, 4u);
  ::setenv("GNAV_PIPELINE_DEPTH", "3x", 1);
  EXPECT_EQ(runtime::default_pipeline_config().prefetch_depth, 4u);
  ::setenv("GNAV_PIPELINE_DEPTH", "-2", 1);
  EXPECT_EQ(runtime::default_pipeline_config().prefetch_depth, 4u);
  ::setenv("GNAV_PIPELINE_DEPTH", "7", 1);
  EXPECT_EQ(runtime::default_pipeline_config().prefetch_depth, 7u);
}

TEST(EnvValidation, PipelineWorkersRejectsZeroAndGarbage) {
  EnvGuard guard("GNAV_PIPELINE_WORKERS");
  ::setenv("GNAV_PIPELINE_WORKERS", "0", 1);
  EXPECT_EQ(runtime::default_pipeline_config().sampler_workers, 0u);  // auto
  ::setenv("GNAV_PIPELINE_WORKERS", "many", 1);
  EXPECT_EQ(runtime::default_pipeline_config().sampler_workers, 0u);
  ::setenv("GNAV_PIPELINE_WORKERS", "5", 1);
  EXPECT_EQ(runtime::default_pipeline_config().sampler_workers, 5u);
}

TEST(EnvValidation, ThreadCountRejectsZeroAndGarbage) {
  EnvGuard guard("GNAV_THREADS");
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  ::setenv("GNAV_THREADS", "0", 1);
  EXPECT_EQ(support::default_thread_count(), fallback);
  ::setenv("GNAV_THREADS", "O2", 1);
  EXPECT_EQ(support::default_thread_count(), fallback);
  ::setenv("GNAV_THREADS", "12abc", 1);
  EXPECT_EQ(support::default_thread_count(), fallback);
  ::setenv("GNAV_THREADS", "3", 1);
  EXPECT_EQ(support::default_thread_count(), 3u);
  ::unsetenv("GNAV_THREADS");
  EXPECT_EQ(support::default_thread_count(), fallback);
}

TEST(EnvValidation, ModeStringRoundTrip) {
  EXPECT_EQ(runtime::to_string(PipelineMode::kAsync), "async");
  EXPECT_EQ(runtime::pipeline_mode_from_string("sync"), PipelineMode::kSync);
  EXPECT_THROW(runtime::pipeline_mode_from_string("later"), Error);
}

// ------------------------------------------- async-vs-sync bit-identity

graph::Dataset small_dataset() {
  graph::SyntheticSpec spec;
  spec.name = "pipeline-unit";
  spec.num_nodes = 600;
  spec.num_classes = 4;
  spec.feature_dim = 12;
  spec.min_degree = 3;
  spec.max_degree = 60;
  return graph::make_synthetic_dataset(spec, 5);
}

/// Every deterministic (non-wall-clock) field must match EXACTLY.
void expect_reports_bit_identical(const runtime::TrainReport& sync_r,
                                  const runtime::TrainReport& async_r) {
  EXPECT_EQ(sync_r.epoch_loss, async_r.epoch_loss);
  EXPECT_EQ(sync_r.epoch_times_s, async_r.epoch_times_s);
  EXPECT_EQ(sync_r.epoch_train_accuracy, async_r.epoch_train_accuracy);
  EXPECT_EQ(sync_r.epoch_val_accuracy, async_r.epoch_val_accuracy);
  EXPECT_EQ(sync_r.final_train_accuracy, async_r.final_train_accuracy);
  EXPECT_EQ(sync_r.val_accuracy, async_r.val_accuracy);
  EXPECT_EQ(sync_r.test_accuracy, async_r.test_accuracy);
  EXPECT_EQ(sync_r.epoch_time_s, async_r.epoch_time_s);
  EXPECT_EQ(sync_r.peak_memory_gb, async_r.peak_memory_gb);
  EXPECT_EQ(sync_r.mem_model_gb, async_r.mem_model_gb);
  EXPECT_EQ(sync_r.mem_cache_gb, async_r.mem_cache_gb);
  EXPECT_EQ(sync_r.mem_runtime_gb, async_r.mem_runtime_gb);
  EXPECT_EQ(sync_r.cache_hit_rate, async_r.cache_hit_rate);
  EXPECT_EQ(sync_r.avg_batch_nodes, async_r.avg_batch_nodes);
  EXPECT_EQ(sync_r.avg_batch_edges, async_r.avg_batch_edges);
  EXPECT_EQ(sync_r.per_batch_nodes, async_r.per_batch_nodes);
  EXPECT_EQ(sync_r.iterations_per_epoch, async_r.iterations_per_epoch);
  EXPECT_EQ(sync_r.epoch_phases.sample_s, async_r.epoch_phases.sample_s);
  EXPECT_EQ(sync_r.epoch_phases.transfer_s, async_r.epoch_phases.transfer_s);
  EXPECT_EQ(sync_r.epoch_phases.replace_s, async_r.epoch_phases.replace_s);
  EXPECT_EQ(sync_r.epoch_phases.compute_s, async_r.epoch_phases.compute_s);
  // Eq. 4 modeled pair is deterministic too (measured walls are not).
  EXPECT_EQ(sync_r.pipeline.modeled_overlapped_s,
            async_r.pipeline.modeled_overlapped_s);
  EXPECT_EQ(sync_r.pipeline.modeled_sequential_s,
            async_r.pipeline.modeled_sequential_s);
}

class ExecutorBitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ExecutorBitIdentity, AsyncMatchesSyncForTemplate) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_by_name(GetParam());
  config.batch_size = 128;

  runtime::RunOptions sync_opts;
  sync_opts.epochs = 2;
  sync_opts.seed = 11;
  sync_opts.record_batch_sizes = true;
  sync_opts.pipeline.mode = PipelineMode::kSync;
  runtime::RunOptions async_opts = sync_opts;
  async_opts.pipeline.mode = PipelineMode::kAsync;
  async_opts.pipeline.prefetch_depth = 2;
  async_opts.pipeline.sampler_workers = 2;

  const auto sync_r = backend.run(config, sync_opts);
  const auto async_r = backend.run(config, async_opts);
  expect_reports_bit_identical(sync_r, async_r);
  EXPECT_EQ(sync_r.pipeline.executor, "sync");
  EXPECT_EQ(async_r.pipeline.executor, "async");
  EXPECT_EQ(async_r.pipeline.prefetch_depth, 2u);
}

INSTANTIATE_TEST_SUITE_P(Templates, ExecutorBitIdentity,
                         ::testing::Values("pyg", "pagraph-full",
                                           "pagraph-low", "2pgraph",
                                           "graphsaint", "fastgcn"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(ExecutorBitIdentity, HoldsAcrossWorkersAndDepths) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_by_name("pagraph-low");
  config.cache_policy = cache::CachePolicy::kLru;  // dynamic hit/miss path
  config.batch_size = 128;

  runtime::RunOptions sync_opts;
  sync_opts.epochs = 2;
  sync_opts.seed = 3;
  sync_opts.pipeline.mode = PipelineMode::kSync;
  const auto sync_r = backend.run(config, sync_opts);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const std::size_t depth : {1u, 2u, 4u}) {
      runtime::RunOptions async_opts = sync_opts;
      async_opts.pipeline.mode = PipelineMode::kAsync;
      async_opts.pipeline.sampler_workers = workers;
      async_opts.pipeline.prefetch_depth = depth;
      const auto async_r = backend.run(config, async_opts);
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " depth=" + std::to_string(depth));
      expect_reports_bit_identical(sync_r, async_r);
    }
  }
}

TEST(ExecutorBitIdentity, AsyncRunsAreReproducible) {
  // Two identical async runs must agree bit-for-bit with each other
  // (scheduling noise must never leak into the report).
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_by_name("graphsaint");
  config.batch_size = 128;
  runtime::RunOptions opts;
  opts.epochs = 2;
  opts.seed = 29;
  opts.pipeline.mode = PipelineMode::kAsync;
  opts.pipeline.sampler_workers = 4;
  opts.pipeline.prefetch_depth = 4;
  const auto a = backend.run(config, opts);
  const auto b = backend.run(config, opts);
  expect_reports_bit_identical(a, b);
}

TEST(ExecutorReport, AsyncPopulatesBackpressureAccounting) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_by_name("pyg");
  config.batch_size = 64;
  runtime::RunOptions opts;
  opts.epochs = 2;
  opts.pipeline.mode = PipelineMode::kAsync;
  opts.pipeline.sampler_workers = 2;
  opts.pipeline.prefetch_depth = 4;
  const auto r = backend.run(config, opts);
  EXPECT_EQ(r.pipeline.executor, "async");
  EXPECT_EQ(r.pipeline.prefetch_depth, 4u);
  EXPECT_GE(r.pipeline.sampler_workers, 1u);
  EXPECT_GT(r.pipeline.measured_wall_s, 0.0);
  EXPECT_GT(r.pipeline.sample_wall_s, 0.0);
  EXPECT_GT(r.pipeline.transfer_wall_s, 0.0);
  EXPECT_GT(r.pipeline.compute_wall_s, 0.0);
  // Under load the wall can exceed the busy sums (scheduling delays), so
  // only positivity is stable enough to assert here.
  EXPECT_GT(r.pipeline.measured_speedup(), 0.0);
  EXPECT_GE(r.pipeline.overlap_efficiency(), 0.0);
  EXPECT_LE(r.pipeline.overlap_efficiency(), 1.0);
  // Eq. 4's prediction exists alongside the measurement.
  EXPECT_GT(r.pipeline.modeled_sequential_s, 0.0);
  EXPECT_GE(r.pipeline.predicted_speedup(), 1.0);
  // A bounded queue between stages was genuinely exercised: every batch
  // passed through the prepared queue, so someone stalled somewhere
  // unless the stages were perfectly balanced — just assert the counters
  // are self-consistent rather than nonzero.
  EXPECT_LE(r.pipeline.mean_queue_occupancy,
            static_cast<double>(r.pipeline.prefetch_depth));
}

TEST(ExecutorReport, SyncAccountsStageWallsToo) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_by_name("2pgraph");
  config.batch_size = 128;
  runtime::RunOptions opts;
  opts.epochs = 1;
  opts.pipeline.mode = PipelineMode::kSync;
  const auto r = backend.run(config, opts);
  EXPECT_EQ(r.pipeline.executor, "sync");
  EXPECT_GT(r.pipeline.measured_wall_s, 0.0);
  EXPECT_GT(r.pipeline.transfer_wall_s, 0.0);
  EXPECT_GT(r.pipeline.compute_wall_s, 0.0);
  EXPECT_EQ(r.pipeline.push_stalls, 0u);  // no queues in the sync path
}

}  // namespace
}  // namespace gnav
