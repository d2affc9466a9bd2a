// Tests for the telemetry layer (gnav::obs): the metrics registry
// (instrument semantics, find-or-create identity, Prometheus text,
// deterministic exposition order), scoped trace spans (per-thread
// buffers, nesting across pool workers and pipeline stage threads,
// Chrome trace-event JSON round trip), and the layer's two hard
// contracts — TrainReports are bit-identical with telemetry on vs off,
// and the data-bearing metric families are bit-identical across pool
// sizes {1, 2, 8}.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/backend.hpp"
#include "runtime/templates.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace gnav {
namespace {

using obs::MetricsRegistry;

/// RAII telemetry toggle so a failing assertion can't leave tracing or
/// metrics enabled for the rest of the binary.
struct TelemetryOn {
  TelemetryOn() {
    obs::reset_trace();
    obs::set_tracing_enabled(true);
    obs::set_metrics_enabled(true);
  }
  ~TelemetryOn() {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
  }
};

// ------------------------------------------------------ metrics registry

TEST(ObsMetrics, CounterGaugeHistogramSemantics) {
  const TelemetryOn on;
  auto& reg = MetricsRegistry::global();

  obs::Counter& c = reg.counter("test_obs_events_total", {}, "help");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(&c, &reg.counter("test_obs_events_total", {}, "help"));

  obs::Gauge& g = reg.gauge("test_obs_depth", {}, "help");
  g.reset();
  g.set(3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  obs::Histogram& h =
      reg.histogram("test_obs_latency", {}, "help", {1.0, 2.0, 4.0});
  h.reset();
  for (const double v : {0.5, 1.5, 3.0, 100.0}) h.observe(v);
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // <= 1
  EXPECT_EQ(h.bucket_count(1), 1u);  // (1, 2]
  EXPECT_EQ(h.bucket_count(2), 1u);  // (2, 4]
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.0);
}

TEST(ObsMetrics, DisabledUpdatesAreNoOps) {
  auto& reg = MetricsRegistry::global();
  obs::Counter& c = reg.counter("test_obs_disabled_total", {}, "help");
  obs::Gauge& g = reg.gauge("test_obs_disabled_gauge", {}, "help");
  {
    const TelemetryOn on;
    c.reset();
    g.reset();
  }
  ASSERT_FALSE(obs::metrics_enabled());
  c.add(7);
  g.set(7.0);
  g.add(7.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, KindMismatchOnSameSeriesThrows) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test_obs_kind_clash", {{"a", "b"}}, "help");
  EXPECT_THROW(reg.gauge("test_obs_kind_clash", {{"a", "b"}}, "help"), Error);
  // Same family with different labels is a different series — any kind.
  EXPECT_NO_THROW(reg.gauge("test_obs_kind_clash2", {{"a", "c"}}, "help"));
}

TEST(ObsMetrics, PrometheusTextRegistrationOrderAndEscaping) {
  const TelemetryOn on;
  auto& reg = MetricsRegistry::global();
  obs::Counter& c1 =
      reg.counter("test_obs_prom_total", {{"kind", "fir\"st\n"}}, "a help");
  obs::Counter& c2 =
      reg.counter("test_obs_prom_total", {{"kind", "second"}}, "a help");
  c1.reset();
  c2.reset();
  c1.add(3);
  c2.add(5);

  const std::string text = reg.prometheus_text();
  const auto help_pos = text.find("# HELP test_obs_prom_total a help");
  const auto type_pos = text.find("# TYPE test_obs_prom_total counter");
  const auto s1 =
      text.find("test_obs_prom_total{kind=\"fir\\\"st\\n\"} 3");
  const auto s2 = text.find("test_obs_prom_total{kind=\"second\"} 5");
  ASSERT_NE(help_pos, std::string::npos) << text;
  ASSERT_NE(type_pos, std::string::npos) << text;
  ASSERT_NE(s1, std::string::npos) << text;
  ASSERT_NE(s2, std::string::npos) << text;
  // HELP/TYPE precede the first series; first-registered series first.
  EXPECT_LT(help_pos, s1);
  EXPECT_LT(type_pos, s1);
  EXPECT_LT(s1, s2);
  // One HELP per family, not one per series.
  EXPECT_EQ(text.find("# HELP test_obs_prom_total", help_pos + 1),
            std::string::npos);

  // snapshot() lists the same series in the same order.
  const auto samples = MetricsRegistry::global().snapshot();
  std::vector<std::string> names;
  for (const auto& s : samples) names.push_back(s.name);
  const auto i1 = std::find(names.begin(), names.end(),
                            "test_obs_prom_total{kind=\"fir\\\"st\\n\"}");
  const auto i2 = std::find(names.begin(), names.end(),
                            "test_obs_prom_total{kind=\"second\"}");
  ASSERT_NE(i1, names.end());
  ASSERT_NE(i2, names.end());
  EXPECT_LT(i1 - names.begin(), i2 - names.begin());
}

TEST(ObsMetrics, HistogramPrometheusBucketsAreCumulative) {
  const TelemetryOn on;
  auto& reg = MetricsRegistry::global();
  obs::Histogram& h =
      reg.histogram("test_obs_prom_hist", {}, "help", {1.0, 2.0});
  h.reset();
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE test_obs_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"2\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_sum 11"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_count 3"), std::string::npos)
      << text;
}

// ------------------------------------------------------- trace plumbing

/// Minimal structural JSON check: balanced {} and [] outside strings,
/// valid escape handling, single top-level object. (The TraceJsonStrict
/// ctest additionally json.load()s a real export via Python.)
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool seen_top = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
      seen_top = true;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
  EXPECT_TRUE(seen_top);
}

struct ParsedEvent {
  int tid = -1;
  std::string cat;
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
};

std::string extract_str(const std::string& line, const std::string& key) {
  const auto k = line.find("\"" + key + "\":\"");
  if (k == std::string::npos) return "";
  const auto start = k + key.size() + 4;
  const auto end = line.find('"', start);  // test names carry no escapes
  return line.substr(start, end - start);
}

double extract_num(const std::string& line, const std::string& key) {
  const auto k = line.find("\"" + key + "\":");
  if (k == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + k + key.size() + 3, nullptr);
}

/// The writer emits one event per line; split and parse the X events
/// plus the tid -> thread-name metadata.
void parse_trace(const std::string& json, std::vector<ParsedEvent>& events,
                 std::map<int, std::string>& thread_names) {
  std::size_t pos = 0;
  while (pos < json.size()) {
    auto eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string line = json.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find("\"ph\":\"M\"") != std::string::npos &&
        line.find("thread_name") != std::string::npos) {
      // args.name is the LAST "name": on the metadata line.
      const auto k = line.rfind("\"name\":\"");
      const auto start = k + 8;
      thread_names[static_cast<int>(extract_num(line, "tid"))] =
          line.substr(start, line.find('"', start) - start);
    } else if (line.find("\"ph\":\"X\"") != std::string::npos) {
      ParsedEvent ev;
      ev.tid = static_cast<int>(extract_num(line, "tid"));
      ev.cat = extract_str(line, "cat");
      ev.name = extract_str(line, "name");
      ev.ts = extract_num(line, "ts");
      ev.dur = extract_num(line, "dur");
      events.push_back(ev);
    }
  }
}

bool has_nested_pair_on_one_tid(const std::vector<ParsedEvent>& events) {
  for (const auto& outer : events) {
    for (const auto& inner : events) {
      if (&outer == &inner || outer.tid != inner.tid) continue;
      if (outer.ts <= inner.ts &&
          inner.ts + inner.dur <= outer.ts + outer.dur &&
          outer.dur > inner.dur) {
        return true;
      }
    }
  }
  return false;
}

TEST(ObsTrace, DisabledSpanRecordsNothing) {
  obs::reset_trace();
  ASSERT_FALSE(obs::tracing_enabled());
  {
    GNAV_TRACE_SPAN("test", "ghost");
  }
  EXPECT_EQ(obs::trace_recorded_spans(), 0u);
}

TEST(ObsTrace, NestingAcrossParallelForWorkers) {
  const TelemetryOn on;
  support::ThreadPool pool(4);
  pool.parallel_for(0, 64, [](std::size_t i) {
    GNAV_TRACE_SPAN("test", "outer-" + std::to_string(i));
    GNAV_TRACE_SPAN("test", "inner-" + std::to_string(i));
  });
  obs::set_tracing_enabled(false);

  const std::string json = obs::chrome_trace_json();
  expect_balanced_json(json);
  std::vector<ParsedEvent> events;
  std::map<int, std::string> thread_names;
  parse_trace(json, events, thread_names);

  // 64 outer + 64 inner spans, all on named pool-worker tids.
  std::size_t test_spans = 0;
  bool pool_thread_named = false;
  for (const auto& ev : events) {
    if (ev.cat != "test") continue;
    ++test_spans;
    const auto it = thread_names.find(ev.tid);
    ASSERT_NE(it, thread_names.end());
    if (it->second.rfind("gnav-pool-", 0) == 0) pool_thread_named = true;
  }
  EXPECT_EQ(test_spans, 128u);
  EXPECT_TRUE(pool_thread_named);
  EXPECT_TRUE(has_nested_pair_on_one_tid(events));
  EXPECT_EQ(obs::trace_dropped_spans(), 0u);
}

TEST(ObsTrace, FullBufferDropsAndCounts) {
  obs::reset_trace();
  obs::set_trace_buffer_capacity(4);
  obs::set_tracing_enabled(true);
  // A fresh pool worker registers the 4-span buffer (submit, not
  // parallel_for: a single-index parallel_for runs inline on the main
  // thread, whose buffer has the default capacity); 6 spans -> 2 drops.
  support::ThreadPool pool(1);
  pool.submit([] {
        for (int i = 0; i < 6; ++i) {
          GNAV_TRACE_SPAN("test", "drop");
        }
      })
      .get();
  obs::set_tracing_enabled(false);
  obs::set_trace_buffer_capacity(8192);
  EXPECT_EQ(obs::trace_dropped_spans(), 2u);
}

// ------------------------------------- telemetry vs the training runtime

graph::Dataset small_dataset() {
  graph::SyntheticSpec spec;
  spec.name = "obs-unit";
  spec.num_nodes = 600;
  spec.num_classes = 4;
  spec.feature_dim = 12;
  spec.min_degree = 3;
  spec.max_degree = 60;
  return graph::make_synthetic_dataset(spec, 5);
}

/// Every deterministic (non-wall-clock) field must match EXACTLY — the
/// contract test_pipeline.cpp pins for sync-vs-async, applied here to
/// telemetry-on-vs-off.
void expect_reports_bit_identical(const runtime::TrainReport& off,
                                  const runtime::TrainReport& on) {
  EXPECT_EQ(off.epoch_loss, on.epoch_loss);
  EXPECT_EQ(off.epoch_times_s, on.epoch_times_s);
  EXPECT_EQ(off.epoch_train_accuracy, on.epoch_train_accuracy);
  EXPECT_EQ(off.epoch_val_accuracy, on.epoch_val_accuracy);
  EXPECT_EQ(off.final_train_accuracy, on.final_train_accuracy);
  EXPECT_EQ(off.val_accuracy, on.val_accuracy);
  EXPECT_EQ(off.test_accuracy, on.test_accuracy);
  EXPECT_EQ(off.epoch_time_s, on.epoch_time_s);
  EXPECT_EQ(off.peak_memory_gb, on.peak_memory_gb);
  EXPECT_EQ(off.mem_model_gb, on.mem_model_gb);
  EXPECT_EQ(off.mem_cache_gb, on.mem_cache_gb);
  EXPECT_EQ(off.mem_runtime_gb, on.mem_runtime_gb);
  EXPECT_EQ(off.cache_hit_rate, on.cache_hit_rate);
  EXPECT_EQ(off.avg_batch_nodes, on.avg_batch_nodes);
  EXPECT_EQ(off.avg_batch_edges, on.avg_batch_edges);
  EXPECT_EQ(off.per_batch_nodes, on.per_batch_nodes);
  EXPECT_EQ(off.iterations_per_epoch, on.iterations_per_epoch);
  EXPECT_EQ(off.epoch_phases.sample_s, on.epoch_phases.sample_s);
  EXPECT_EQ(off.epoch_phases.transfer_s, on.epoch_phases.transfer_s);
  EXPECT_EQ(off.epoch_phases.replace_s, on.epoch_phases.replace_s);
  EXPECT_EQ(off.epoch_phases.compute_s, on.epoch_phases.compute_s);
  EXPECT_EQ(off.pipeline.modeled_overlapped_s,
            on.pipeline.modeled_overlapped_s);
  EXPECT_EQ(off.pipeline.modeled_sequential_s,
            on.pipeline.modeled_sequential_s);
}

runtime::RunOptions async_run_options() {
  runtime::RunOptions opts;
  opts.epochs = 2;
  opts.seed = 11;
  opts.record_batch_sizes = true;
  opts.pipeline.mode = runtime::PipelineMode::kAsync;
  opts.pipeline.prefetch_depth = 2;
  opts.pipeline.sampler_workers = 2;
  return opts;
}

TEST(ObsContract, TrainReportBitIdenticalTelemetryOnVsOff) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_pagraph_full();
  config.pipeline_overlap = true;
  config.batch_size = 128;
  const runtime::RunOptions opts = async_run_options();

  ASSERT_FALSE(obs::tracing_enabled());
  ASSERT_FALSE(obs::metrics_enabled());
  const auto off_r = backend.run(config, opts);
  runtime::TrainReport on_r;
  {
    const TelemetryOn on;
    on_r = backend.run(config, opts);
    EXPECT_GT(obs::trace_recorded_spans(), 0u);
  }
  expect_reports_bit_identical(off_r, on_r);

  // Sync executor too (separate instrumentation path in backend.cpp).
  runtime::RunOptions sync_opts = opts;
  sync_opts.pipeline = runtime::PipelineConfig{};
  const auto sync_off = backend.run(config, sync_opts);
  runtime::TrainReport sync_on;
  {
    const TelemetryOn on;
    sync_on = backend.run(config, sync_opts);
  }
  expect_reports_bit_identical(sync_off, sync_on);
}

TEST(ObsContract, PipelineStageThreadSpansNestAndExport) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_pagraph_full();
  config.pipeline_overlap = true;
  config.batch_size = 128;

  const TelemetryOn on;
  backend.run(config, async_run_options());
  obs::set_tracing_enabled(false);

  const std::string json = obs::chrome_trace_json();
  expect_balanced_json(json);
  std::vector<ParsedEvent> events;
  std::map<int, std::string> thread_names;
  parse_trace(json, events, thread_names);

  std::vector<std::string> cats;
  for (const auto& ev : events) cats.push_back(ev.cat);
  EXPECT_NE(std::find(cats.begin(), cats.end(), "pipeline"), cats.end());
  EXPECT_NE(std::find(cats.begin(), cats.end(), "cache"), cats.end());

  // The named stage threads appear as trace tracks...
  bool transfer_track = false;
  bool sampler_track = false;
  for (const auto& [tid, name] : thread_names) {
    if (name == "gnav-stage-transfer") transfer_track = true;
    if (name.rfind("gnav-stage-sample-", 0) == 0) sampler_track = true;
  }
  EXPECT_TRUE(transfer_track);
  EXPECT_TRUE(sampler_track);
  // ...and cache lookups nest inside the transfer span on its tid.
  EXPECT_TRUE(has_nested_pair_on_one_tid(events));
}

TEST(ObsContract, MetricSnapshotDeterministicAcrossPoolSizes) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_pagraph_full();
  config.pipeline_overlap = true;
  config.batch_size = 128;

  // Data-bearing families only: stall counters, occupancy, and wall
  // gauges are timing observables and legitimately vary.
  const auto deterministic = [](const std::string& name) {
    return name.rfind("gnav_cache_", 0) == 0 ||
           name.rfind("gnav_sampler_batches_total", 0) == 0 ||
           name.rfind("gnav_batches_trained_total", 0) == 0 ||
           name.rfind("gnav_pipeline_epochs_total", 0) == 0 ||
           name.rfind("gnav_pipeline_batches_total", 0) == 0;
  };

  // The async executor samples on its own stage threads, the sync one on
  // the run's pool: both must publish the same data-bearing values at
  // every pool size.
  for (const runtime::PipelineMode mode :
       {runtime::PipelineMode::kAsync, runtime::PipelineMode::kSync}) {
    std::map<std::string, double> reference;
    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      support::ThreadPool pool(pool_size);
      runtime::RunOptions opts = async_run_options();
      opts.pipeline.mode = mode;
      opts.pool = &pool;

      const TelemetryOn on;
      MetricsRegistry::global().reset_values();
      backend.run(config, opts);

      std::map<std::string, double> got;
      for (const auto& s : MetricsRegistry::global().snapshot()) {
        if (deterministic(s.name)) got[s.name] = s.value;
      }
      ASSERT_FALSE(got.empty());
      EXPECT_GT(got.count("gnav_pipeline_batches_total"), 0u);
      if (reference.empty()) {
        reference = got;
      } else {
        EXPECT_EQ(reference, got) << runtime::to_string(mode)
                                  << " executor, pool size " << pool_size;
      }
    }
  }
}

// The sync executor's pool schedule samples through the same closure as
// every other schedule, so the sampler counter and the sample-stage
// gauge see every batch it builds.
TEST(ObsContract, SyncExecutorPublishesSamplerMetrics) {
  const graph::Dataset ds = small_dataset();
  runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  runtime::TrainConfig config = runtime::template_pyg();  // unbiased
  config.batch_size = 128;
  runtime::RunOptions opts;
  opts.epochs = 2;
  opts.seed = 11;
  opts.pipeline.mode = runtime::PipelineMode::kSync;
  support::ThreadPool pool(2);
  opts.pool = &pool;

  const TelemetryOn on;
  MetricsRegistry::global().reset_values();
  const runtime::TrainReport r = backend.run(config, opts);

  std::map<std::string, double> got;
  for (const auto& s : MetricsRegistry::global().snapshot()) {
    got[s.name] = s.value;
  }
  const std::string batches_series =
      "gnav_sampler_batches_total{sampler=\"" +
      sampling::to_string(config.sampler) + "\"}";
  ASSERT_EQ(got.count(batches_series), 1u) << batches_series;
  EXPECT_EQ(got.at(batches_series),
            static_cast<double>(opts.epochs) *
                static_cast<double>(r.iterations_per_epoch));
  const std::string sample_gauge =
      "gnav_stage_busy_seconds_total{stage=\"sample\"}";
  ASSERT_EQ(got.count(sample_gauge), 1u) << sample_gauge;
  EXPECT_GT(got.at(sample_gauge), 0.0);
}

}  // namespace
}  // namespace gnav
