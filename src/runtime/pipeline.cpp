#include "runtime/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"

namespace gnav::runtime {

std::string to_string(PipelineMode mode) {
  return mode == PipelineMode::kAsync ? "async" : "sync";
}

PipelineMode pipeline_mode_from_string(const std::string& s) {
  if (s == "sync") return PipelineMode::kSync;
  if (s == "async") return PipelineMode::kAsync;
  throw Error("unknown pipeline mode '" + s + "' (sync | async)");
}

PipelineConfig default_pipeline_config() {
  PipelineConfig config;
  if (const char* raw = std::getenv("GNAV_PIPELINE")) {
    try {
      config.mode = pipeline_mode_from_string(raw);
    } catch (const Error&) {
      // Warn once — RunOptions defaults re-resolve this per run.
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        log_warn("GNAV_PIPELINE='", raw,
                 "' is invalid (sync | async); falling back to sync");
      }
    }
  }
  if (const auto depth = support::env_long("GNAV_PIPELINE_DEPTH", 1)) {
    config.prefetch_depth = static_cast<std::size_t>(*depth);
  }
  // Minimum 0, not 1: GNAV_PIPELINE_WORKERS=0 is the documented "auto"
  // spelling (resolves to default_thread_count(), same as unset). The old
  // min of 1 made env_long reject 0 with a warning and silently fall back
  // — a doc/parse mismatch pinned by test_pipeline.cpp.
  if (const auto workers = support::env_long("GNAV_PIPELINE_WORKERS", 0)) {
    config.sampler_workers = static_cast<std::size_t>(*workers);
  }
  return config;
}

double PipelineReport::overlap_efficiency() const {
  const double seq = measured_sequential_s();
  const double bottleneck = std::max(
      {sample_wall_s, transfer_wall_s, compute_wall_s});
  // `seq - bottleneck` is the hideable time; below it there is nothing a
  // pipeline could overlap (single stage, or empty epoch).
  const double hideable = seq - bottleneck;
  if (hideable <= 0.0) return 0.0;
  const double hidden = std::clamp(seq - measured_wall_s, 0.0, hideable);
  return hidden / hideable;
}

void PipelineReport::accumulate(const PipelineReport& epoch) {
  executor = epoch.executor;
  batches += epoch.batches;
  sampler_workers = std::max(sampler_workers, epoch.sampler_workers);
  prefetch_depth = std::max(prefetch_depth, epoch.prefetch_depth);
  push_stalls += epoch.push_stalls;
  pop_stalls += epoch.pop_stalls;
  // Occupancy is a mean, not a count — weight epochs equally by keeping a
  // running average over however many accumulations happened.
  ++occupancy_epochs_;
  mean_queue_occupancy +=
      (epoch.mean_queue_occupancy - mean_queue_occupancy) /
      static_cast<double>(occupancy_epochs_);
  sample_wall_s += epoch.sample_wall_s;
  transfer_wall_s += epoch.transfer_wall_s;
  compute_wall_s += epoch.compute_wall_s;
  measured_wall_s += epoch.measured_wall_s;
  modeled_overlapped_s += epoch.modeled_overlapped_s;
  modeled_sequential_s += epoch.modeled_sequential_s;
}

namespace detail {

TicketGate::TicketGate(std::size_t num_tickets, std::size_t depth)
    : num_tickets_(num_tickets), depth_(std::max<std::size_t>(1, depth)) {}

std::optional<std::size_t> TicketGate::acquire() {
  // Explicit wait loop instead of the predicate overload: the predicate
  // lambda cannot carry a REQUIRES annotation, so guarded-field reads
  // inside it would defeat the thread-safety analysis.
  support::UniqueLock lock(mutex_);
  while (!aborted_ && next_ < num_tickets_ && next_ >= released_ + depth_) {
    lock.wait(cv_);
  }
  if (aborted_ || next_ >= num_tickets_) return std::nullopt;
  return next_++;
}

void TicketGate::release() {
  {
    const support::MutexLock lock(mutex_);
    ++released_;
  }
  cv_.notify_all();
}

void TicketGate::abort() {
  {
    const support::MutexLock lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

void publish_epoch_metrics(const PipelineReport& stats) {
  auto& reg = obs::MetricsRegistry::global();
  // Resolved once per process; the registry hands out stable references.
  static obs::Counter& epochs =
      reg.counter("gnav_pipeline_epochs_total", {},
                  "Epochs executed by the epoch executor");
  static obs::Counter& batches =
      reg.counter("gnav_pipeline_batches_total", {},
                  "Mini-batches moved through the epoch executor");
  static obs::Counter& push_stalls = reg.counter(
      "gnav_pipeline_push_stalls_total", {},
      "Queue-full waits across both hand-off queues (backpressure)");
  static obs::Counter& pop_stalls = reg.counter(
      "gnav_pipeline_pop_stalls_total", {},
      "Queue-empty waits across both hand-off queues (starvation)");
  static obs::Histogram& occupancy = reg.histogram(
      "gnav_pipeline_queue_occupancy", {},
      "Mean prepared-queue backlog per epoch (near depth-1 = "
      "compute-bound, 0 = sample/transfer-bound)",
      {0.5, 1.0, 2.0, 4.0, 8.0, 16.0});
  static obs::Gauge& wall = reg.gauge(
      "gnav_pipeline_epoch_wall_seconds", {},
      "Measured wall seconds of the most recent epoch");
  static obs::Gauge& efficiency = reg.gauge(
      "gnav_pipeline_overlap_efficiency", {},
      "Fraction of hideable stage time actually hidden, last epoch");
  epochs.add(1);
  batches.add(stats.batches);
  push_stalls.add(stats.push_stalls);
  pop_stalls.add(stats.pop_stalls);
  occupancy.observe(stats.mean_queue_occupancy);
  wall.set(stats.measured_wall_s);
  efficiency.set(stats.overlap_efficiency());
}

}  // namespace detail
}  // namespace gnav::runtime
