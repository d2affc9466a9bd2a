#include "runtime/profiler.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace gnav::runtime {

namespace {

/// Registry instruments fed by the measured-stage stream. Resolved
/// once; the gauges are cumulative busy seconds per stage across the
/// process (Prometheus counters are integral here, so second-sums are
/// gauges — see obs/metrics.hpp).
struct StageInstruments {
  obs::Gauge& sample_s;
  obs::Gauge& transfer_s;
  obs::Gauge& compute_s;
  obs::Counter& batches;
};

StageInstruments& stage_instruments() {
  auto& reg = obs::MetricsRegistry::global();
  static StageInstruments s{
      reg.gauge("gnav_stage_busy_seconds_total", {{"stage", "sample"}},
                "Cumulative measured stage wall seconds"),
      reg.gauge("gnav_stage_busy_seconds_total", {{"stage", "transfer"}},
                "Cumulative measured stage wall seconds"),
      reg.gauge("gnav_stage_busy_seconds_total", {{"stage", "compute"}},
                "Cumulative measured stage wall seconds"),
      reg.counter("gnav_batches_trained_total", {},
                  "Mini-batches whose compute stage finished"),
  };
  return s;
}

}  // namespace

void Profiler::record_iteration(const hw::IterationTimes& times,
                                bool pipelined) {
  epoch_phases_.sample_s += times.t_sample;
  epoch_phases_.transfer_s += times.t_transfer;
  epoch_phases_.replace_s += times.t_replace;
  epoch_phases_.compute_s += times.t_compute;
  epoch_modeled_overlapped_s_ += times.overlapped();
  epoch_modeled_sequential_s_ += times.sequential();
  epoch_wall_s_ += pipelined ? times.overlapped() : times.sequential();
  ++iterations_;
}

void Profiler::record_device_memory(double bytes) {
  peak_device_bytes_ = std::max(peak_device_bytes_, bytes);
}

void Profiler::add_measured_stage(Stage stage, double busy_s) {
  StageInstruments& ins = stage_instruments();
  switch (stage) {
    case Stage::kSample:
      ins.sample_s.add(busy_s);
      break;
    case Stage::kTransfer:
      ins.transfer_s.add(busy_s);
      break;
    case Stage::kCompute:
      ins.compute_s.add(busy_s);
      ins.batches.add(1);
      break;
  }
}

void Profiler::reset_epoch() {
  epoch_phases_ = PhaseBreakdown{};
  epoch_wall_s_ = 0.0;
  epoch_modeled_overlapped_s_ = 0.0;
  epoch_modeled_sequential_s_ = 0.0;
  // peak_device_bytes_ persists: it is a run-level high-water mark.
  iterations_ = 0;
}

}  // namespace gnav::runtime
