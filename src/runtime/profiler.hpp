// Phase-time and memory profiler — the reproduction's analogue of the
// PyTorch profiler the paper uses to measure T and Γ. Times come in two
// kinds and the profiler keeps them strictly apart:
//
//   modeled   — simulated seconds from the hardware cost model. Eq. 4's
//               overlapped() and the no-pipelining sequential() are BOTH
//               accumulated every iteration, so the predicted overlap
//               benefit (sequential / overlapped) is always available,
//               independent of which one counts toward epoch_wall_s().
//   measured  — real wall-clock seconds. The stage callbacks stream each
//               batch's stage wall through add_measured_stage into the
//               metrics registry (gnav_stage_busy_seconds_total and
//               gnav_batches_trained_total) as they complete. The
//               authoritative per-epoch totals are the epoch executor's
//               PipelineReport (runtime/pipeline.hpp), which the runtime
//               accumulates into TrainReport::pipeline; comparing its
//               measured speedup against the modeled ratio is what lets
//               the estimator's f_overlapping correction be fit from data
//               instead of assumed.
//
// Memory is analytic bytes tracked against the device budget.
//
// Threading: the modeled accumulators (record_iteration, phases, memory)
// are written by the single ordered transfer stage — no lock.
// add_measured_stage is called concurrently by stage threads and pool
// workers; it only touches atomic metric instruments.
#pragma once

#include <cstdint>

#include "hw/cost_model.hpp"

namespace gnav::runtime {

struct PhaseBreakdown {
  double sample_s = 0.0;
  double transfer_s = 0.0;
  double replace_s = 0.0;
  double compute_s = 0.0;

  double total() const {
    return sample_s + transfer_s + replace_s + compute_s;
  }
};

class Profiler {
 public:
  /// Stage of the epoch executor a measured wall belongs to.
  enum class Stage { kSample, kTransfer, kCompute };

  /// Accumulates one iteration's phase times; wall time uses Eq. 4's
  /// pipeline overlap unless `pipelined` is false (sequential runtime).
  /// Both the overlapped and the sequential sums are kept regardless.
  void record_iteration(const hw::IterationTimes& times,
                        bool pipelined = true);

  /// Tracks the device-memory high-water mark (bytes).
  void record_device_memory(double bytes);

  /// Streams one batch's measured stage wall to the metrics registry as
  /// it completes. Thread-safe. kCompute additionally counts the batch as
  /// trained.
  static void add_measured_stage(Stage stage, double busy_s);

  void reset_epoch();

  double epoch_wall_s() const { return epoch_wall_s_; }
  /// Eq. 4 epoch time with the max() overlap applied every iteration.
  double epoch_modeled_overlapped_s() const {
    return epoch_modeled_overlapped_s_;
  }
  /// Same iterations executed strictly sequentially (no overlap).
  double epoch_modeled_sequential_s() const {
    return epoch_modeled_sequential_s_;
  }
  PhaseBreakdown epoch_phases() const { return epoch_phases_; }
  double peak_device_bytes() const { return peak_device_bytes_; }
  std::uint64_t iterations() const { return iterations_; }

 private:
  PhaseBreakdown epoch_phases_;
  double epoch_wall_s_ = 0.0;
  double epoch_modeled_overlapped_s_ = 0.0;
  double epoch_modeled_sequential_s_ = 0.0;
  double peak_device_bytes_ = 0.0;
  std::uint64_t iterations_ = 0;
};

}  // namespace gnav::runtime
