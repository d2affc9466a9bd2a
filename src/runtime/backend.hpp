// RuntimeBackend — the reconfigurable training runtime of Fig. 3. Given a
// Dataset, a HardwareProfile and a TrainConfig, it executes Algo. 1
// (sample -> cache lookup -> transfer -> cache update -> compute) and
// reports the measured performance Perf{T, Γ, Acc}:
//
//   T   — simulated epoch time from the hardware cost model, with Eq. 4's
//         host/device pipeline overlap, extrapolated to the original
//         dataset scale (real_scale_factor);
//   Γ   — analytic device memory (Eq. 9: model + cache + runtime), also at
//         original scale;
//   Acc — REAL accuracy: the GNN is genuinely trained on CPU tensors and
//         evaluated on the held-out split.
#pragma once

#include <cstdint>
#include <vector>

#include <string>

#include "compute/backend.hpp"
#include "graph/dataset.hpp"
#include "hw/cost_model.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/profiler.hpp"
#include "runtime/train_config.hpp"

namespace gnav::support {
class ThreadPool;
}

namespace gnav::runtime {

struct TrainReport {
  /// Mean simulated epoch time (seconds, original-dataset scale) — the T
  /// the paper's Table 1 reports.
  double epoch_time_s = 0.0;
  std::vector<double> epoch_times_s;

  /// Peak device memory Γ in GB (original-dataset scale) and its Eq. 9
  /// decomposition.
  double peak_memory_gb = 0.0;
  double mem_model_gb = 0.0;
  double mem_cache_gb = 0.0;
  double mem_runtime_gb = 0.0;

  /// Real (not simulated) accuracies.
  double final_train_accuracy = 0.0;
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  std::vector<double> epoch_train_accuracy;
  std::vector<double> epoch_val_accuracy;
  std::vector<double> epoch_loss;

  /// Diagnostics.
  /// Compute backend that executed this run (RunOptions::backend_id as
  /// resolved) — the estimator keys capability features on it.
  std::string backend_id;
  /// Peak bytes outstanding in the backend's device allocator when the
  /// run finished (cache slab included). The allocator is shared by all
  /// runs on the same backend, so this is a process-level diagnostic.
  std::size_t device_peak_bytes = 0;
  PhaseBreakdown epoch_phases;  // per-epoch average
  PipelineReport pipeline;      // executor profile (run totals)
  double cache_hit_rate = 0.0;
  double avg_batch_nodes = 0.0;
  double avg_batch_edges = 0.0;
  std::vector<double> per_batch_nodes;  // every mini-batch |V_i| (Fig. 5 data)
  std::size_t model_parameters = 0;
  std::size_t iterations_per_epoch = 0;
  double wall_clock_s = 0.0;  // actual CPU time spent by the simulator
};

struct RunOptions {
  int epochs = 4;
  std::uint64_t seed = 1;
  /// When false, skips per-epoch full-graph validation passes (cheaper
  /// profiling runs for the estimator's training data).
  bool evaluate_every_epoch = true;
  /// Collect per-batch |V_i| samples (Fig. 5 ground truth).
  bool record_batch_sizes = false;
  /// Pool the sync executor builds mini-batches ahead on (nullptr →
  /// global pool). Results are bit-identical at any pool size: every
  /// batch draws from its own task_seed-derived RNG.
  support::ThreadPool* pool = nullptr;
  /// Compute backend executing every forward/backward in this run (see
  /// compute/backend.hpp; all built-in CPU backends are bit-identical, so
  /// for them this is purely a throughput knob). Defaults to the caller's
  /// current selection, so an ambient compute::BackendScope composes with
  /// it instead of being overridden. The run pins this id on its own
  /// thread AND inside every async stage closure — no global state is
  /// consulted mid-run.
  std::string backend_id = compute::current_backend_id();
  /// Epoch executor selection (sync | async) plus prefetch depth and
  /// sampler worker count, defaulted from GNAV_PIPELINE /
  /// GNAV_PIPELINE_DEPTH / GNAV_PIPELINE_WORKERS. The async executor
  /// produces a bit-identical TrainReport (batch stream, cache hit/miss
  /// sequence, losses, accuracies, memory, modeled times) at any depth
  /// and worker count — only wall-clock observables change.
  PipelineConfig pipeline = default_pipeline_config();
};

class RuntimeBackend {
 public:
  /// The dataset must outlive the backend.
  RuntimeBackend(const graph::Dataset& dataset, hw::HardwareProfile profile);

  /// Executes training under `config` and returns the measured report.
  TrainReport run(const TrainConfig& config, const RunOptions& options) const;

  const graph::Dataset& dataset() const { return *dataset_; }
  const hw::HardwareProfile& profile() const { return cost_.profile(); }

  /// Eq. 9/10 static components for a given config (used by the estimator
  /// without running training).
  double model_memory_gb(const TrainConfig& config) const;
  double cache_memory_gb(const TrainConfig& config) const;

 private:
  const graph::Dataset* dataset_;
  hw::CostModel cost_;
};

}  // namespace gnav::runtime
