// Learned overlap-efficiency correction — the fitted replacement for
// Eq. 4's analytic max().
//
// Eq. 4 assumes the host pipeline (sample + transfer) hides perfectly
// behind the device pipeline (replace + compute), so the epoch wall is
// the bottleneck side alone. The asynchronous epoch executor
// (runtime/pipeline.hpp) measures what actually happens: per-stage busy
// seconds and the realized wall. This model closes the paper's gray-box
// loop for f_overlapping: it regresses the *measured* overlap ratio
//
//   rho = measured_wall_s / (sample_wall_s + transfer_wall_s +
//                            compute_wall_s)
//
// (1.0 = fully serial, bottleneck/serial = perfect overlap) against
// white-box features — the analytic Eq. 4 ratio, the analytic stage
// balance, batch volume, and the executor shape (prefetch depth, sampler
// workers) — plus the executor's stall/occupancy counters, which are
// known for profiled rows and mean-imputed at predict time.
//
// Only corpus rows that actually ran the async executor can train the
// fit; sync rows (and rows with empty measured walls) are rejected by
// row_eligible so they can never poison the regression. When no eligible
// rows exist the model stays unfitted and every consumer falls back to
// the analytic Eq. 4 ratio. A corpus with fewer eligible rows than the
// slopes need (min_slope_rows) fits only the mean measured ratio: each
// row's target carries milliseconds of scheduling noise, and a solve
// with no spare rows would hand that noise to the decision maker.
//
// The regression is a ridge fit (normal equations, serial, no RNG), so
// fit and predict are bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "estimator/profile_collector.hpp"
#include "hw/cost_model.hpp"
#include "ml/ridge.hpp"

namespace gnav::estimator {

/// Executor shape an overlap prediction is made for (the async
/// executor's prefetch depth and sampler worker count).
struct OverlapExecutorShape {
  std::size_t prefetch_depth = 4;
  std::size_t sampler_workers = 4;
};

class OverlapModel {
 public:
  explicit OverlapModel(hw::HardwareProfile hw);

  /// True iff `run` can train the fit: the async executor ran and
  /// reported positive, finite measured walls. Sync rows carry
  /// measured-wall zeros or serial-loop walls and must never train the
  /// overlap correction.
  static bool row_eligible(const ProfiledRun& run);

  /// Measured wall / serial-stage-work ratio of a profiled row (the fit
  /// target); 1.0 when the row has no usable measurement.
  static double measured_ratio(const runtime::TrainReport& report);

  /// Eq. 4's implied wall ratio from the modeled overlapped/sequential
  /// pair the profiler recorded (the analytic ablation arm).
  static double analytic_ratio(const runtime::TrainReport& report);

  /// Fits on the eligible subset of `runs`. Fewer than `min_rows()`
  /// eligible rows leaves the model unfitted (analytic fallback); fewer
  /// than `min_slope_rows()` fits the mean measured ratio alone.
  void fit(const std::vector<ProfiledRun>& runs);

  bool is_fitted() const { return fitted_; }
  std::size_t training_rows() const { return rows_; }
  static std::size_t min_rows() { return 4; }
  /// Eligible rows needed to fit per-feature slopes: the unknowns (one
  /// coefficient per feature plus the intercept) and one residual degree
  /// of freedom, so the solve cannot simply interpolate its rows.
  static std::size_t min_slope_rows() { return feature_names().size() + 2; }

  /// Predicted measured-wall / serial-stage-work ratio for `config`
  /// running under an async executor of the given shape. Falls back to
  /// `analytic_fallback` when unfitted, and is the same mean ratio for
  /// every config when fitted on fewer than `min_slope_rows()` rows.
  /// The result is clamped to [0.25, 1.5]: a pipeline cannot beat a 4x
  /// overlap of its serial work, and scheduling overhead rarely exceeds
  /// 1.5x.
  double predict_ratio(const runtime::TrainConfig& config,
                       const DatasetStats& stats,
                       const OverlapExecutorShape& shape,
                       double analytic_fallback) const;

  /// Ordered names of the regression features (diagnostics).
  static const std::vector<std::string>& feature_names();

 private:
  std::vector<double> features(const runtime::TrainConfig& config,
                               const DatasetStats& stats,
                               const OverlapExecutorShape& shape,
                               double push_stall_rate, double pop_stall_rate,
                               double occupancy_frac) const;

  hw::CostModel cost_;
  ml::RidgeRegressor ridge_;
  // Mean-imputation values for the measured-only columns (stall rates,
  // queue occupancy), learned at fit time and substituted at predict
  // time where no executor has run yet.
  double mean_push_stall_rate_ = 0.0;
  double mean_pop_stall_rate_ = 0.0;
  double mean_occupancy_frac_ = 0.0;
  // Mean log measured ratio of the training rows: the whole model when
  // too few rows were eligible to fit slopes.
  double mean_log_ratio_ = 0.0;
  std::size_t rows_ = 0;
  bool fitted_ = false;
  bool slopes_fitted_ = false;
};

}  // namespace gnav::estimator
