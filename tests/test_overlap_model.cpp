// Tests for the learned overlap-efficiency correction (the fitted
// replacement for Eq. 4's analytic max()): row eligibility (sync rows
// must never train or poison the fit), analytic fallback when no async
// rows exist, the mean-ratio fit of a corpus too small for slopes,
// fit/predict determinism, ratio clamping, the PerfEstimator
// consultation path, and the headline out-of-sample claim — on a
// held-out async sweep the fitted ratio, mean and sloped alike, tracks
// the measured executor wall at least as well as the bare Eq. 4 max().
//
// The corpus is profiled once in a shared fixture with every other run
// executed under the async executor (CollectorOptions::async_every), so
// measured executor walls exist for half the rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "estimator/overlap_model.hpp"
#include "estimator/perf_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "runtime/templates.hpp"
#include "support/error.hpp"

namespace gnav::estimator {
namespace {

class OverlapModelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hw_ = new hw::HardwareProfile(hw::make_profile("rtx4090"));
    dataset_ = new graph::Dataset(graph::make_power_law_augmentation(0, 3));
    stats_ = new DatasetStats(compute_dataset_stats(*dataset_));
    CollectorOptions opts;
    opts.configs_per_dataset = 24;
    opts.epochs = 1;
    opts.seed = 77;
    opts.async_every = 2;  // half the corpus runs the async executor
    corpus_ = new std::vector<ProfiledRun>(
        collect_profiles(*dataset_, *hw_, opts));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete stats_;
    delete dataset_;
    delete hw_;
  }

  static std::vector<ProfiledRun> async_rows() {
    std::vector<ProfiledRun> out;
    for (const auto& run : *corpus_) {
      if (OverlapModel::row_eligible(run)) out.push_back(run);
    }
    return out;
  }

  // Out-of-sample check shared by the mean and sloped arms: fits on
  // every other eligible row of `rows` and returns the held-out mean
  // absolute error of the fitted and the Eq. 4 ratios against the
  // measured one. `train_rows` receives the training half's size.
  static std::pair<double, double> holdout_mae(
      const std::vector<ProfiledRun>& rows, std::size_t* train_rows) {
    std::vector<ProfiledRun> train;
    std::vector<ProfiledRun> holdout;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      (i % 2 == 0 ? train : holdout).push_back(rows[i]);
    }
    *train_rows = train.size();
    OverlapModel model(*hw_);
    model.fit(train);
    EXPECT_TRUE(model.is_fitted());

    double mae_fit = 0.0;
    double mae_analytic = 0.0;
    for (const auto& run : holdout) {
      const auto& p = run.report.pipeline;
      const double measured = OverlapModel::measured_ratio(run.report);
      const double analytic = OverlapModel::analytic_ratio(run.report);
      const OverlapExecutorShape shape{p.prefetch_depth, p.sampler_workers};
      const double fitted =
          model.predict_ratio(run.config, run.stats, shape, analytic);
      mae_fit += std::abs(fitted - measured);
      mae_analytic += std::abs(analytic - measured);
    }
    const auto n = static_cast<double>(std::max<std::size_t>(
        holdout.size(), 1));
    return {mae_fit / n, mae_analytic / n};
  }

  static std::vector<ProfiledRun> sync_rows() {
    std::vector<ProfiledRun> out;
    for (const auto& run : *corpus_) {
      if (run.report.pipeline.executor == "sync") out.push_back(run);
    }
    return out;
  }

  static hw::HardwareProfile* hw_;
  static graph::Dataset* dataset_;
  static DatasetStats* stats_;
  static std::vector<ProfiledRun>* corpus_;
};

hw::HardwareProfile* OverlapModelFixture::hw_ = nullptr;
graph::Dataset* OverlapModelFixture::dataset_ = nullptr;
DatasetStats* OverlapModelFixture::stats_ = nullptr;
std::vector<ProfiledRun>* OverlapModelFixture::corpus_ = nullptr;

TEST_F(OverlapModelFixture, CollectorMarksAsyncRowsDeterministically) {
  ASSERT_EQ(corpus_->size(), 24u);
  std::size_t async_count = 0;
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    const auto& p = (*corpus_)[i].report.pipeline;
    if (i % 2 == 0) {
      EXPECT_EQ(p.executor, "async") << "row " << i;
      EXPECT_GE(p.prefetch_depth, 1u);
      ++async_count;
    } else {
      EXPECT_EQ(p.executor, "sync") << "row " << i;
    }
  }
  EXPECT_EQ(async_count, 12u);
}

TEST_F(OverlapModelFixture, SyncRowsAreNeverEligible) {
  for (const auto& run : sync_rows()) {
    EXPECT_FALSE(OverlapModel::row_eligible(run));
  }
  // A doctored async row with empty measured walls is rejected too —
  // the divide-by-zero guard for the fit target.
  auto rows = async_rows();
  ASSERT_FALSE(rows.empty());
  ProfiledRun broken = rows.front();
  broken.report.pipeline.measured_wall_s = 0.0;
  EXPECT_FALSE(OverlapModel::row_eligible(broken));
  broken = rows.front();
  broken.report.pipeline.sample_wall_s = 0.0;
  broken.report.pipeline.transfer_wall_s = 0.0;
  broken.report.pipeline.compute_wall_s = 0.0;
  EXPECT_FALSE(OverlapModel::row_eligible(broken));
}

TEST_F(OverlapModelFixture, RatioHelpersGuardEmptyRows) {
  runtime::TrainReport empty;
  EXPECT_DOUBLE_EQ(OverlapModel::measured_ratio(empty), 1.0);
  EXPECT_DOUBLE_EQ(OverlapModel::analytic_ratio(empty), 1.0);
}

TEST_F(OverlapModelFixture, UnfittedFallsBackToAnalytic) {
  OverlapModel model(*hw_);
  model.fit(sync_rows());  // >= 8 rows, but none eligible
  EXPECT_FALSE(model.is_fitted());
  EXPECT_EQ(model.training_rows(), 0u);
  const auto config = runtime::template_pagraph_full();
  const OverlapExecutorShape shape{4, 2};
  EXPECT_DOUBLE_EQ(model.predict_ratio(config, *stats_, shape, 0.7), 0.7);
  // The fallback is clamped like every other prediction.
  EXPECT_DOUBLE_EQ(model.predict_ratio(config, *stats_, shape, 9.0), 1.5);
}

TEST_F(OverlapModelFixture, FitPredictIsDeterministic) {
  OverlapModel a(*hw_);
  OverlapModel b(*hw_);
  a.fit(*corpus_);
  b.fit(*corpus_);
  ASSERT_TRUE(a.is_fitted());
  ASSERT_TRUE(b.is_fitted());
  EXPECT_EQ(a.training_rows(), b.training_rows());
  Rng rng(5);
  for (int i = 0; i < 16; ++i) {
    const auto config = random_config(rng);
    for (const std::size_t depth : {1u, 4u, 8u}) {
      const OverlapExecutorShape shape{depth, 2};
      const double ra = a.predict_ratio(config, *stats_, shape, 0.8);
      const double rb = b.predict_ratio(config, *stats_, shape, 0.8);
      EXPECT_EQ(ra, rb);  // bit-identical across fits (and thread counts:
                          // the ridge solve and predict are serial)
      EXPECT_GE(ra, 0.25);
      EXPECT_LE(ra, 1.5);
    }
  }
}

TEST_F(OverlapModelFixture, FewRowsFitTheMeanRatioOnly) {
  // Below min_slope_rows() the fit is the mean measured log-ratio, the
  // same for every config and shape: no row's scheduling noise can favor
  // one config over another.
  const auto rows = async_rows();
  ASSERT_GE(rows.size(), OverlapModel::min_rows());
  ASSERT_LT(rows.size(), OverlapModel::min_slope_rows());
  OverlapModel model(*hw_);
  model.fit(rows);
  ASSERT_TRUE(model.is_fitted());
  double mean_log = 0.0;
  for (const auto& run : rows) {
    mean_log += std::log(OverlapModel::measured_ratio(run.report));
  }
  const double expected =
      std::exp(mean_log / static_cast<double>(rows.size()));
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    const auto config = random_config(rng);
    for (const std::size_t depth : {1u, 8u}) {
      EXPECT_DOUBLE_EQ(
          model.predict_ratio(config, *stats_, {depth, 2}, 0.8),
          std::clamp(expected, 0.25, 1.5));
    }
  }

  // With spare rows the slopes are fitted: the prediction moves with
  // the config and executor shape.
  std::vector<ProfiledRun> doubled = rows;
  doubled.insert(doubled.end(), rows.begin(), rows.end());
  ASSERT_GE(doubled.size(), OverlapModel::min_slope_rows());
  OverlapModel sloped(*hw_);
  sloped.fit(doubled);
  ASSERT_TRUE(sloped.is_fitted());
  std::set<double> seen;
  for (int i = 0; i < 8; ++i) {
    const auto config = random_config(rng);
    for (const std::size_t depth : {1u, 8u}) {
      seen.insert(sloped.predict_ratio(config, *stats_, {depth, 2}, 0.8));
    }
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST_F(OverlapModelFixture, DegenerateShapeIsFlooredNotUb) {
  // A sync report's defaults are depth 0 / workers 0; forwarding them
  // into a prediction must floor to 1, never hit clamp(lo > hi).
  OverlapModel model(*hw_);
  model.fit(*corpus_);
  ASSERT_TRUE(model.is_fitted());
  const auto config = runtime::template_pyg();
  for (const OverlapExecutorShape shape :
       {OverlapExecutorShape{0, 0}, OverlapExecutorShape{0, 8},
        OverlapExecutorShape{2, 0}}) {
    const double r = model.predict_ratio(config, *stats_, shape, 0.9);
    EXPECT_GE(r, 0.25);
    EXPECT_LE(r, 1.5);
  }
}

TEST_F(OverlapModelFixture, FittedTracksMeasuredAtLeastAsWellAsAnalytic) {
  // Out-of-sample check: fit on every other async row, evaluate on the
  // held-out half. The fitted correction must not lose to the bare
  // Eq. 4 max() in aggregate — on this host the analytic ratio
  // systematically over-promises overlap the executor cannot deliver.
  const auto rows = async_rows();
  ASSERT_GE(rows.size(), 8u);
  std::size_t train_rows = 0;
  const auto [mae_fit, mae_analytic] = holdout_mae(rows, &train_rows);
  // "No worse" with a small tolerance for wall-clock measurement noise;
  // in practice the fitted arm wins by a wide margin here because the
  // measured ratio sits near 1 (little real overlap on a small host)
  // while Eq. 4 predicts a strong one. Six training rows are below
  // min_slope_rows(), so the fitted arm is their mean measured ratio.
  EXPECT_LT(train_rows, OverlapModel::min_slope_rows());
  EXPECT_LE(mae_fit, mae_analytic + 0.02);
}

TEST_F(OverlapModelFixture, FittedSlopesTrackMeasuredAtLeastAsWellAsAnalytic) {
  // The same out-of-sample bar for the ridge slopes, which a corpus of
  // min_slope_rows() or more async rows fits: an all-async sweep whose
  // training half holds exactly that many rows, the fewest a slope fit
  // ever sees.
  CollectorOptions opts;
  opts.configs_per_dataset =
      2 * static_cast<int>(OverlapModel::min_slope_rows());
  opts.epochs = 1;
  opts.seed = 78;
  opts.async_every = 1;
  std::vector<ProfiledRun> rows;
  for (auto& run : collect_profiles(*dataset_, *hw_, opts)) {
    if (OverlapModel::row_eligible(run)) rows.push_back(std::move(run));
  }
  std::size_t train_rows = 0;
  const auto [mae_fit, mae_analytic] = holdout_mae(rows, &train_rows);
  ASSERT_GE(train_rows, OverlapModel::min_slope_rows());
  EXPECT_LE(mae_fit, mae_analytic + 0.02);
}

TEST_F(OverlapModelFixture, PerfEstimatorConsultsTheFittedModel) {
  PerfEstimator est(*hw_);
  est.fit(*corpus_);
  ASSERT_TRUE(est.overlap_model().is_fitted());

  runtime::TrainConfig pipelined = runtime::template_pagraph_full();
  pipelined.pipeline_overlap = true;
  const auto p = est.predict(pipelined, *stats_);
  EXPECT_TRUE(p.overlap_fitted);
  EXPECT_GE(p.overlap_ratio, 0.25);
  EXPECT_LE(p.overlap_ratio, 1.5);
  EXPECT_GT(p.overlap_ratio_analytic, 0.0);
  EXPECT_LE(p.overlap_ratio_analytic, 1.0);

  // Sync configs have no overlap to correct: both ratios pin to 1.
  runtime::TrainConfig sync_config = pipelined;
  sync_config.pipeline_overlap = false;
  const auto ps = est.predict(sync_config, *stats_);
  EXPECT_FALSE(ps.overlap_fitted);
  EXPECT_DOUBLE_EQ(ps.overlap_ratio, 1.0);
  EXPECT_DOUBLE_EQ(ps.overlap_ratio_analytic, 1.0);

  // The wall helper scales the serial stage seconds by the ratio.
  const OverlapExecutorShape shape{4, 4};
  EXPECT_DOUBLE_EQ(
      est.predict_pipelined_wall_s(pipelined, *stats_, shape, 10.0),
      10.0 * est.predict_overlap_ratio(pipelined, *stats_, shape));
}

TEST_F(OverlapModelFixture, PerfEstimatorFallsBackOnSyncOnlyCorpus) {
  PerfEstimator est(*hw_);
  est.fit(sync_rows());
  EXPECT_FALSE(est.overlap_model().is_fitted());
  runtime::TrainConfig pipelined = runtime::template_pagraph_full();
  pipelined.pipeline_overlap = true;
  const auto p = est.predict(pipelined, *stats_);
  EXPECT_FALSE(p.overlap_fitted);
  // Graceful fallback: the consulted ratio IS the analytic Eq. 4 ratio.
  EXPECT_DOUBLE_EQ(p.overlap_ratio, p.overlap_ratio_analytic);
}

}  // namespace
}  // namespace gnav::estimator
