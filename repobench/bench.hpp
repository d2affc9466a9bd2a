// Shared declarations of the repo benchmark binary (see NOTES.md for why
// each workload exists and how the numbers are made steady).
//
// Three workloads, each a loop of timed units over inputs generated from
// the run's seed:
//   guideline  one unit = a full time-to-guideline on ogbn-arxiv;
//   train      one unit = one epoch (plus its evaluation) of the pinned
//              pyg config on ogbn-products;
//   serve      one unit = one job of a 2-tenant closed loop through
//              serve::JobScheduler on reddit.
// The traced run (--trace 1) replays all three through the layers' public
// calls with spans around each call and reports the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "estimator/dataset_stats.hpp"
#include "estimator/perf_estimator.hpp"
#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "navigator/navigator.hpp"
#include "runtime/backend.hpp"
#include "serve/job_scheduler.hpp"

namespace gnav::support {
class ThreadPool;
}

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace of the traced run (empty: not written).
  std::string trace_out;
  /// The one pool every workload runs on (nproc workers).
  gnav::support::ThreadPool* pool = nullptr;
  /// Compute backend every run is pinned to.
  std::string backend_id;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: unit accounting, output checks, the
/// reported metrics and free-form detail (JSON text values).
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> detail;

  /// Records a failed output check.
  void check(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit);
  void note(std::string key, std::string json_value);
};

// ---------------------------------------------------------------- stats

double median(std::vector<double> v);

/// The highest percentile with at least 10 samples beyond it: the 11th
/// largest sample, at percentile 100 * (n - 10) / n.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_latency(std::vector<double> v);

/// Peak resident set of this process since start or since the last
/// reset_peak_rss(), MiB (VmHWM).
double peak_rss_mb();
/// Resets the peak to the current resident set (/proc/self/clear_refs);
/// false where the kernel refuses.
bool reset_peak_rss();

std::string json_string(const std::string& s);
std::string json_number(double v);

/// Set-up is repeated at least kSetups times and for at least
/// kSetupSeconds, and reported as the median repetition, so that a short
/// set-up (guideline: about 0.15 s) is still sampled over seconds.
inline constexpr std::size_t kSetups = 5;
inline constexpr double kSetupSeconds = 2.0;

/// Median wall of the set-up repetitions of `fn`; the last call's
/// product stays in `keep`.
template <typename T, typename F>
double timed_setups(std::unique_ptr<T>& keep, F&& fn) {
  std::vector<double> walls;
  const auto start = Clock::now();
  while (walls.size() < kSetups || seconds_since(start) < kSetupSeconds) {
    keep.reset();
    const auto t0 = Clock::now();
    keep = fn();
    walls.push_back(seconds_since(t0));
  }
  return median(walls);
}

// ------------------------------------------------------------ guideline

struct GuidelineInputs {
  std::unique_ptr<gnav::graph::Dataset> dataset;  // held-out ogbn-arxiv
  gnav::hw::HardwareProfile hw;
  gnav::dse::RuntimeConstraints constraints;  // device-memory budget
};

/// Generates the held-out dataset from the seed and warms up with one
/// 1-epoch training run on it.
std::unique_ptr<GuidelineInputs> guideline_setup(const Options& opt);

struct GuidelineUnit {
  gnav::runtime::TrainConfig config;  // decided guideline
  std::string text;                   // its guideline text
  double predicted_memory_gb = 0.0;
  gnav::dse::ExplorationStats stats;
  std::size_t profile_runs = 0;
  /// Mean epoch loss and held-out accuracy of the profiling corpus's
  /// runs (the corpus does not depend on the held-out dataset).
  double corpus_loss = 0.0;
  double corpus_test_accuracy = 0.0;
  double collect_s = 0.0;
  double fit_s = 0.0;
  double explore_s = 0.0;  // traced units only
  double decide_s = 0.0;   // traced units only
  double predict_us = 0.0;  // traced units only
  double predict_probe_s = 0.0;  // traced units only: the predict loop
};

/// One time-to-guideline. Untraced units call GNNavigator's public
/// facade; traced units replace generate_guideline() with the
/// Explorer/DecisionMaker calls it makes, each in its own span.
GuidelineUnit guideline_unit(const GuidelineInputs& in, const Options& opt,
                             bool traced);

/// The guideline checks: the decided config validates and its predicted
/// memory meets the device-memory constraint.
void check_guideline(Outcome& out, const GuidelineUnit& u,
                     const GuidelineInputs& in, std::size_t index);

// ---------------------------------------------------------------- train

/// The pinned train config: the pyg template (node-wise [10,10],
/// B0=1024, SAGE 2x64, no cache).
gnav::runtime::TrainConfig train_config();

/// Run options of every train unit: 1 epoch with its evaluation, sync
/// executor, run seed 1.
gnav::runtime::RunOptions train_run_options(const Options& opt);

struct TrainInputs {
  std::unique_ptr<gnav::graph::Dataset> dataset;  // ogbn-products
  std::unique_ptr<gnav::runtime::RuntimeBackend> backend;
  gnav::runtime::RunOptions run;  // 1 epoch, sync executor, fixed seed
  gnav::runtime::TrainReport reference;  // the warm-up unit
};

std::unique_ptr<TrainInputs> train_setup(const Options& opt);

// ---------------------------------------------------------------- serve

inline constexpr std::size_t kTenants = 2;

struct ServeInputs {
  std::unique_ptr<gnav::graph::Dataset> dataset;  // reddit
  std::unique_ptr<gnav::runtime::RuntimeBackend> backend;
  gnav::estimator::DatasetStats stats;
  std::unique_ptr<gnav::estimator::PerfEstimator> estimator;
  std::size_t corpus_runs = 0;
  /// The four job kinds (no tenant set): 2pgraph (async), graphsaint
  /// (sync), a node-wise LRU-cache config (async), fastgcn (sync); hidden
  /// 16, B0=256, one epoch.
  std::vector<gnav::serve::JobRequest> kinds;
  /// Round 0's jobs run alone: seeds and reports.
  std::vector<std::uint64_t> solo_seeds;
  std::vector<gnav::runtime::TrainReport> solo;
};

/// The four job kinds in ServeInputs::kinds order.
std::vector<gnav::serve::JobRequest> serve_kinds(const Options& opt);

std::unique_ptr<ServeInputs> serve_setup(const Options& opt);

/// Round `round`'s jobs in submission order: position k runs kind
/// (k + round) mod 4 for tenant k mod 2, so every kind takes every queue
/// position over four rounds.
std::vector<gnav::serve::JobRequest> round_jobs(const ServeInputs& in,
                                                std::size_t round);

/// Scheduler options of round `round` (its own seed, explicit pool).
gnav::serve::SchedulerOptions serve_options(const Options& opt,
                                            std::size_t round);

/// RunOptions a scheduler lane gives job `req` run with `seed`.
gnav::runtime::RunOptions serve_run_options(const gnav::serve::JobRequest& req,
                                            std::uint64_t seed,
                                            const Options& opt);

/// Runs round `round` through a fresh JobScheduler and returns the
/// outcomes of its jobs that ended kDone. Counts every job in `out`,
/// records the others as failed and checks round 0 against the solo runs.
std::vector<gnav::serve::JobOutcome> serve_round(const ServeInputs& in,
                                                 const Options& opt,
                                                 std::size_t round,
                                                 Outcome& out);

// --------------------------------------------------------- pinned checks

// Each workload's unit on the datasets' default seed, compared with
// pinned loss and held-out accuracy (reference.cpp). A mismatch is a
// failed output check. The two runs return the held-out accuracy the
// workload reports as test_acc.
double pinned_train(const Options& opt, Outcome& out);
double pinned_serve(const Options& opt, Outcome& out);
void pinned_guideline(const GuidelineUnit& u, Outcome& out);

// ------------------------------------------------------------- workloads

Outcome run_guideline(const Options& opt);
Outcome run_train(const Options& opt);
Outcome run_serve(const Options& opt);
/// The traced run: per-layer metrics of all three workloads.
Outcome run_traced(const Options& opt);

}  // namespace repobench
