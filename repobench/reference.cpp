// Output checks against pinned values.
//
// The in-run checks compare units with each other (train epochs with the
// warm-up epoch, serve's round 0 with solo runs), so a change that makes
// every unit wrong in the same way — a wrong GEMM, say — passes them.
// These checks run each workload's unit once on a pinned input (the
// datasets at their default seed) and compare loss and held-out accuracy
// with values recorded from the program. The tolerances admit a change
// of floating-point summation order (measured in NOTES.md) and are far
// narrower than the effect of a wrong result. The reported `test_acc` is
// the accuracy of this pinned run, so it does not vary with --seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "bench.hpp"
#include "runtime/templates.hpp"

namespace repobench {

using namespace gnav;

namespace {

struct Pinned {
  const char* what;
  double loss;
  double test_acc;
};

/// Relative tolerance on a loss, absolute on an accuracy. Reversing the
/// summation order of all three dense GEMMs moved the pinned losses by
/// at most 5.3e-5 (relative) and the accuracies by at most 8e-5; dropping
/// the last term of tensor::matmul's inner product moved the losses by
/// 1.3e-3 to 2.6e-2 and train's accuracy by 0.02.
constexpr double kLossTolerance = 1e-3;
constexpr double kAccuracyTolerance = 0.005;

// Recorded from the program with graph::load_dataset's default seed:
// epoch loss and held-out accuracy (guideline: means over the corpus).
constexpr Pinned kTrain = {"train", 2.43847650, 0.660625};
constexpr Pinned kServe[] = {{"serve 2pgraph", 1.80508178, 0.826666667},
                             {"serve graphsaint", 2.05819443, 0.770833333},
                             {"serve lru-nodewise", 1.66582674, 0.8575},
                             {"serve fastgcn", 1.90706908, 0.848333333}};
constexpr Pinned kGuideline = {"guideline corpus", 1.91978627, 0.663333333};

std::string pinned_note(double loss, double acc) {
  return "{\"loss\": " + json_number(loss) +
         ", \"test_acc\": " + json_number(acc) + "}";
}

void check_pinned(Outcome& out, const Pinned& p, double loss, double acc) {
  out.note(std::string("pinned ") + p.what, pinned_note(loss, acc));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s: loss %.9g / test_acc %.9g, pinned %.9g / %.9g", p.what,
                loss, acc, p.loss, p.test_acc);
  out.check(std::abs(loss - p.loss) <= kLossTolerance * std::abs(p.loss) &&
                std::abs(acc - p.test_acc) <= kAccuracyTolerance,
            buf);
}

}  // namespace

double pinned_train(const Options& opt, Outcome& out) {
  const graph::Dataset ds = graph::load_dataset("ogbn-products");
  const runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  const runtime::TrainReport r =
      backend.run(train_config(), train_run_options(opt));
  check_pinned(out, kTrain, r.epoch_loss.at(0), r.test_accuracy);
  return r.test_accuracy;
}

double pinned_serve(const Options& opt, Outcome& out) {
  const graph::Dataset ds = graph::load_dataset("reddit");
  const runtime::RuntimeBackend backend(ds, hw::make_profile("rtx4090"));
  const std::vector<serve::JobRequest> kinds = serve_kinds(opt);
  out.check(kinds.size() == std::size(kServe),
            "serve: one pinned row per job kind expected");
  double acc = 0.0;
  for (std::size_t k = 0; k < std::min(kinds.size(), std::size(kServe));
       ++k) {
    const runtime::TrainReport r = backend.run(
        kinds[k].config, serve_run_options(kinds[k], k + 1, opt));
    check_pinned(out, kServe[k], r.epoch_loss.at(0), r.test_accuracy);
    acc += r.test_accuracy;
  }
  return acc / static_cast<double>(kinds.size());
}

void pinned_guideline(const GuidelineUnit& u, Outcome& out) {
  check_pinned(out, kGuideline, u.corpus_loss, u.corpus_test_accuracy);
}

}  // namespace repobench
