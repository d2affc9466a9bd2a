// gnavigator_cli — command-line front end for the full workflow. The
// usage text below (kUsage) is its documentation: `--help` prints it
// with the compute backends registered at startup, and a bad command
// line prints it to stderr with exit status 2.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "compute/backend.hpp"
#include "estimator/corpus_io.hpp"
#include "obs/export.hpp"
#include "serve/job_scheduler.hpp"
#include "support/error.hpp"
#include "navigator/navigator.hpp"
#include "support/string_utils.hpp"

using namespace gnav;

namespace {

constexpr const char* kUsage = R"(usage: gnavigator_cli [--flag value]...

Runs Step 1 (input analysis), Step 2 (guideline generation — reusing a
cached profiling corpus when --corpus is given), trains the baseline
PyG configuration and the generated guideline, and prints both,
including the epoch executor's measured stage/backpressure profile.

  --dataset NAME        ogbn-arxiv | ogbn-products | reddit | reddit2
                        (default reddit2)
  --model NAME          gcn | sage | gat (default sage)
  --hw NAME             rtx4090 | a100 | m90 | constrained
                        (default rtx4090)
  --priority NAME       balance | ex-tm | ex-ma | ex-ta (default balance)
  --max-memory-gb GB    device memory constraint (default: the device's)
  --max-epoch-s S       epoch time constraint
  --min-accuracy A      accuracy constraint
  --epochs N            training epochs (default 4)
  --corpus FILE         load the profiling corpus instead of profiling
  --save-corpus FILE    save the freshly profiled corpus
  --pipeline MODE       epoch executor, sync | async (= GNAV_PIPELINE)
  --pipeline-depth N    async prefetch depth >= 1 (= GNAV_PIPELINE_DEPTH)
  --backend ID          compute backend for every run (= GNAV_BACKEND)
  --serve-jobs N        serve N jobs instead of training (see below)
  --serve-tenants N     concurrently active serve jobs (default 2)
  --trace-out FILE      write every span as Chrome trace-event JSON
  --metrics-out FILE    write the metrics registry as Prometheus text
  -h, --help            print this text and exit

--serve-jobs N switches Step 3 into multi-tenant serving: N jobs
alternating the guideline and the PyG baseline are priced with
predict_pipelined_wall_s, admitted, and drained through
serve::JobScheduler under fair-share scheduling with --serve-tenants
concurrently active jobs; per-job price/state and the aggregate
jobs/min are printed.

--trace-out and --metrics-out record the whole invocation and write
their files at exit (load the trace in Perfetto or chrome://tracing).
Either flag alone works.
)";

/// A malformed command line: main prints the usage and exits 2.
struct UsageError : Error {
  using Error::Error;
};

void print_usage(std::FILE* out) {
  std::fputs(kUsage, out);
  std::string ids;
  for (const std::string& id : compute::BackendFactory::registered_ids()) {
    ids += (ids.empty() ? "" : " | ") + id;
  }
  std::fprintf(out, "\nregistered compute backends: %s (default %s)\n",
               ids.c_str(), compute::BackendFactory::default_id().c_str());
}

/// Parses `--flag value` pairs. Returns nullopt for --help / -h.
std::optional<std::map<std::string, std::string>> parse_args(int argc,
                                                             char** argv) {
  static const std::set<std::string> kFlags = {
      "dataset",    "model",         "hw",             "priority",
      "epochs",     "max-memory-gb", "max-epoch-s",    "min-accuracy",
      "corpus",     "save-corpus",   "pipeline",       "pipeline-depth",
      "backend",    "serve-jobs",    "serve-tenants",  "trace-out",
      "metrics-out"};
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (!starts_with(arg, "--")) {
      throw UsageError("expected --flag, got '" + arg + "'");
    }
    const std::string key = arg.substr(2);
    if (!kFlags.contains(key)) throw UsageError("unknown flag " + arg);
    if (i + 1 >= argc) throw UsageError("flag " + arg + " needs a value");
    args[key] = argv[++i];
  }
  return args;
}

dse::ExploreTargets priority_by_name(const std::string& name) {
  if (name == "balance" || name == "bal") return dse::targets_balance();
  if (name == "ex-tm") return dse::targets_extreme_time_memory();
  if (name == "ex-ma") return dse::targets_extreme_memory_accuracy();
  if (name == "ex-ta") return dse::targets_extreme_time_accuracy();
  throw Error("unknown priority '" + name +
              "' (balance | ex-tm | ex-ma | ex-ta)");
}

void print_report(const char* tag, const runtime::TrainReport& r) {
  std::printf("%-12s T=%7.2f s   Mem=%6.2f GB   test-acc=%6.2f%%   "
              "hit=%5.1f%%\n",
              tag, r.epoch_time_s, r.peak_memory_gb,
              100.0 * r.test_accuracy, 100.0 * r.cache_hit_rate);
  const runtime::PipelineReport& p = r.pipeline;
  std::printf("  executor=%s workers=%zu depth=%zu | stage wall s/t/c = "
              "%.3f/%.3f/%.3f s | stalls full=%llu empty=%llu | "
              "queue occ=%.2f\n",
              p.executor.c_str(), p.sampler_workers, p.prefetch_depth,
              p.sample_wall_s, p.transfer_wall_s, p.compute_wall_s,
              static_cast<unsigned long long>(p.push_stalls),
              static_cast<unsigned long long>(p.pop_stalls),
              p.mean_queue_occupancy);
  // Speedup ratios divide by the measured walls; a run that never
  // recorded them (e.g. a corpus row replayed from CSV, or a zero-batch
  // epoch) must not print a fake 1.00x.
  if (p.measured_wall_s > 0.0 && p.measured_sequential_s() > 0.0) {
    std::printf("  overlap: measured %.2fx (efficiency %.0f%%) vs Eq.4 "
                "predicted %.2fx\n",
                p.measured_speedup(), 100.0 * p.overlap_efficiency(),
                p.predicted_speedup());
  } else {
    std::printf("  overlap: n/a (no measured stage walls for this run)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  try {
    const auto parsed = parse_args(argc, argv);
    if (!parsed) {
      print_usage(stdout);
      return 0;
    }
    args = *parsed;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    print_usage(stderr);
    return 2;
  }
  try {
    const obs::ExportScope telemetry(
        args.contains("trace-out") ? args.at("trace-out") : "",
        args.contains("metrics-out") ? args.at("metrics-out") : "");
    const std::string dataset_name =
        args.contains("dataset") ? args.at("dataset") : "reddit2";
    const std::string hw_name =
        args.contains("hw") ? args.at("hw") : "rtx4090";
    const std::string model_name =
        args.contains("model") ? args.at("model") : "sage";
    const std::string priority_name =
        args.contains("priority") ? args.at("priority") : "balance";
    const int epochs = args.contains("epochs")
                           ? static_cast<int>(parse_int(args.at("epochs")))
                           : 4;
    // Executor flags are forwarded through the environment — the
    // navigator's RunOptions default from GNAV_PIPELINE*.
    if (args.contains("pipeline")) {
      runtime::pipeline_mode_from_string(args.at("pipeline"));  // validate
      ::setenv("GNAV_PIPELINE", args.at("pipeline").c_str(), 1);
    }
    if (args.contains("pipeline-depth")) {
      GNAV_CHECK(parse_int(args.at("pipeline-depth")) >= 1,
                 "--pipeline-depth must be >= 1");
      ::setenv("GNAV_PIPELINE_DEPTH", args.at("pipeline-depth").c_str(), 1);
    }
    // --backend picks the compute backend for everything below
    // (profiling, exploration, training, serving): the factory default
    // is set before any run starts, equivalent to GNAV_BACKEND but
    // validated with the factory's error message up front.
    if (args.contains("backend")) {
      compute::BackendFactory::set_default_id(args.at("backend"));
    }

    dse::BaseSettings base;
    base.model = nn::model_kind_from_string(model_name);
    navigator::GNNavigator nav(graph::load_dataset(dataset_name),
                               hw::make_profile(hw_name), base);
    std::printf("input analysis: %s\n",
                nav.dataset_stats().profile.to_string().c_str());

    // Estimator preparation, optionally from / to a cached corpus.
    if (args.contains("corpus")) {
      std::printf("loading profiling corpus from %s...\n",
                  args.at("corpus").c_str());
      nav.prepare(estimator::load_corpus(args.at("corpus")));
    } else {
      std::printf("profiling other datasets (leave-one-out)...\n");
      nav.prepare_default(/*configs_per_dataset=*/12,
                          /*augmentation_graphs=*/1,
                          /*profiling_epochs=*/1);
      if (args.contains("save-corpus")) {
        const auto corpus = estimator::collect_lodo_corpus(
            graph::dataset_names(), dataset_name, 1, nav.hardware(), {});
        estimator::save_corpus(corpus, args.at("save-corpus"));
        std::printf("corpus saved to %s\n", args.at("save-corpus").c_str());
      }
    }

    dse::RuntimeConstraints constraints;
    constraints.max_memory_gb =
        args.contains("max-memory-gb")
            ? parse_double(args.at("max-memory-gb"))
            : nav.hardware().device.memory_gb;
    if (args.contains("max-epoch-s")) {
      constraints.max_epoch_time_s = parse_double(args.at("max-epoch-s"));
    }
    if (args.contains("min-accuracy")) {
      constraints.min_accuracy = parse_double(args.at("min-accuracy"));
    }

    const auto guideline =
        nav.generate_guideline(priority_by_name(priority_name), constraints);
    std::printf("\ngenerated guideline (%s):\n%s\n", priority_name.c_str(),
                guideline.text.c_str());
    std::printf("explored %zu candidates, pruned %zu subtrees\n",
                guideline.exploration_stats.leaves_evaluated,
                guideline.exploration_stats.subtrees_pruned);
    const estimator::OverlapModel& om = nav.estimator().overlap_model();
    if (om.is_fitted()) {
      std::printf("gray-box overlap: fitted on %zu async corpus rows — "
                  "guideline wall ratio %.2f (Eq.4 analytic %.2f)\n\n",
                  om.training_rows(), guideline.predicted.overlap_ratio,
                  guideline.predicted.overlap_ratio_analytic);
    } else {
      std::printf("gray-box overlap: analytic Eq.4 fallback (corpus has "
                  "no async-executor rows)\n\n");
    }

    if (args.contains("serve-jobs")) {
      const auto n_jobs =
          static_cast<std::size_t>(parse_int(args.at("serve-jobs")));
      const auto tenants =
          args.contains("serve-tenants")
              ? static_cast<std::size_t>(parse_int(args.at("serve-tenants")))
              : 2;
      GNAV_CHECK(n_jobs >= 1, "--serve-jobs must be >= 1");
      GNAV_CHECK(tenants >= 1, "--serve-tenants must be >= 1");

      runtime::TrainConfig pyg = runtime::template_by_name("pyg");
      pyg.model = base.model;
      pyg.num_layers = base.num_layers;
      pyg.dropout = base.dropout;
      pyg.learning_rate = base.learning_rate;
      pyg.validate();

      serve::SchedulerOptions options;
      options.max_active = tenants;
      serve::JobScheduler sched(nav.backend(), nav.estimator_mut(),
                                nav.dataset_stats(), options);
      for (std::size_t i = 0; i < n_jobs; ++i) {
        serve::JobRequest req;
        req.tenant = "tenant-" + std::to_string(i % tenants);
        req.epochs = epochs;
        if (i % 2 == 0) {
          req.config = guideline.config;
          req.pipeline.mode = runtime::PipelineMode::kAsync;
          req.pipeline.prefetch_depth = 2;
          req.pipeline.sampler_workers = 2;
        } else {
          req.config = pyg;
        }
        sched.submit(req);
      }
      const serve::DrainStats stats = sched.drain();
      std::printf("serving %zu job(s) across %zu tenant(s):\n", n_jobs,
                  tenants);
      for (std::size_t i = 0; i < sched.size(); ++i) {
        const serve::JobOutcome& job = sched.outcome(i);
        std::printf("  job %zu [%s] %-16s price=%.3fs (%s) -> %s "
                    "T=%.2fs acc=%.2f%%\n",
                    job.id, job.request.tenant.c_str(),
                    job.request.config.name.c_str(),
                    job.price.predicted_wall_s,
                    job.price.overlap_fitted ? "fitted" : "Eq.4",
                    serve::to_string(job.state).c_str(),
                    job.report.epoch_time_s, 100.0 * job.report.test_accuracy);
      }
      std::printf("drain: %zu started, %zu completed, %zu failed | "
                  "wall=%.2fs throughput=%.1f jobs/min\n",
                  stats.started, stats.completed, stats.failed, stats.wall_s,
                  stats.jobs_per_min());
      return 0;
    }

    print_report("pyg:", nav.reproduce("pyg", epochs));
    print_report("guideline:", nav.train(guideline.config, epochs));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
