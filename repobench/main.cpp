// repobench — the repo benchmark binary. run.py builds and runs it:
//
//   repobench --workload guideline|train|serve --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--git-sha SHA]
//             [--source-digest HEX]
//
// Prints a detail line (run manifest, tail percentiles, decided
// guidelines) and then, as the last line, the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exits 1 when an output check failed, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "compute/backend.hpp"
#include "kernels/spmm.hpp"
#include "support/parallel.hpp"

namespace {

using namespace repobench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload guideline|train|serve --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--git-sha SHA] "
               "[--source-digest HEX]\n",
               argv0);
  return 2;
}

const char* executor_of(const std::string& workload, bool trace) {
  if (trace) return "all three workloads' executors (traced run)";
  if (workload == "guideline") {
    return "profiling runs: sync, every 4th async (collector default)";
  }
  if (workload == "train") return "sync";
  return "2pgraph, lru-nodewise: async (depth 2, 1 sampler worker); "
         "graphsaint, fastgcn: sync";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage(argv[0]);
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload != "guideline" && opt.workload != "train" &&
      opt.workload != "serve") {
    return usage(argv[0]);
  }
  if (!have_seed || !have_seconds || !have_trace || !(opt.seconds > 0.0)) {
    return usage(argv[0]);
  }

  // One pool of nproc workers carries every run's load.
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  gnav::support::ThreadPool pool(nproc);
  opt.pool = &pool;
  opt.backend_id = gnav::compute::BackendFactory::default_id();

  Outcome out;
  try {
    if (opt.trace) {
      out = run_traced(opt);
    } else if (opt.workload == "guideline") {
      out = run_guideline(opt);
    } else if (opt.workload == "train") {
      out = run_train(opt);
    } else {
      out = run_serve(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: %s\n", e.what());
    return 1;
  }

  std::string manifest = "{";
  manifest += "\"git_sha\": " + json_string(git_sha);
  manifest += ", \"source_digest\": " + json_string(source_digest);
  manifest += ", \"nproc\": " + std::to_string(nproc);
  manifest += ", \"spmm_isa\": " +
              json_string(gnav::kernels::active_spmm_isa());
  manifest += ", \"build_type\": " + json_string(REPOBENCH_BUILD_TYPE);
  manifest += ", \"pool_size\": " + std::to_string(pool.size());
  manifest += ", \"backend_id\": " + json_string(opt.backend_id);
  manifest += ", \"executor\": " +
              json_string(executor_of(opt.workload, opt.trace));
  manifest += ", \"workload\": " + json_string(opt.workload);
  manifest += ", \"seed\": " + std::to_string(opt.seed);
  manifest += ", \"seconds\": " + json_number(opt.seconds);
  manifest += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  manifest += "}";

  std::string detail = "{\"repobench_detail\": {\"manifest\": " + manifest;
  for (const auto& [key, value] : out.detail) {
    detail += ", " + json_string(key) + ": " + value;
  }
  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i ? ", " : "") + json_string(out.errors[i]);
  }
  detail += ", \"errors\": " + errors + "]}}";
  std::printf("%s\n", detail.c_str());

  const bool correct = out.errors.empty() && out.failed == 0;
  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(out.attempted);
  result += ", \"failed\": " + std::to_string(out.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    result += (i ? ", " : "") + json_string(m.name) +
              ": {\"value\": " + json_number(m.value) +
              ", \"unit\": " + json_string(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "repobench: check failed: %s\n", e.c_str());
  }
  return correct ? 0 : 1;
}
