// The traced run: per-layer metrics of all three workloads.
//
// Sampler, cache and compute run inside RuntimeBackend::run, where the
// program's own spans stop at the stage level. So the traced run replays
// each workload's batches through the layers' public calls —
// Sampler::sample -> DeviceCache::lookup_and_update -> tensor::gather_rows
// -> GnnModel::forward / loss / backward -> Optimizer::step — with a span
// around each call, and checks that the replay reproduces the program's
// losses bit for bit. It then times the dense GEMMs, dropout and SpMM at
// the batch shapes the replay recorded. The program's telemetry (spans,
// obs metrics, TrainReport::pipeline) is read from traced program units,
// and the ratio of traced to untraced unit medians is the tracing
// overhead. End-to-end metrics never come from this run.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <set>
#include <thread>
#include <type_traits>

#include "bench.hpp"
#include "cache/device_cache.hpp"
#include "compute/backend.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/batcher.hpp"
#include "sampling/sampler_factory.hpp"
#include "support/parallel.hpp"
#include "tensor/ops.hpp"

namespace repobench {

using namespace gnav;

namespace {

/// Tracing and metrics on for the scope's lifetime.
class Telemetry {
 public:
  Telemetry() {
    obs::set_tracing_enabled(true);
    obs::set_metrics_enabled(true);
  }
  ~Telemetry() {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
};

/// The program's obs metrics (histogram buckets left out) as a JSON
/// object; read after the traced program units of a workload.
std::string obs_metrics_json() {
  std::string json = "{";
  for (const obs::MetricSample& m :
       obs::MetricsRegistry::global().snapshot()) {
    if (m.name.find("_bucket") != std::string::npos) continue;
    json += (json.size() > 1 ? ", " : "") + json_string(m.name) + ": " +
            json_number(m.value);
  }
  return json + "}";
}

/// Runs `fn` inside a span named `name`, adding its wall to `acc`.
template <typename F>
auto timed(double& acc, const char* name, F&& fn) {
  const obs::ScopedSpan span("bench", name);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    fn();
    acc += seconds_since(t0);
  } else {
    auto r = fn();
    acc += seconds_since(t0);
    return r;
  }
}

/// Layer walls and counts of one replayed run (sums over its batches).
struct Replay {
  double sample_s = 0.0;
  double lookup_s = 0.0;
  double gather_s = 0.0;
  double forward_s = 0.0;
  double loss_s = 0.0;
  double backward_s = 0.0;
  double optim_s = 0.0;
  double eval_s = 0.0;
  double batches = 0.0;
  double batch_nodes = 0.0;  // summed |V_i|
  double batch_edges = 0.0;
  double lookups = 0.0;  // vertices looked up in the device cache
  double hits = 0.0;
  double evictions = 0.0;
  std::vector<double> epoch_loss;
  double test_accuracy = 0.0;
  /// First epoch's mini-batches: the shapes the kernel probe replays.
  std::vector<sampling::MiniBatch> kept;
};

/// Replays RuntimeBackend::run's data path for `config` on `ds` serially,
/// drawing every random stream exactly as the runtime does.
Replay replay_run(const graph::Dataset& ds, const runtime::TrainConfig& config,
                  const runtime::RunOptions& ro) {
  Replay out;
  const auto backend = compute::BackendFactory::create(ro.backend_id);
  const compute::BackendScope scope(backend);
  Rng rng(ro.seed);
  Rng eval_rng(ro.seed ^ 0xE7A1ULL);

  nn::ModelConfig mc;
  mc.kind = config.model;
  mc.in_dim = static_cast<std::size_t>(ds.feature_dim);
  mc.hidden_dim = config.hidden_dim;
  mc.out_dim = static_cast<std::size_t>(ds.num_classes);
  mc.num_layers = config.num_layers;
  mc.dropout = config.dropout;
  nn::GnnModel model(mc, rng);
  nn::Adam optimizer(model.parameters(), config.learning_rate);

  cache::DeviceCache device_cache(
      config.cache_policy,
      static_cast<std::size_t>(config.cache_ratio *
                               static_cast<double>(ds.num_nodes())),
      ds.graph);
  sampling::SamplerSettings ss;
  ss.kind = config.sampler;
  ss.hop_list = config.hop_list;
  ss.bias_rate = config.bias_rate;
  ss.saint_budget_multiplier = config.saint_budget_multiplier;
  ss.cluster_num_parts = static_cast<int>(std::max<std::size_t>(
      4, static_cast<std::size_t>(ds.num_nodes()) * 4 / config.batch_size));
  ss.cluster_max_per_batch = 8;
  const std::vector<char>* preference =
      config.bias_rate > 0.0 ? &device_cache.residency_bitmap() : nullptr;
  const auto sampler = sampling::make_sampler(
      ss, preference,
      preference != nullptr
          ? std::function<std::uint64_t()>(
                [&device_cache] { return device_cache.residency_version(); })
          : nullptr);
  sampling::SeedBatcher batcher(ds.train_nodes, config.batch_size);

  tensor::Tensor x_full(static_cast<std::size_t>(ds.num_nodes()),
                        static_cast<std::size_t>(ds.feature_dim));
  std::copy(ds.features.begin(), ds.features.end(), x_full.data());
  const auto eval_accuracy = [&](const std::vector<graph::NodeId>& nodes) {
    return timed(out.eval_s, "runtime.eval", [&] {
      const tensor::Tensor logits =
          model.forward(ds.graph, x_full, /*training=*/false, eval_rng);
      std::vector<int> labels(nodes.size());
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        labels[i] = ds.labels[static_cast<std::size_t>(nodes[i])];
      }
      return nn::accuracy(logits, nodes, labels);
    });
  };

  const std::size_t num_batches = batcher.batches_per_epoch();
  for (int epoch = 0; epoch < ro.epochs; ++epoch) {
    const std::uint64_t epoch_seed = support::task_seed(
        ro.seed ^ 0xB47C4E5EEDULL, static_cast<std::uint64_t>(epoch));
    const auto seed_batches = batcher.epoch_batches(rng);
    double epoch_loss = 0.0;
    for (std::size_t i = 0; i < seed_batches.size(); ++i) {
      sampling::MiniBatch mb = timed(out.sample_s, "sampling.sample", [&] {
        Rng batch_rng(support::task_seed(epoch_seed, i));
        return sampler->sample(ds.graph, seed_batches[i], batch_rng);
      });
      timed(out.lookup_s, "cache.lookup", [&] {
            return device_cache.lookup_and_update(
                mb.nodes, static_cast<std::int64_t>(
                              static_cast<std::uint64_t>(epoch) * num_batches +
                              i));
          });
      // Cached rows are verbatim copies of host rows, so a plain gather
      // yields the bytes the runtime's staging assembles.
      tensor::Tensor x = timed(out.gather_s, "tensor.gather", [&] {
        return tensor::gather_rows(x_full, mb.nodes);
      });
      std::vector<int> labels(mb.seed_local.size());
      for (std::size_t s = 0; s < mb.seed_local.size(); ++s) {
        labels[s] = ds.labels[static_cast<std::size_t>(
            mb.nodes[static_cast<std::size_t>(mb.seed_local[s])])];
      }
      const tensor::Tensor logits = timed(out.forward_s, "nn.forward", [&] {
        return model.forward(mb.subgraph, x, /*training=*/true, rng);
      });
      const nn::LossResult loss = timed(out.loss_s, "nn.loss", [&] {
        return nn::softmax_cross_entropy(logits, mb.seed_local, labels);
      });
      timed(out.backward_s, "nn.backward", [&] {
        optimizer.zero_grad();
        model.backward(loss.grad_logits);
      });
      timed(out.optim_s, "nn.optim", [&] { optimizer.step(); });

      epoch_loss += loss.loss;
      out.batches += 1.0;
      out.batch_nodes += static_cast<double>(mb.num_nodes());
      out.batch_edges += static_cast<double>(mb.num_edges());
      if (epoch == 0) out.kept.push_back(std::move(mb));
    }
    out.epoch_loss.push_back(epoch_loss /
                             static_cast<double>(seed_batches.size()));
    if (ro.evaluate_every_epoch || epoch + 1 == ro.epochs) {
      eval_accuracy(ds.val_nodes);
    }
  }
  out.test_accuracy = eval_accuracy(ds.test_nodes);
  const cache::CacheStats stats = device_cache.stats();
  out.lookups = static_cast<double>(stats.lookups);
  out.hits = static_cast<double>(stats.hits);
  out.evictions = static_cast<double>(stats.evictions);
  return out;
}

/// Walls of the dense GEMMs, dropout and SpMM one run's batches make,
/// replayed at the recorded shapes on random operands.
struct Kernels {
  double gemm_nn_s = 0.0;  // matmul:       [n x in] . [in x out]
  double gemm_tn_s = 0.0;  // matmul_at_b:  [n x in]^T . [n x out]
  double gemm_nt_s = 0.0;  // matmul_a_bt:  [n x out] . [in x out]^T
  double gemm_flops = 0.0;
  double dropout_s = 0.0;
  double spmm_s = 0.0;
  double spmm_bytes = 0.0;  // computed bytes moved
};

Kernels probe_kernels(const std::vector<sampling::MiniBatch>& batches,
                      const runtime::TrainConfig& config,
                      const graph::Dataset& ds, const std::string& backend_id,
                      std::uint64_t seed) {
  Kernels k;
  const auto backend = compute::BackendFactory::create(backend_id);
  const compute::BackendScope scope(backend);
  Rng rng(seed);
  // Per layer, the calls each layer kind makes forward and backward
  // (nn/layers.cpp): SAGE has a self and a neighbor weight and
  // aggregates its input; GCN has one weight and aggregates its output;
  // GAT's attention aggregation is not an SpMM.
  const bool sage = config.model == nn::ModelKind::kSage;
  const bool gcn = config.model == nn::ModelKind::kGcn;
  const int weights = sage ? 2 : 1;
  for (const sampling::MiniBatch& mb : batches) {
    const auto n = static_cast<std::size_t>(mb.num_nodes());
    const auto nnz = static_cast<double>(mb.num_edges());
    const std::vector<float> inv_deg = compute::inverse_degree_scales(
        mb.subgraph);
    const std::vector<float> norm = compute::gcn_norm_scales(mb.subgraph);
    for (std::size_t l = 0; l < config.num_layers; ++l) {
      const std::size_t in =
          l == 0 ? static_cast<std::size_t>(ds.feature_dim)
                 : config.hidden_dim;
      const std::size_t out = l + 1 == config.num_layers
                                  ? static_cast<std::size_t>(ds.num_classes)
                                  : config.hidden_dim;
      const tensor::Tensor x = tensor::Tensor::uniform(n, in, -1.f, 1.f, rng);
      const tensor::Tensor w =
          tensor::Tensor::uniform(in, out, -1.f, 1.f, rng);
      const tensor::Tensor g =
          tensor::Tensor::uniform(n, out, -1.f, 1.f, rng);
      for (int r = 0; r < weights; ++r) {
        timed(k.gemm_nn_s, "tensor.gemm_nn",
              [&] { return tensor::matmul(x, w); });
        timed(k.gemm_tn_s, "tensor.gemm_tn",
              [&] { return tensor::matmul_at_b(x, g); });
        timed(k.gemm_nt_s, "tensor.gemm_nt",
              [&] { return tensor::matmul_a_bt(g, w); });
        k.gemm_flops += 3.0 * 2.0 * static_cast<double>(n) *
                        static_cast<double>(in) * static_cast<double>(out);
      }
      if (sage || gcn) {
        // Forward and backward aggregation: SAGE over [n x in], GCN over
        // [n x out].
        const tensor::Tensor& a = sage ? x : g;
        const kernels::SpmmScales fwd =
            sage ? compute::mean_spmm_scales(inv_deg.data())
                 : compute::gcn_spmm_scales(norm.data());
        const kernels::SpmmScales bwd =
            sage ? compute::mean_transpose_spmm_scales(inv_deg.data())
                 : compute::gcn_spmm_scales(norm.data());
        for (const kernels::SpmmScales* sc : {&fwd, &bwd}) {
          tensor::Tensor y(a.rows(), a.cols());
          timed(k.spmm_s, "kernels.spmm",
                [&] { backend->spmm(mb.subgraph, a, y, *sc, nullptr); });
          const auto cols = static_cast<double>(a.cols());
          k.spmm_bytes += 4.0 * cols * (nnz + 2.0 * static_cast<double>(n)) +
                          sizeof(graph::NodeId) * nnz +
                          8.0 * static_cast<double>(n + 1);
        }
      }
      if (l + 1 < config.num_layers && config.dropout > 0.0f) {
        tensor::Tensor mask;
        timed(k.dropout_s, "tensor.dropout", [&] {
          return tensor::dropout(g, config.dropout, rng, &mask);
        });
      }
    }
  }
  return k;
}

/// Reports one workload's replayed layers under `p` ("train." / "serve.")
/// as per-unit values: `runs` replayed units are summed in `r` and `k`.
void report_layers(Outcome& out, const std::string& p, const Replay& r,
                   const Kernels& k, double runs) {
  const auto per = [&](double v) { return v / runs; };
  out.metric(p + "runtime.eval_s", per(r.eval_s), "s");
  out.metric(p + "sampling.sample_s", per(r.sample_s), "s");
  out.metric(p + "sampling.batch_nodes", r.batch_nodes / r.batches, "count");
  out.metric(p + "sampling.batch_edges", r.batch_edges / r.batches, "count");
  out.metric(p + "cache.lookup_s", per(r.lookup_s), "s");
  out.metric(p + "cache.lookups", per(r.lookups), "count");
  out.metric(p + "cache.hit_ratio", r.lookups > 0 ? r.hits / r.lookups : 0.0,
             "ratio");
  out.metric(p + "cache.evictions_per_batch", r.evictions / r.batches,
             "count");
  out.metric(p + "tensor.gather_s", per(r.gather_s), "s");
  out.metric(p + "nn.forward_s", per(r.forward_s), "s");
  out.metric(p + "nn.backward_s", per(r.backward_s), "s");
  out.metric(p + "nn.loss_s", per(r.loss_s), "s");
  out.metric(p + "nn.optim_s", per(r.optim_s), "s");
  out.metric(p + "tensor.gemm_nn_s", per(k.gemm_nn_s), "s");
  out.metric(p + "tensor.gemm_tn_s", per(k.gemm_tn_s), "s");
  out.metric(p + "tensor.gemm_nt_s", per(k.gemm_nt_s), "s");
  out.metric(p + "tensor.gemm_gflops",
             k.gemm_flops / (k.gemm_nn_s + k.gemm_tn_s + k.gemm_nt_s) / 1e9,
             "GFLOP/s");
  out.metric(p + "tensor.dropout_s", per(k.dropout_s), "s");
  out.metric(p + "kernels.spmm_s", per(k.spmm_s), "s");
  out.metric(p + "kernels.spmm_gbps", k.spmm_bytes / k.spmm_s / 1e9, "GB/s");
}

/// The executor's own stage walls and stalls, per unit, from the
/// TrainReport::pipeline of traced program units.
void report_pipeline(Outcome& out, const std::string& p,
                     const std::vector<runtime::PipelineReport>& pipes) {
  std::vector<double> sample, transfer, compute, pops, pushes, eff;
  for (const runtime::PipelineReport& r : pipes) {
    sample.push_back(r.sample_wall_s);
    transfer.push_back(r.transfer_wall_s);
    compute.push_back(r.compute_wall_s);
    pops.push_back(static_cast<double>(r.pop_stalls));
    pushes.push_back(static_cast<double>(r.push_stalls));
    eff.push_back(r.overlap_efficiency());
  }
  out.metric(p + "runtime.stage_sample_busy_s", median(sample), "s");
  out.metric(p + "runtime.stage_transfer_busy_s", median(transfer), "s");
  out.metric(p + "runtime.stage_compute_busy_s", median(compute), "s");
  out.metric(p + "runtime.pop_stalls", median(pops), "count");
  out.metric(p + "runtime.push_stalls", median(pushes), "count");
  out.metric(p + "runtime.overlap_efficiency", median(eff), "ratio");
}

void add(Replay& sum, const Replay& r) {
  sum.sample_s += r.sample_s;
  sum.lookup_s += r.lookup_s;
  sum.gather_s += r.gather_s;
  sum.forward_s += r.forward_s;
  sum.loss_s += r.loss_s;
  sum.backward_s += r.backward_s;
  sum.optim_s += r.optim_s;
  sum.eval_s += r.eval_s;
  sum.batches += r.batches;
  sum.batch_nodes += r.batch_nodes;
  sum.batch_edges += r.batch_edges;
  sum.lookups += r.lookups;
  sum.hits += r.hits;
  sum.evictions += r.evictions;
}

void add(Kernels& sum, const Kernels& k) {
  sum.gemm_nn_s += k.gemm_nn_s;
  sum.gemm_tn_s += k.gemm_tn_s;
  sum.gemm_nt_s += k.gemm_nt_s;
  sum.gemm_flops += k.gemm_flops;
  sum.dropout_s += k.dropout_s;
  sum.spmm_s += k.spmm_s;
  sum.spmm_bytes += k.spmm_bytes;
}

// ------------------------------------------------------------ guideline

void trace_guideline(const Options& opt, Outcome& out) {
  const auto in = guideline_setup(opt);
  auto t0 = Clock::now();
  const GuidelineUnit plain = guideline_unit(*in, opt, /*traced=*/false);
  const double plain_s = seconds_since(t0);
  GuidelineUnit u;
  double traced_s = 0.0;
  {
    const Telemetry on;
    const obs::ScopedSpan span("bench", "guideline.unit");
    t0 = Clock::now();
    u = guideline_unit(*in, opt, /*traced=*/true);
    traced_s = seconds_since(t0);
  }
  out.attempted += 2;
  check_guideline(out, plain, *in, 0);
  check_guideline(out, u, *in, 1);

  const std::string p = "guideline.";
  out.metric(p + "estimator.collect_s", u.collect_s, "s");
  out.metric(p + "estimator.profile_runs",
             static_cast<double>(u.profile_runs), "count");
  out.metric(p + "estimator.fit_s", u.fit_s, "s");
  out.metric(p + "estimator.predict_us", u.predict_us, "us");
  out.metric(p + "dse.explore_s", u.explore_s, "s");
  out.metric(p + "dse.decide_s", u.decide_s, "s");
  out.metric(p + "dse.leaves_evaluated",
             static_cast<double>(u.stats.leaves_evaluated), "count");
  out.metric(p + "dse.subtrees_pruned",
             static_cast<double>(u.stats.subtrees_pruned), "count");
  out.metric(p + "dse.leaves_per_s",
             static_cast<double>(u.stats.leaves_evaluated) / u.explore_s,
             "1/s");
  out.metric(p + "dse.distinct_guidelines",
             static_cast<double>(std::set<std::string>{plain.text, u.text}
                                     .size()),
             "count");
  // The predict probe is extra work, not tracing cost.
  out.metric(p + "obs.trace_overhead_ratio",
             (traced_s - u.predict_probe_s) / plain_s, "ratio");
  std::string decided = "[";
  decided += json_string(plain.text) + ", " + json_string(u.text) + "]";
  out.note("guideline_decided", decided);
}

// ---------------------------------------------------------------- train

void trace_train(const Options& opt, Outcome& out, double budget_s) {
  const auto in = train_setup(opt);
  const runtime::TrainConfig config = train_config();
  const auto units = [&](double seconds, std::vector<double>& walls,
                         std::vector<runtime::PipelineReport>& pipes) {
    const auto start = Clock::now();
    while (walls.size() < 3 || seconds_since(start) < seconds) {
      const auto t0 = Clock::now();
      const runtime::TrainReport r = in->backend->run(config, in->run);
      walls.push_back(seconds_since(t0));
      pipes.push_back(r.pipeline);
      ++out.attempted;
      out.check(r.epoch_loss == in->reference.epoch_loss,
                "traced-run train unit: loss differs from the first epoch");
    }
  };
  std::vector<double> plain, traced;
  std::vector<runtime::PipelineReport> plain_pipes, traced_pipes;
  units(budget_s / 3.0, plain, plain_pipes);
  {
    const Telemetry on;
    obs::MetricsRegistry::global().reset_values();
    units(budget_s / 3.0, traced, traced_pipes);
    out.note("train_obs_metrics", obs_metrics_json());
  }

  constexpr int kReplays = 3;
  Replay sum;
  Kernels ksum;
  {
    const Telemetry on;
    for (int i = 0; i < kReplays; ++i) {
      const Replay r = replay_run(*in->dataset, config, in->run);
      out.check(r.epoch_loss == in->reference.epoch_loss &&
                    r.test_accuracy == in->reference.test_accuracy,
                "train replay: loss/accuracy differ from the runtime's");
      add(sum, r);
      add(ksum, probe_kernels(r.kept, config, *in->dataset,
                              opt.backend_id, opt.seed + i));
    }
  }
  const std::string p = "train.";
  report_pipeline(out, p, traced_pipes);
  report_layers(out, p, sum, ksum, kReplays);
  out.metric(p + "obs.trace_overhead_ratio", median(traced) / median(plain),
             "ratio");

  // The untraced epoch's share no named layer explains: the replayed
  // layers on the compute thread, plus the time that thread waited for
  // prefetched batches (the executor's own sample-stage wall).
  std::vector<double> waits;
  for (const auto& pr : plain_pipes) waits.push_back(pr.sample_wall_s);
  const double named =
      (sum.lookup_s + sum.gather_s + sum.forward_s + sum.loss_s +
       sum.backward_s + sum.optim_s + sum.eval_s) /
          kReplays +
      median(waits);
  out.metric(p + "obs.unexplained_share", 1.0 - named / median(plain),
             "ratio");
}

// ---------------------------------------------------------------- serve

/// Polls the pool backlog while alive.
class PendingMonitor {
 public:
  explicit PendingMonitor(support::ThreadPool& pool)
      : thread_([this, &pool] {
          while (!stop_.load()) {
            peak_ = std::max(peak_, pool.pending());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~PendingMonitor() { stop(); }
  PendingMonitor(const PendingMonitor&) = delete;
  PendingMonitor& operator=(const PendingMonitor&) = delete;

  /// Stops polling; returns the deepest backlog seen.
  std::size_t stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::size_t peak_ = 0;  // written by thread_ only until joined
  std::thread thread_;
};

void trace_serve(const Options& opt, Outcome& out, double budget_s) {
  const auto in = serve_setup(opt);
  struct Jobs {
    std::vector<double> latency, wait, run;
    std::vector<runtime::PipelineReport> async_pipes;
    std::size_t device_peak = 0;
  };
  std::size_t round = 0;
  const auto rounds = [&](double seconds, Jobs& jobs) {
    const auto start = Clock::now();
    for (int done = 0; done < 3 || seconds_since(start) < seconds; ++done) {
      for (const serve::JobOutcome& o : serve_round(*in, opt, round++, out)) {
        jobs.latency.push_back(o.queue_wait_s + o.run_s);
        jobs.wait.push_back(o.queue_wait_s);
        jobs.run.push_back(o.run_s);
        if (o.request.pipeline.mode == runtime::PipelineMode::kAsync) {
          jobs.async_pipes.push_back(o.report.pipeline);
        }
        jobs.device_peak =
            std::max(jobs.device_peak, o.report.device_peak_bytes);
      }
    }
  };
  Jobs plain, traced;
  rounds(budget_s / 3.0, plain);
  std::size_t pending_max = 0;
  {
    const Telemetry on;
    obs::MetricsRegistry::global().reset_values();
    PendingMonitor monitor(*opt.pool);
    rounds(budget_s / 3.0, traced);
    pending_max = monitor.stop();
    out.note("serve_obs_metrics", obs_metrics_json());
  }

  // Admission pricing and the estimator query behind it.
  constexpr int kPriceReps = 50;
  double price_s = 0.0;
  double predict_s = 0.0;
  std::size_t prices = 0;
  {
    const Telemetry on;
    serve::JobScheduler sched(*in->backend, *in->estimator, in->stats,
                              serve_options(opt, 0));
    for (int rep = 0; rep < kPriceReps; ++rep) {
      for (const serve::JobRequest& req : in->kinds) {
        timed(price_s, "serve.price", [&] { return sched.price(req); });
        timed(predict_s, "estimator.predict", [&] {
          return in->estimator->predict(req.config, in->stats,
                                        req.backend_id);
        });
        ++prices;
      }
    }
  }

  // Each round-0 job replayed alone; per-job means.
  Replay sum;
  Kernels ksum;
  {
    const Telemetry on;
    const std::vector<serve::JobRequest> first = round_jobs(*in, 0);
    for (std::size_t k = 0; k < first.size(); ++k) {
      const serve::JobRequest& req = first[k];
      const Replay r = replay_run(
          *in->dataset, req.config,
          serve_run_options(req, in->solo_seeds[k], opt));
      out.check(r.epoch_loss == in->solo[k].epoch_loss &&
                    r.test_accuracy == in->solo[k].test_accuracy,
                "serve replay of job " + std::to_string(k) +
                    ": loss/accuracy differ from the runtime's");
      add(sum, r);
      add(ksum, probe_kernels(r.kept, req.config, *in->dataset,
                              opt.backend_id, opt.seed + k));
    }
  }
  const std::string p = "serve.";
  report_pipeline(out, p, traced.async_pipes);
  report_layers(out, p, sum, ksum,
                static_cast<double>(in->kinds.size()));
  out.metric(p + "obs.trace_overhead_ratio",
             median(traced.latency) / median(plain.latency), "ratio");
  out.metric(p + "serve.price_s", price_s / static_cast<double>(prices), "s");
  out.metric(p + "estimator.predict_us",
             predict_s * 1e6 / static_cast<double>(prices), "us");
  out.metric(p + "serve.queue_wait_s", median(traced.wait), "s");
  out.metric(p + "serve.run_s", median(traced.run), "s");
  out.metric(p + "support.pool_pending_max", static_cast<double>(pending_max),
             "count");
  out.metric(p + "compute.device_peak_bytes",
             static_cast<double>(traced.device_peak), "bytes");
}

}  // namespace

Outcome run_traced(const Options& opt) {
  Outcome out;
  obs::reset_trace();
  obs::set_trace_buffer_capacity(1 << 18);
  trace_guideline(opt, out);
  trace_train(opt, out, opt.seconds);
  trace_serve(opt, out, opt.seconds);

  out.note("trace_spans", std::to_string(obs::trace_recorded_spans()));
  out.note("trace_dropped_spans", std::to_string(obs::trace_dropped_spans()));
  out.check(obs::trace_dropped_spans() == 0, "trace buffer dropped spans");
  if (!opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out);
    obs::write_chrome_trace(f);
    out.check(static_cast<bool>(f), "could not write " + opt.trace_out);
  }
  return out;
}

}  // namespace repobench
