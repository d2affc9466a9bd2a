// Untraced workloads: set-up, timed units, output checks and the
// end-to-end metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <map>
#include <fstream>
#include <set>
#include <sys/resource.h>

#include "bench.hpp"
#include "dse/decision_maker.hpp"
#include "dse/design_space.hpp"
#include "dse/explorer.hpp"
#include "estimator/profile_collector.hpp"
#include "obs/trace.hpp"
#include "runtime/templates.hpp"
#include "support/parallel.hpp"

namespace repobench {

using namespace gnav;

// ------------------------------------------------------------- helpers

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

void Outcome::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::note(std::string key, std::string json_value) {
  detail.emplace_back(std::move(key), std::move(json_value));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_latency(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Fewer than 11 samples leave no percentile with 10 beyond it; the
  // maximum is reported and its percentile says so (100).
  const std::size_t rank = n > 10 ? n - 11 : n - 1;
  t.value = v[rank];
  t.percentile = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                              static_cast<double>(n)
                        : 100.0;
  return t;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string tail_note(const Tail& t) {
  return "{\"value\": " + json_number(t.value) +
         ", \"percentile\": " + json_number(t.percentile) +
         ", \"samples\": " + std::to_string(t.samples) + "}";
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// The measuring loop of one run: unit walls, total timed wall, the
/// mean number of busy threads (process CPU seconds per wall second) and
/// the peak resident set of each unit (serve: of each round).
struct Units {
  std::vector<double> walls;
  std::vector<double> peaks_mb;
  bool peak_reset = reset_peak_rss();
  Clock::time_point start = Clock::now();
  double cpu_start_s = process_cpu_s();
  double timed_wall_s = 0.0;

  bool running(double seconds) const {
    return seconds_since(start) < seconds;
  }
  /// Ends a unit's (round's) peak resident set and starts the next.
  void unit_done() {
    peaks_mb.push_back(peak_rss_mb());
    reset_peak_rss();
  }
  void stop(Outcome& out) {
    timed_wall_s = seconds_since(start);
    out.note("busy_threads_mean",
             json_number((process_cpu_s() - cpu_start_s) / timed_wall_s));
  }

  void report(Outcome& out) const {
    out.metric("latency_p50_s", median(walls), "s");
    const Tail t = tail_latency(walls);
    out.metric("latency_tail_s", t.value, "s");
    out.note("latency_tail", tail_note(t));
    out.metric("throughput_per_min",
               timed_wall_s > 0.0
                   ? 60.0 * static_cast<double>(walls.size()) / timed_wall_s
                   : 0.0,
               "1/min");
    // The median unit's peak, not the run's maximum: which malloc arena
    // a short-lived stage thread lands in moves single peaks a lot.
    out.metric("peak_rss_mb", median(peaks_mb), "MiB");
    out.note("peak_rss_reset", peak_reset ? "true" : "false");
    out.note("peak_rss_max_unit_mb",
             json_number(*std::max_element(peaks_mb.begin(), peaks_mb.end())));
  }
};

runtime::RunOptions base_run_options(const Options& opt) {
  runtime::RunOptions ro;
  ro.epochs = 1;
  ro.pool = opt.pool;
  ro.backend_id = opt.backend_id;
  ro.pipeline.mode = runtime::PipelineMode::kSync;
  return ro;
}

/// The serve bit-identity contract: data-bearing TrainReport fields equal,
/// wall-clock fields exempt.
bool reports_match(const runtime::TrainReport& a,
                   const runtime::TrainReport& b) {
  return a.epoch_loss == b.epoch_loss && a.epoch_times_s == b.epoch_times_s &&
         a.epoch_train_accuracy == b.epoch_train_accuracy &&
         a.epoch_val_accuracy == b.epoch_val_accuracy &&
         a.val_accuracy == b.val_accuracy &&
         a.test_accuracy == b.test_accuracy &&
         a.peak_memory_gb == b.peak_memory_gb &&
         a.cache_hit_rate == b.cache_hit_rate &&
         a.avg_batch_nodes == b.avg_batch_nodes &&
         a.avg_batch_edges == b.avg_batch_edges &&
         a.per_batch_nodes == b.per_batch_nodes &&
         a.iterations_per_epoch == b.iterations_per_epoch &&
         a.pipeline.modeled_overlapped_s == b.pipeline.modeled_overlapped_s &&
         a.pipeline.modeled_sequential_s == b.pipeline.modeled_sequential_s;
}

}  // namespace

// ------------------------------------------------------------ guideline

std::unique_ptr<GuidelineInputs> guideline_setup(const Options& opt) {
  auto in = std::make_unique<GuidelineInputs>();
  in->dataset = std::make_unique<graph::Dataset>(
      graph::load_dataset("ogbn-arxiv", opt.seed));
  in->hw = hw::make_profile("rtx4090");
  in->constraints.max_memory_gb = in->hw.device.memory_gb;
  in->constraints.backend_id = opt.backend_id;
  // Warm-up: one short run on the held-out graph pages in the training
  // path the profiling runs take.
  const runtime::RuntimeBackend backend(*in->dataset, in->hw);
  runtime::RunOptions ro = base_run_options(opt);
  ro.seed = 1;
  backend.run(runtime::template_pyg(), ro);
  return in;
}

GuidelineUnit guideline_unit(const GuidelineInputs& in, const Options& opt,
                             bool traced) {
  GuidelineUnit u;
  navigator::GNNavigator nav(*in.dataset, in.hw, dse::BaseSettings{});

  // prepare_default(12, 1, 1) — its corpus and seed, with the pool made
  // explicit.
  estimator::CollectorOptions co;
  co.configs_per_dataset = 12;
  co.epochs = 1;
  co.seed = 99;
  co.pool = opt.pool;
  co.backend_id = opt.backend_id;
  std::vector<estimator::ProfiledRun> corpus;
  auto t0 = Clock::now();
  {
    GNAV_TRACE_SPAN("bench", "estimator.collect");
    corpus = estimator::collect_lodo_corpus(graph::dataset_names(),
                                            in.dataset->name, 1, in.hw, co);
  }
  u.collect_s = seconds_since(t0);
  u.profile_runs = corpus.size();
  for (const estimator::ProfiledRun& run : corpus) {
    u.corpus_loss += run.report.epoch_loss.back();
    u.corpus_test_accuracy += run.report.test_accuracy;
  }
  const auto runs = static_cast<double>(std::max<std::size_t>(
      corpus.size(), 1));
  u.corpus_loss /= runs;
  u.corpus_test_accuracy /= runs;
  t0 = Clock::now();
  {
    GNAV_TRACE_SPAN("bench", "estimator.fit");
    nav.prepare(corpus);
  }
  u.fit_s = seconds_since(t0);

  const dse::ExploreTargets targets = dse::targets_balance();
  if (!traced) {
    const navigator::Guideline g =
        nav.generate_guideline(targets, in.constraints);
    u.config = g.config;
    u.text = g.text;
    u.predicted_memory_gb = g.predicted.memory_gb;
    u.stats = g.exploration_stats;
    return u;
  }

  // generate_guideline()'s own calls, one span each.
  const dse::DesignSpace space = dse::DesignSpace::full(dse::BaseSettings{});
  const dse::Explorer explorer(space, nav.estimator(), nav.dataset_stats());
  dse::ExplorationResult result;
  t0 = Clock::now();
  {
    GNAV_TRACE_SPAN("bench", "dse.explore");
    result = explorer.explore(in.constraints, runtime::all_templates());
  }
  u.explore_s = seconds_since(t0);
  dse::Decision decision;
  t0 = Clock::now();
  {
    GNAV_TRACE_SPAN("bench", "dse.decide");
    decision = dse::DecisionMaker(targets).decide(result);
  }
  u.decide_s = seconds_since(t0);
  u.config = decision.chosen.config;
  u.config.name = "gnav-" + targets.name;
  u.text = u.config.to_config_map().to_guideline_text();
  u.predicted_memory_gb = decision.chosen.predicted.memory_gb;
  u.stats = result.stats;

  // One estimator query, timed over every feasible candidate serially.
  t0 = Clock::now();
  std::size_t queries = 0;
  {
    GNAV_TRACE_SPAN("bench", "estimator.predict");
    for (const dse::Candidate& c : result.feasible) {
      nav.estimator().predict(c.config, nav.dataset_stats(), opt.backend_id);
      ++queries;
    }
  }
  u.predict_probe_s = seconds_since(t0);
  u.predict_us = queries > 0 ? u.predict_probe_s * 1e6 /
                                   static_cast<double>(queries)
                             : 0.0;
  return u;
}

void check_guideline(Outcome& out, const GuidelineUnit& u,
                     const GuidelineInputs& in, std::size_t index) {
  const std::string tag = "guideline unit " + std::to_string(index);
  try {
    u.config.validate();
  } catch (const std::exception& e) {
    out.check(false, tag + ": decided config does not validate: " +
                         e.what());
  }
  out.check(u.predicted_memory_gb > 0.0 &&
                u.predicted_memory_gb <= in.constraints.max_memory_gb,
            tag + ": predicted memory " +
                std::to_string(u.predicted_memory_gb) +
                " GB breaks the device-memory constraint");
  out.check(u.profile_runs > 0, tag + ": empty profiling corpus");
}

Outcome run_guideline(const Options& opt) {
  Outcome out;
  std::unique_ptr<GuidelineInputs> in;
  const double setup_s =
      timed_setups(in, [&] { return guideline_setup(opt); });
  out.note("peak_rss_after_setup_mb", json_number(peak_rss_mb()));

  Units units;
  std::vector<std::string> texts;
  std::vector<double> collect_s, fit_s;
  double test_acc = 0.0;
  double loss = 0.0;
  do {
    ++out.attempted;
    const auto t0 = Clock::now();
    try {
      const GuidelineUnit u = guideline_unit(*in, opt, /*traced=*/false);
      units.walls.push_back(seconds_since(t0));
      check_guideline(out, u, *in, out.attempted - 1);
      // The corpus is deterministic: its loss and accuracy repeat in
      // every unit, and unit 0's match the pinned values.
      if (texts.empty()) {
        pinned_guideline(u, out);
      } else {
        out.check(u.corpus_loss == loss && u.corpus_test_accuracy == test_acc,
                  "guideline unit " + std::to_string(out.attempted - 1) +
                      ": profiling corpus loss/accuracy differ from unit 0");
      }
      loss = u.corpus_loss;
      test_acc = u.corpus_test_accuracy;
      texts.push_back(u.text);
      collect_s.push_back(u.collect_s);
      fit_s.push_back(u.fit_s);
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, std::string("guideline unit failed: ") + e.what());
    }
    units.unit_done();
  } while (units.running(opt.seconds));
  units.stop(out);

  units.report(out);
  out.metric("setup_s", setup_s, "s");
  // Held-out accuracy, averaged over the profiling corpus's runs.
  out.metric("test_acc", test_acc, "ratio");
  out.note("corpus_loss", json_number(loss));

  // The decided guideline depends on measured walls (the overlap model
  // is fitted on them), so every unit's decision is recorded.
  std::string list = "[";
  for (std::size_t i = 0; i < texts.size(); ++i) {
    list += (i ? ", " : "") + json_string(texts[i]);
  }
  out.note("decided_guidelines", list + "]");
  out.note("distinct_guidelines",
           std::to_string(std::set<std::string>(texts.begin(), texts.end())
                              .size()));
  out.note("collect_p50_s", json_number(median(collect_s)));
  out.note("fit_p50_s", json_number(median(fit_s)));
  return out;
}

// ---------------------------------------------------------------- train

runtime::TrainConfig train_config() {
  runtime::TrainConfig c = runtime::template_pyg();
  c.sampler = sampling::SamplerKind::kNodeWise;
  c.hop_list = {10, 10};
  c.batch_size = 1024;
  c.model = nn::ModelKind::kSage;
  c.hidden_dim = 64;
  c.num_layers = 2;
  c.cache_ratio = 0.0;
  c.cache_policy = cache::CachePolicy::kNone;
  c.validate();
  return c;
}

runtime::RunOptions train_run_options(const Options& opt) {
  runtime::RunOptions ro = base_run_options(opt);
  ro.seed = 1;  // pinned: every unit trains the same epoch
  ro.evaluate_every_epoch = true;
  return ro;
}

std::unique_ptr<TrainInputs> train_setup(const Options& opt) {
  auto in = std::make_unique<TrainInputs>();
  in->dataset = std::make_unique<graph::Dataset>(
      graph::load_dataset("ogbn-products", opt.seed));
  in->backend = std::make_unique<runtime::RuntimeBackend>(
      *in->dataset, hw::make_profile("rtx4090"));
  in->run = train_run_options(opt);
  in->reference = in->backend->run(train_config(), in->run);  // warm-up
  return in;
}

Outcome run_train(const Options& opt) {
  Outcome out;
  std::unique_ptr<TrainInputs> in;
  const double setup_s =
      timed_setups(in, [&] { return train_setup(opt); });
  out.note("peak_rss_after_setup_mb", json_number(peak_rss_mb()));
  const runtime::TrainConfig config = train_config();

  Units units;
  do {
    ++out.attempted;
    const auto t0 = Clock::now();
    try {
      const runtime::TrainReport r = in->backend->run(config, in->run);
      units.walls.push_back(seconds_since(t0));
      // Same seed, same epoch: loss and accuracies are bit-identical.
      out.check(r.epoch_loss == in->reference.epoch_loss &&
                    r.epoch_val_accuracy ==
                        in->reference.epoch_val_accuracy &&
                    r.test_accuracy == in->reference.test_accuracy,
                "train unit " + std::to_string(out.attempted - 1) +
                    ": loss/accuracy differ from the first epoch");
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, std::string("train unit failed: ") + e.what());
    }
    units.unit_done();
  } while (units.running(opt.seconds));
  units.stop(out);

  units.report(out);
  out.metric("setup_s", setup_s, "s");
  out.note("epoch_loss", json_number(in->reference.epoch_loss.at(0)));
  out.note("epoch_test_acc", json_number(in->reference.test_accuracy));
  out.note("iterations_per_epoch",
           std::to_string(in->reference.iterations_per_epoch));
  in.reset();
  out.metric("test_acc", pinned_train(opt, out), "ratio");
  return out;
}

// ---------------------------------------------------------------- serve

/// The four kinds of serve jobs: 2pgraph (async), graphsaint (sync), a
/// node-wise LRU-cache config (async), fastgcn (sync); hidden 16, B0=256,
/// one epoch.
std::vector<serve::JobRequest> serve_kinds(const Options& opt) {
  runtime::PipelineConfig async;
  async.mode = runtime::PipelineMode::kAsync;
  async.prefetch_depth = 2;
  async.sampler_workers = 1;
  runtime::PipelineConfig sync;
  sync.mode = runtime::PipelineMode::kSync;

  runtime::TrainConfig lru = runtime::template_pyg();
  lru.name = "lru-nodewise";
  lru.cache_ratio = 0.2;
  lru.cache_policy = cache::CachePolicy::kLru;

  // Async and sync kinds alternate, so the two jobs a round starts first
  // are always one of each.
  const std::vector<std::pair<runtime::TrainConfig, runtime::PipelineConfig>>
      kinds = {{runtime::template_2pgraph(), async},
               {runtime::template_graphsaint(), sync},
               {lru, async},
               {runtime::template_fastgcn(), sync}};
  std::vector<serve::JobRequest> jobs;
  for (const auto& [config, pipeline] : kinds) {
    serve::JobRequest req;
    req.kind = serve::JobKind::kTrain;
    req.config = config;
    req.config.hidden_dim = 16;
    req.config.batch_size = 256;
    req.config.validate();
    req.pipeline = pipeline;
    req.epochs = 1;
    req.backend_id = opt.backend_id;
    jobs.push_back(std::move(req));
  }
  return jobs;
}

std::vector<serve::JobRequest> round_jobs(const ServeInputs& in,
                                          std::size_t round) {
  std::vector<serve::JobRequest> jobs;
  for (std::size_t k = 0; k < in.kinds.size(); ++k) {
    serve::JobRequest req = in.kinds[(k + round) % in.kinds.size()];
    req.tenant = "tenant-" + std::to_string(k % kTenants);
    jobs.push_back(std::move(req));
  }
  return jobs;
}

serve::SchedulerOptions serve_options(const Options& opt, std::size_t round) {
  serve::SchedulerOptions so;
  so.max_active = 2;
  so.pool = opt.pool;
  so.seed = support::task_seed(opt.seed, round);
  return so;
}

runtime::RunOptions serve_run_options(const serve::JobRequest& req,
                                      std::uint64_t seed,
                                      const Options& opt) {
  // What JobScheduler::run_job gives a kTrain job.
  runtime::RunOptions ro;
  ro.epochs = req.epochs;
  ro.seed = seed;
  ro.evaluate_every_epoch = req.evaluate_every_epoch;
  ro.record_batch_sizes = true;
  ro.pool = opt.pool;
  ro.backend_id = req.backend_id;
  ro.pipeline = req.pipeline;
  return ro;
}

std::unique_ptr<ServeInputs> serve_setup(const Options& opt) {
  auto in = std::make_unique<ServeInputs>();
  in->dataset = std::make_unique<graph::Dataset>(
      graph::load_dataset("reddit", opt.seed));
  const hw::HardwareProfile hw = hw::make_profile("rtx4090");
  in->backend = std::make_unique<runtime::RuntimeBackend>(*in->dataset, hw);
  in->stats = estimator::compute_dataset_stats(*in->dataset);

  // Admission pricing needs a fitted estimator. It is fitted on solo
  // runs of the first rounds' jobs — the rows the scheduler's own
  // feedback corpus holds after those rounds — run two at a time like the
  // scheduler's two lanes. The async kinds' rows fit the overlap model.
  // Round 0's rows are also the references its scheduled reports must
  // match.
  in->kinds = serve_kinds(opt);
  constexpr std::size_t kCorpusRounds = 2;
  std::vector<estimator::ProfiledRun> corpus;
  for (std::size_t round = 0; round < kCorpusRounds; ++round) {
    const std::vector<serve::JobRequest> jobs = round_jobs(*in, round);
    const std::uint64_t round_seed = serve_options(opt, round).seed;
    for (std::size_t id = 0; id < jobs.size(); id += 2) {
      std::vector<std::future<runtime::TrainReport>> lanes;
      for (std::size_t k = id; k < std::min(id + 2, jobs.size()); ++k) {
        // The seed the scheduler derives for job k of the round.
        const std::uint64_t seed = support::task_seed(round_seed, k);
        if (round == 0) in->solo_seeds.push_back(seed);
        lanes.push_back(opt.pool->submit([&, k, seed] {
          return in->backend->run(jobs[k].config,
                                  serve_run_options(jobs[k], seed, opt));
        }));
      }
      for (std::size_t k = id; k < id + lanes.size(); ++k) {
        runtime::TrainReport r = lanes[k - id].get();
        if (round == 0) in->solo.push_back(r);
        corpus.push_back({in->stats, jobs[k].config, std::move(r)});
      }
    }
  }
  in->corpus_runs = corpus.size();
  in->estimator = std::make_unique<estimator::PerfEstimator>(hw);
  in->estimator->fit(corpus);
  return in;
}

std::vector<serve::JobOutcome> serve_round(const ServeInputs& in,
                                           const Options& opt,
                                           std::size_t round, Outcome& out) {
  serve::JobScheduler sched(*in.backend, *in.estimator, in.stats,
                            serve_options(opt, round));
  const std::vector<serve::JobRequest> jobs = round_jobs(in, round);
  std::vector<std::size_t> ids;
  for (const serve::JobRequest& req : jobs) ids.push_back(sched.submit(req));
  sched.drain();
  std::vector<serve::JobOutcome> done;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    serve::JobOutcome o = sched.outcome(ids[k]);
    ++out.attempted;
    if (o.state != serve::JobState::kDone) {
      ++out.failed;
      out.check(false, "serve round " + std::to_string(round) + " job " +
                           std::to_string(k) + " ended " +
                           serve::to_string(o.state) + ": " + o.error);
      continue;
    }
    if (round == 0) {
      out.check(o.seed == in.solo_seeds[k] &&
                    reports_match(o.report, in.solo[k]),
                "serve round 0 job " + std::to_string(k) +
                    " differs from its solo run");
    }
    done.push_back(std::move(o));
  }
  return done;
}

Outcome run_serve(const Options& opt) {
  Outcome out;
  std::unique_ptr<ServeInputs> in;
  const double setup_s =
      timed_setups(in, [&] { return serve_setup(opt); });
  out.note("peak_rss_after_setup_mb", json_number(peak_rss_mb()));

  Units units;
  std::size_t rounds = 0;
  std::map<std::string, std::vector<double>> kind_run_s;
  do {
    for (const serve::JobOutcome& o : serve_round(*in, opt, rounds++, out)) {
      units.walls.push_back(o.queue_wait_s + o.run_s);
      kind_run_s[o.request.config.name].push_back(o.run_s);
    }
    units.unit_done();
  } while (units.running(opt.seconds));
  units.stop(out);

  units.report(out);
  out.metric("setup_s", setup_s, "s");
  // The mean held-out accuracy of round 0's jobs (equal to their solo
  // runs, checked above).
  double acc = 0.0;
  for (const runtime::TrainReport& r : in->solo) acc += r.test_accuracy;
  out.note("round0_test_acc",
           json_number(acc / static_cast<double>(in->solo.size())));
  std::string kinds = "{";
  for (const auto& [name, runs] : kind_run_s) {
    kinds += (kinds.size() > 1 ? ", " : "") + json_string(name) + ": " +
             json_number(median(runs));
  }
  out.note("run_p50_s_by_kind", kinds + "}");
  out.note("rounds", std::to_string(rounds));
  out.note("jobs_per_round", std::to_string(in->kinds.size()));
  out.note("estimator_corpus_runs", std::to_string(in->corpus_runs));
  in.reset();
  out.metric("test_acc", pinned_serve(opt, out), "ratio");
  return out;
}

}  // namespace repobench
