// Campaign benchmark harness.
//
// Runs one workload against a graph file made beforehand by `recon graph gen`
// (perfbench/run.py makes it, outside this process) and prints one JSON
// object as its last stdout line. Every layer is timed from outside, around
// calls into the modules' public functions: graph::map_graph_binary_file,
// sim::make_problem, sim::World, core::Strategy::next_batch / save_state
// (through a delegating decorator), the AttackRunOptions::on_round hook,
// core::run_async_attack, sim::write_batch_line / write_traces_file, and the
// `recon serve` line protocol.
//
//   harness --workload W --seed S --seconds T --trace 0|1 --graph FILE
//           --work DIR --recon BIN
//   harness --selftest --graph FILE --work DIR
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/async_attack.h"
#include "core/attack.h"
#include "core/checkpoint_chain.h"
#include "core/pm_arest.h"
#include "graph/format.h"
#include "serve.h"
#include "sim/trace_io.h"
#include "sim/world.h"
#include "solver/fallback.h"
#include "solver/strategy_mip.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fs = std::filesystem;
using namespace recon;
using Clock = std::chrono::steady_clock;

namespace {

// Taken during static initialisation, before main: set-up time counts from
// (near) the process's start.
const Clock::time_point kProcessStart = Clock::now();

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Per-run end-to-end statistics over whole passes of a fixed campaign
/// cycle. Host load only ever adds time, and it arrives in bursts that slow
/// several consecutive campaigns, so each cycle position keeps its fastest
/// campaign and the run keeps its fastest pass: a burst moves neither unless
/// it covers the whole run.
class PassStats {
 public:
  explicit PassStats(std::size_t cycle)
      : fastest_(cycle, std::numeric_limits<double>::infinity()) {}

  void campaign(std::size_t position, double seconds) {
    fastest_[position] = std::min(fastest_[position], seconds);
  }
  /// A pass that resolved `requests` friend requests in `seconds`.
  void end_pass(double requests, double seconds) {
    best_rate_ = std::max(best_rate_, requests / seconds);
  }
  /// Mean over the cycle of each position's fastest campaign.
  double campaign_s() const {
    double s = 0.0;
    for (const double t : fastest_) s += t;
    return s / static_cast<double>(fastest_.size());
  }
  /// Requests resolved in the fastest pass over that pass's wall time.
  double requests_per_s() const { return best_rate_; }

 private:
  std::vector<double> fastest_;
  double best_rate_ = 0.0;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

unsigned pool_workers() {
  // The caller joins every parallel_for, so nproc - 1 workers keep at most
  // nproc threads busy.
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<unsigned>(std::max(1L, std::min(4L, n) - 1));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string graph;
  std::string work;
  std::string recon;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--graph") a.graph = v;
    else if (k == "--work") a.work = v;
    else if (k == "--recon") a.recon = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.graph.empty() || a.work.empty()) {
    throw std::invalid_argument("--graph and --work are required");
  }
  return a;
}

/// Every campaign input is fixed per workload: the graph (run.py generates
/// it with seed 1), the target set, and a cycle of world seeds (with their
/// fault and delay streams). --seed rotates the cycle, so each run repeats
/// the same campaigns in a seed-dependent order and `benefit`, the mean over
/// the cycle, repeats exactly. Seeding the worlds from --seed instead makes
/// the benefit of a short cycle swing by 10-15% from run to run.
constexpr std::uint64_t kProblemSeed = 1;
std::uint64_t world_seed(std::size_t i) { return util::derive_seed(kProblemSeed, 100 + i); }

/// The cycle position a run's n-th campaign takes.
std::size_t cycle_index(std::uint64_t seed, std::uint64_t n, std::size_t cycle) {
  return static_cast<std::size_t>((seed + n) % cycle);
}

sim::ProblemOptions problem_options() {
  // `recon attack` / `recon serve` defaults: 50 BFS-ball targets, q0 = 0.3,
  // mutual boost 0.1.
  sim::ProblemOptions o;
  o.num_targets = 50;
  o.target_mode = sim::TargetMode::kBfsBall;
  o.base_acceptance = 0.3;
  o.mutual_boost = 0.1;
  o.seed = kProblemSeed;
  return o;
}

// ---------------------------------------------------------------- layers --

/// Per-campaign layer clocks filled by TimedStrategy and the on_round hook.
struct LayerClock {
  double select_s = 0.0;
  double observe_s = 0.0;
  double checkpoint_s = 0.0;
  double save_state_s = 0.0;
  double trace_write_s = 0.0;
  double checkpoint_bytes = 0.0;  ///< summed over published generations
  std::uint64_t saves = 0;
  std::vector<double> batch_ms;
  Clock::time_point select_end;
  Clock::time_point round_end;
  bool after_round = false;
};

/// Delegating decorator: times next_batch and save_state, and the gaps
/// around the runner's on_round hook.
class TimedStrategy : public core::Strategy {
 public:
  TimedStrategy(core::Strategy& inner, LayerClock& lc,
                std::function<void()> between_rounds)
      : inner_(inner), lc_(lc), between_rounds_(std::move(between_rounds)) {}

  std::string name() const override { return inner_.name(); }
  void begin(const sim::Problem& p, double budget) override { inner_.begin(p, budget); }
  std::vector<graph::NodeId> next_batch(const sim::Observation& obs,
                                        double remaining) override {
    if (lc_.after_round) {
      lc_.checkpoint_s += std::chrono::duration<double>(Clock::now() - lc_.round_end).count();
      lc_.after_round = false;
      if (between_rounds_) between_rounds_();
    }
    const auto t0 = Clock::now();
    auto batch = inner_.next_batch(obs, remaining);
    lc_.select_end = Clock::now();
    const double s = std::chrono::duration<double>(lc_.select_end - t0).count();
    lc_.select_s += s;
    lc_.batch_ms.push_back(s * 1e3);
    return batch;
  }
  std::string save_state() const override {
    const auto t0 = Clock::now();
    std::string blob = inner_.save_state();
    lc_.save_state_s += since(t0);
    ++lc_.saves;
    return blob;
  }
  void restore_state(const std::string& blob) override { inner_.restore_state(blob); }

 private:
  core::Strategy& inner_;
  LayerClock& lc_;
  std::function<void()> between_rounds_;
};

/// Per-layer accumulators over the traced campaigns of a run.
struct Layers {
  std::map<std::string, double> fixed;             ///< one value per run
  std::map<std::string, std::vector<double>> per;  ///< one value per campaign
  std::vector<double> core_batch_ms, solver_batch_ms;
  std::vector<double> plain_s, traced_s;           ///< for the overhead

  void add(const std::string& k, double v) { per[k].push_back(v); }
};

void add_planner_counts(Layers& L, const core::ExecutionPlanner* planner) {
  double n[core::kNumPlanStrategies] = {0, 0, 0, 0, 0};
  if (planner != nullptr) {
    for (const auto& d : planner->decision_log()) n[static_cast<int>(d.strategy)] += 1;
  }
  L.add("core.planner.cached", n[0]);
  L.add("core.planner.uncached", n[1]);
  L.add("core.planner.tree", n[2]);
  L.add("core.planner.saa_greedy", n[3]);
  L.add("core.planner.saa_exact", n[4]);
}

const core::ExecutionPlanner* planner_of(const core::Strategy& s) {
  if (const auto* p = dynamic_cast<const core::PmArest*>(&s)) return &p->planner();
  if (const auto* p = dynamic_cast<const solver::FallbackStrategy*>(&s)) return &p->planner();
  if (const auto* p = dynamic_cast<const solver::MipBatchStrategy*>(&s)) return &p->planner();
  return nullptr;
}

// ------------------------------------------------------------- campaigns --

/// One synchronous campaign spec; `strategy` is pm | mip | fallback.
struct Spec {
  std::string strategy = "pm";
  int k = 15;
  double budget = 300.0;
  bool retries = false;
  std::string planner = "off";
  std::size_t scenarios = 300;
  std::uint64_t seed = 0;           ///< world seed base, as `SUBMIT seed=`
  std::uint64_t ckpt_every = 0;     ///< 0 = no checkpoints

  std::string submit_line() const {
    std::ostringstream os;
    os << "SUBMIT problem=default strategy=" << strategy << " k=" << k
       << " budget=" << budget << " seed=" << seed
       << " retries=" << (retries ? 1 : 0) << " scenarios=" << scenarios
       << " planner=" << planner << " ckpt-every=" << ckpt_every;
    return os.str();
  }
  bool solver() const { return strategy != "pm"; }
  std::uint32_t attempt_cap() const {
    if (!retries) return 1;
    return static_cast<std::uint32_t>(std::max(1.0, std::ceil(budget / k)));
  }
};

core::PlannerOptions planner_options(const std::string& spec) {
  core::PlannerOptions po;
  if (spec == "auto") {
    po.mode = core::PlannerMode::kAuto;
  } else if (spec.rfind("fixed:", 0) == 0) {
    po.mode = core::PlannerMode::kFixed;
    if (!core::parse_plan_strategy(spec.substr(6), &po.fixed_strategy)) {
      throw std::invalid_argument("bad planner " + spec);
    }
  }
  return po;
}

/// Builds the strategy with the options `recon serve` gives the same spec
/// (service/registry.cc), so in-process and served campaigns match.
std::unique_ptr<core::Strategy> make_strategy(const Spec& s, util::ThreadPool* pool) {
  const core::PlannerOptions planner = planner_options(s.planner);
  if (s.strategy == "pm") {
    core::PmArestOptions o;
    o.batch_size = s.k;
    o.allow_retries = s.retries;
    o.planner = planner;
    o.pool = pool;
    return std::make_unique<core::PmArest>(o);
  }
  if (s.strategy == "mip") {
    solver::MipStrategyOptions o;
    o.batch_size = s.k;
    o.allow_retries = s.retries;
    o.scenarios_per_batch = s.scenarios;
    o.candidate_cap = 30;
    o.planner = planner;
    o.pool = pool;
    return std::make_unique<solver::MipBatchStrategy>(o);
  }
  solver::FallbackOptions o;
  o.batch_size = s.k;
  o.allow_retries = s.retries;
  o.scenarios_per_batch = s.scenarios;
  o.candidate_cap = 30;
  o.planner = planner;
  o.pool = pool;
  return std::make_unique<solver::FallbackStrategy>(o);
}

perfbench::CampaignLimits limits_of(const Spec& s) {
  perfbench::CampaignLimits l;
  l.budget = s.budget;
  l.batch_size = static_cast<std::size_t>(s.k);
  l.max_attempts = s.attempt_cap();
  return l;
}

struct CampaignResult {
  sim::AttackTrace trace;
  double seconds = 0.0;  ///< strategy construction to trace in hand
};

/// Runs one synchronous campaign. With `L` set the campaign is traced:
/// layers are timed, the trace is streamed to `<dir>/trace` through
/// write_batch_line, and checkpoints (if any) publish into `<dir>/ckpt`.
CampaignResult run_campaign(const sim::Problem& problem, const Spec& spec,
                            util::ThreadPool* pool, Layers* L,
                            const std::string& dir) {
  CampaignResult r;
  const auto t0 = Clock::now();
  auto strategy = make_strategy(spec, pool);
  const auto tw = Clock::now();
  const sim::World world(problem, util::derive_seed(spec.seed, 0));
  const double world_s = since(tw);

  core::AttackRunOptions ro;
  std::unique_ptr<core::CheckpointChain> chain;
  if (spec.ckpt_every > 0) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    chain = std::make_unique<core::CheckpointChain>(dir + "/c.ckpt");
    ro.checkpoint_chain = chain.get();
    ro.checkpoint_every_rounds = spec.ckpt_every;
  }
  if (L == nullptr) {
    r.trace = core::run_attack(problem, world, *strategy, spec.budget, ro);
    r.seconds = since(t0);
    return r;
  }

  LayerClock lc;
  fs::create_directories(dir);
  const std::string trace_path = dir + "/trace";
  std::ofstream tf(trace_path, std::ios::binary | std::ios::trunc);
  tf.precision(17);
  tf << "#recon-trace v1\ntrace 0\n";
  double prev_cost = 0.0;
  ro.on_round = [&](const sim::AttackTrace& trace, std::uint64_t) {
    const auto t = Clock::now();
    lc.observe_s += std::chrono::duration<double>(t - lc.select_end).count();
    const sim::BatchRecord& b = trace.batches.back();
    sim::write_batch_line(tf, b, prev_cost);
    prev_cost = b.cumulative_cost;
    tf.flush();
    lc.round_end = Clock::now();
    lc.trace_write_s += std::chrono::duration<double>(lc.round_end - t).count();
    lc.after_round = true;
  };
  const auto sample_generation = [&] {
    // The decorator counts save_state calls; generation N is the N+1-th
    // snapshot of a fresh chain. Stat'ed outside every timed span.
    if (chain && lc.saves > 0) {
      std::error_code ec;
      const auto n = fs::file_size(chain->generation_path(lc.saves - 1), ec);
      if (!ec) lc.checkpoint_bytes += static_cast<double>(n);
    }
  };
  TimedStrategy timed(*strategy, lc, sample_generation);
  r.trace = core::run_attack(problem, world, timed, spec.budget, ro);
  if (lc.after_round) {
    lc.checkpoint_s += std::chrono::duration<double>(Clock::now() - lc.round_end).count();
    sample_generation();
  }
  tf.close();
  const auto tp = Clock::now();
  sim::write_traces_file(trace_path, {r.trace});
  lc.trace_write_s += since(tp);
  r.seconds = since(t0);

  L->add("sim.world_s", world_s);
  L->add("sim.observe_s", lc.observe_s);
  L->add("sim.trace_write_s", lc.trace_write_s);
  L->add("sim.trace_bytes", static_cast<double>(fs::file_size(trace_path)));
  L->add(spec.solver() ? "solver.select_s" : "core.select_s", lc.select_s);
  auto& bm = spec.solver() ? L->solver_batch_ms : L->core_batch_ms;
  bm.insert(bm.end(), lc.batch_ms.begin(), lc.batch_ms.end());
  L->add("core.batches", static_cast<double>(r.trace.batches.size()));
  L->add("core.requests", static_cast<double>(r.trace.total_requests()));
  L->add("core.checkpoint_s", lc.checkpoint_s);
  L->add("core.save_state_s", lc.save_state_s);
  L->add("core.checkpoint_bytes", lc.saves > 0 ? lc.checkpoint_bytes / lc.saves : 0.0);
  add_planner_counts(*L, planner_of(*strategy));
  return r;
}

// ---------------------------------------------------------------- output --

struct Result {
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
  void print() const {
    if (!correct) std::cerr << "perfbench: output check failed: " << why << "\n";
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }
};

/// Every per-layer metric, in BENCHMARK.json order; a layer the workload
/// does not have reads 0.
void emit_layers(Result& R, Layers& L) {
  const auto med = [&](const char* k) { return quantile(L.per[k], 0.5); };
  const auto avg = [&](const char* k) { return mean(L.per[k]); };
  const auto fixed = [&](const char* k) { return L.fixed.count(k) ? L.fixed[k] : 0.0; };
  R.metric("graph.map_s", fixed("graph.map_s"), "s");
  R.metric("sim.make_problem_s", fixed("sim.make_problem_s"), "s");
  R.metric("sim.world_s", med("sim.world_s"), "s");
  R.metric("sim.observe_s", med("sim.observe_s"), "s");
  R.metric("sim.trace_write_s", med("sim.trace_write_s"), "s");
  R.metric("sim.trace_bytes", avg("sim.trace_bytes"), "B");
  R.metric("core.select_s", med("core.select_s"), "s");
  R.metric("core.select_batch_p50_ms", quantile(L.core_batch_ms, 0.5), "ms");
  R.metric("core.select_batch_p90_ms", quantile(L.core_batch_ms, 0.9), "ms");
  R.metric("core.batches", avg("core.batches"), "count");
  R.metric("core.requests", avg("core.requests"), "count");
  R.metric("core.planner.cached", avg("core.planner.cached"), "count");
  R.metric("core.planner.uncached", avg("core.planner.uncached"), "count");
  R.metric("core.planner.tree", avg("core.planner.tree"), "count");
  R.metric("core.planner.saa_greedy", avg("core.planner.saa_greedy"), "count");
  R.metric("core.planner.saa_exact", avg("core.planner.saa_exact"), "count");
  R.metric("core.checkpoint_s", med("core.checkpoint_s"), "s");
  R.metric("core.save_state_s", med("core.save_state_s"), "s");
  R.metric("core.checkpoint_bytes", avg("core.checkpoint_bytes"), "B");
  R.metric("core.async.events", avg("core.async.events"), "count");
  R.metric("core.async.event_us", med("core.async.event_us"), "us");
  R.metric("util.pool.workers", fixed("util.pool.workers"), "count");
  R.metric("util.pool.select_1t_s", med("util.pool.select_1t_s"), "s");
  const double pooled = med("core.select_s");
  const double ref = med("util.pool.select_1t_s");
  R.metric("util.pool.select_speedup", ref > 0.0 && pooled > 0.0 ? ref / pooled : 0.0, "ratio");
  R.metric("solver.select_s", med("solver.select_s"), "s");
  R.metric("solver.select_batch_p50_ms", quantile(L.solver_batch_ms, 0.5), "ms");
  R.metric("service.connect_wait_ms", med("service.connect_wait_ms"), "ms");
  R.metric("service.submit_ms", med("service.submit_ms"), "ms");
  R.metric("service.wait_ms", med("service.wait_ms"), "ms");
  R.metric("service.state_dir_files", fixed("service.state_dir_files"), "count");
  const double plain = quantile(L.plain_s, 0.5);
  R.metric("bench.trace_overhead",
           plain > 0.0 ? quantile(L.traced_s, 0.5) / plain - 1.0 : 0.0, "ratio");
}

void emit_end_to_end(Result& R, double campaign_s, double rps, double setup_s,
                     double benefit, double rss_mb) {
  R.metric("campaign_s", campaign_s, "s");
  R.metric("requests_per_s", rps, "1/s");
  R.metric("setup_s", setup_s, "s");
  R.metric("benefit", benefit, "benefit");
  R.metric("peak_rss_mb", rss_mb, "MB");
}

// ------------------------------------------------------------- workloads --

/// What one campaign of a pass reports back to run_passes.
struct Outcome {
  double seconds = 0.0;   ///< the campaign's wall time
  double requests = 0.0;  ///< friend requests it resolved
};

/// Runs one warm-up campaign, then whole passes over a fixed cycle of
/// campaigns until `a.seconds` have passed (at least one pass; two in traced
/// runs, which alternate plain and traced passes for the overhead figure).
/// `campaign(i, traced, first_pass)` runs cycle position i; `first_pass` is
/// set on the first pass, which visits every position once and whose
/// outputs the caller checks. Returns the number of measured campaigns.
std::uint64_t run_passes(
    const Args& a, std::size_t cycle, PassStats& stats, Layers& L,
    const std::function<Outcome(std::size_t, bool, bool)>& campaign) {
  (void)campaign(cycle_index(a.seed, 0, cycle), false, false);  // warm-up
  const auto start = Clock::now();
  auto pass_start = start;
  double pass_requests = 0.0;
  std::uint64_t n = 0;
  const std::uint64_t min_n = a.trace ? 2 * cycle : cycle;
  while (n < min_n || since(start) < a.seconds || n % cycle != 0) {
    const std::size_t i = cycle_index(a.seed, n, cycle);
    const bool traced = a.trace && (n / cycle) % 2 == 1;
    const Outcome o = campaign(i, traced, n < cycle);
    (traced ? L.traced_s : L.plain_s).push_back(o.seconds);
    stats.campaign(i, o.seconds);
    pass_requests += o.requests;
    if (++n % cycle == 0) {
      stats.end_pass(pass_requests, since(pass_start));
      pass_requests = 0.0;
      pass_start = Clock::now();
    }
  }
  return n;
}

struct Loaded {
  sim::Problem problem;
  double map_s = 0.0;
  double make_problem_s = 0.0;
};

Loaded load(const Args& a) {
  Loaded l;
  auto t = Clock::now();
  graph::Graph g = graph::map_graph_binary_file(a.graph);
  l.map_s = since(t);
  t = Clock::now();
  l.problem = sim::make_problem(std::move(g), problem_options());
  l.make_problem_s = since(t);
  return l;
}

/// select_1m: PM-AReST k=15, K=300, default dispatch, no pool, whole passes
/// over a cycle of two fixed worlds.
void run_select(const Args& a, Result& R) {
  Loaded ld = load(a);
  const double setup_s = since(kProcessStart);
  const sim::Problem& problem = ld.problem;
  constexpr std::size_t kCycle = 2;

  std::vector<Spec> specs(kCycle);
  for (std::size_t i = 0; i < kCycle; ++i) specs[i].seed = world_seed(i);

  Layers L;
  L.fixed["graph.map_s"] = ld.map_s;
  L.fixed["sim.make_problem_s"] = ld.make_problem_s;
  const std::string dir = a.work + "/campaign";

  PassStats stats(kCycle);
  std::vector<sim::AttackTrace> first(kCycle);
  R.attempted = run_passes(a, kCycle, stats, L, [&](std::size_t i, bool traced, bool first_pass) {
    CampaignResult r = run_campaign(problem, specs[i], nullptr, traced ? &L : nullptr, dir);
    const Outcome o{r.seconds, static_cast<double>(r.trace.total_requests())};
    if (first_pass) first[i] = std::move(r.trace);
    return o;
  });

  double benefit = 0.0;
  for (std::size_t i = 0; i < kCycle; ++i) {
    benefit += first[i].total_benefit();
    const sim::World world(problem, util::derive_seed(specs[i].seed, 0));
    const std::string err = perfbench::check_trace(problem, world, first[i], limits_of(specs[i]));
    if (!err.empty()) R.fail("seed " + std::to_string(i) + ": " + err);
  }
  if (a.trace) {
    emit_layers(R, L);
  } else {
    emit_end_to_end(R, stats.campaign_s(), stats.requests_per_s(), setup_s,
                    benefit / static_cast<double>(kCycle), peak_rss_mb());
  }
}

/// Rolling-window runner: window 10, timeouts and drops, exponential retry
/// backoff, a v2 checkpoint every 20 resolved events. With one every 5
/// events, two fsyncs of a 60 KB file per checkpoint took a third to a half
/// of each campaign and the disk's latency bursts moved campaign_s by 10-26%
/// between runs.
void run_async(const Args& a, Result& R) {
  Loaded ld = load(a);
  const double setup_s = since(kProcessStart);
  const sim::Problem& problem = ld.problem;
  constexpr std::size_t kCycle = 8;
  constexpr double kBudget = 200.0;

  core::RetryPolicy retry;
  retry.backoff = core::RetryBackoff::kExponential;
  retry.base_delay = 300.0;
  retry.max_delay = 4800.0;
  fs::create_directories(a.work);
  const std::string ckpt = a.work + "/async.ckpt";

  Layers L;
  L.fixed["graph.map_s"] = ld.map_s;
  L.fixed["sim.make_problem_s"] = ld.make_problem_s;

  PassStats stats(kCycle);
  std::vector<core::AsyncAttackResult> first(kCycle);
  R.attempted = run_passes(a, kCycle, stats, L, [&](std::size_t i, bool traced, bool first_pass) {
    const auto t0 = Clock::now();
    const sim::World world(problem, util::derive_seed(world_seed(i), 0));
    const double world_s = since(t0);
    sim::FaultOptions fo;
    fo.timeout_rate = 0.05;
    fo.drop_rate = 0.05;
    fo.seed = util::derive_seed(kProblemSeed, 300 + i);
    sim::FaultModel fault(fo);
    core::AsyncAttackOptions o;
    o.window = 10;
    o.allow_retries = true;
    o.fault = &fault;
    o.retry = &retry;
    o.seed = util::derive_seed(kProblemSeed, 400 + i);
    o.checkpoint_path = ckpt;
    o.checkpoint_every_events = 20;
    const auto tr = Clock::now();
    core::AsyncAttackResult res = core::run_async_attack(problem, world, o, kBudget);
    const double run_s = since(tr);
    const Outcome out{since(t0), static_cast<double>(res.requests_sent)};
    if (traced) {
      const auto tp = Clock::now();
      const std::string path = a.work + "/async.trace";
      sim::write_traces_file(path, {res.trace});
      L.add("sim.trace_write_s", since(tp));
      L.add("sim.trace_bytes", static_cast<double>(fs::file_size(path)));
      L.add("sim.world_s", world_s);
      L.add("core.batches", static_cast<double>(res.trace.batches.size()));
      L.add("core.requests", static_cast<double>(res.requests_sent));
      L.add("core.async.events", static_cast<double>(res.trace.batches.size()));
      L.add("core.async.event_us", run_s * 1e6 / std::max<double>(1, res.trace.batches.size()));
      L.add("core.checkpoint_bytes", static_cast<double>(fs::file_size(ckpt)));
    }
    if (first_pass) first[i] = std::move(res);
    return out;
  });

  double benefit = 0.0;
  for (std::size_t i = 0; i < kCycle; ++i) {
    const auto& r = first[i];
    benefit += r.trace.total_benefit();
    const std::string tag = "seed " + std::to_string(i) + ": ";
    if (static_cast<double>(r.requests_sent) > kBudget) R.fail(tag + "sent more requests than K");
    if (r.accepts != r.trace.total_accepts()) R.fail(tag + "accepts differ from the trace's flags");
    perfbench::CampaignLimits lim;
    lim.budget = kBudget;
    lim.batch_size = 1;
    lim.max_attempts = static_cast<std::uint32_t>(kBudget);
    lim.charged_at_send = true;
    const sim::World world(problem, util::derive_seed(world_seed(i), 0));
    const std::string err = perfbench::check_trace(problem, world, r.trace, lim);
    if (!err.empty()) R.fail(tag + err);
  }
  if (a.trace) {
    emit_layers(R, L);
  } else {
    emit_end_to_end(R, stats.campaign_s(), stats.requests_per_s(), setup_s,
                    benefit / kCycle, peak_rss_mb());
  }
}

/// The serve mix: 8 campaigns per cycle, in this order rotated by --seed.
/// Client 0 takes the even positions, client 1 the odd ones.
std::vector<Spec> serve_specs(std::uint64_t seed) {
  std::vector<Spec> specs;
  for (int i = 0; i < 8; ++i) {
    Spec s;
    s.k = 10;
    s.budget = 300.0;
    s.ckpt_every = 1;  // the daemon's default autosnapshot cadence
    if (i == 2 || i == 6) {
      s.strategy = "fallback";
      s.planner = "auto";
    } else if (i == 4) {
      s.strategy = "mip";
      s.planner = "fixed:saa";
      s.scenarios = 16;
      s.k = 5;
      s.budget = 50.0;
    } else {
      s.retries = true;
    }
    s.seed = world_seed(static_cast<std::size_t>(i));
    specs.push_back(s);
  }
  // Rotating by an even amount keeps each client's set of specs, so the
  // multiset of (campaign, campaign queued behind it) pairs is the same in
  // every run.
  std::rotate(specs.begin(), specs.begin() + static_cast<long>(2 * (seed % 4)), specs.end());
  return specs;
}

std::size_t count_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) n += e.is_regular_file() ? 1 : 0;
  return n;
}

/// `recon serve --socket` with two closed-loop clients. Each cycle runs the
/// fixed spec list (client c takes specs c, c+2, ...), checks every served
/// trace and chain, then empties the state directory, so every cycle starts
/// from the same directory state.
void run_serve(const Args& a, Result& R) {
  const std::vector<Spec> specs = serve_specs(a.seed);
  const std::string state = a.work + "/state";
  fs::remove_all(a.work);
  fs::create_directories(state);
  // The socket path is relative to the working directory: AF_UNIX paths are
  // limited to 107 bytes.
  const std::string sock = fs::relative(a.work + "/serve.sock").string();

  // In-process references first, so the daemon's start is a cold set-up of
  // its own process. They run through the entry points the daemon uses, with
  // a pool of the daemon's size, and pooled selection must be byte-identical
  // to the sequential selector.
  Loaded ld = load(a);
  const sim::Problem& problem = ld.problem;
  Layers L;
  L.fixed["graph.map_s"] = ld.map_s;
  L.fixed["sim.make_problem_s"] = ld.make_problem_s;
  util::ThreadPool pool(pool_workers());
  const std::string replay = a.work + "/replay";
  std::vector<std::string> want(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CampaignResult r = run_campaign(problem, specs[i], &pool, nullptr, replay);
    const sim::World world(problem, util::derive_seed(specs[i].seed, 0));
    const std::string err = perfbench::check_trace(problem, world, r.trace, limits_of(specs[i]));
    if (!err.empty()) R.fail("spec " + std::to_string(i) + ": " + err);
    want[i] = perfbench::canonical_trace(r.trace);
    if (perfbench::canonical_trace(run_campaign(problem, specs[i], nullptr, nullptr, replay).trace) !=
        want[i]) {
      R.fail("spec " + std::to_string(i) + ": pooled trace differs from the no-pool trace");
    }
  }

  const auto t_spawn = Clock::now();
  perfbench::ServeDaemon daemon(
      {a.recon, "serve", "--graph", a.graph, "--targets", "50", "--target-mode", "ball",
       "--seed", std::to_string(kProblemSeed), "--state-dir", state,
       "--threads", std::to_string(pool_workers()), "--socket", sock});
  daemon.wait_ready(sock, 60.0);
  const double setup_s = since(t_spawn);

  PassStats stats(specs.size());
  std::mutex mu;
  std::string client_error;
  const auto start = Clock::now();
  std::uint64_t cycles = 0;
  while (cycles < 2 || since(start) < a.seconds) {
    std::vector<std::string> ids(specs.size());
    const auto tc = Clock::now();
    // Client 1 starts once client 0's first SUBMIT is answered, so the
    // daemon always serves the sessions in the same alternating order.
    std::promise<void> first_served;
    auto first_served_f = first_served.get_future();
    bool first_signalled = false;  // touched by client 0 only
    const auto signal_first = [&] {
      if (!first_signalled) first_served.set_value();
      first_signalled = true;
    };
    const auto client = [&](std::size_t first) {
      try {
        if (first == 1) first_served_f.wait();
        for (std::size_t i = first; i < specs.size(); i += 2) {
          const auto t0 = Clock::now();
          perfbench::ServeConnection c(sock);
          const auto tc = Clock::now();
          c.send_line(specs[i].submit_line());
          const std::string ok = c.read_line();
          const auto t1 = Clock::now();
          if (i == 0) signal_first();
          if (ok.rfind("OK ", 0) != 0) throw std::runtime_error("SUBMIT: " + ok);
          const std::string id = ok.substr(3);
          c.send_line("WAIT " + id);
          const std::string done = c.read_line();
          const auto t2 = Clock::now();
          if (done.find("state=completed") == std::string::npos) {
            throw std::runtime_error("WAIT: " + done);
          }
          std::lock_guard<std::mutex> lk(mu);
          ids[i] = id;
          // One session at a time: SUBMIT's reply waits for the other
          // client's session to close, and campaign_s includes that wait.
          stats.campaign(i, std::chrono::duration<double>(t2 - tc).count());
          L.add("service.connect_wait_ms", 1e3 * std::chrono::duration<double>(t1 - t0).count());
          L.add("service.submit_ms", 1e3 * std::chrono::duration<double>(t1 - tc).count());
          L.add("service.wait_ms", 1e3 * std::chrono::duration<double>(t2 - t1).count());
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu);
        client_error = e.what();
        if (first == 0) signal_first();
      }
    };
    std::thread c0(client, 0), c1(client, 1);
    c0.join();
    c1.join();
    const double cycle_s = since(tc);
    if (!client_error.empty()) throw std::runtime_error(client_error);

    // Checks (outside the timed cycle): every served trace equals the
    // in-process campaign, and every chain's last good generation is the
    // campaign's final round.
    double requests = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string base = state + "/" + ids[i];
      const auto traces = sim::read_traces_file(base + ".trace");
      if (traces.size() != 1 || perfbench::canonical_trace(traces[0]) != want[i]) {
        R.fail("spec " + std::to_string(i) + ": served trace differs from run_attack");
        continue;
      }
      requests += static_cast<double>(traces[0].total_requests());
      core::CheckpointChain chain(base + ".ckpt");
      const auto last = chain.load_last_good();
      if (!last || last->checkpoint.round != traces[0].batches.size()) {
        R.fail("spec " + std::to_string(i) + ": last good generation is not the final round");
      }
    }
    stats.end_pass(requests, cycle_s);
    L.fixed["service.state_dir_files"] = static_cast<double>(count_files(state));
    for (const auto& e : fs::directory_iterator(state)) fs::remove_all(e.path());
    ++cycles;
  }
  R.attempted = cycles * specs.size();
  const double rss = daemon.shutdown(sock);

  if (a.trace) {
    // Self-times of solver, checkpoint and trace layers: the same specs in
    // this process, through run_attack with a CheckpointChain and a
    // streaming hook, as the daemon runs them. Each traced replay follows a
    // plain one of the same spec for the overhead figure; PM-AReST specs are
    // also replayed without the pool for the 1-thread reference.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      L.plain_s.push_back(run_campaign(problem, specs[i], &pool, nullptr, replay).seconds);
      CampaignResult r = run_campaign(problem, specs[i], &pool, &L, replay);
      L.traced_s.push_back(r.seconds);
      if (perfbench::canonical_trace(r.trace) != want[i]) {
        R.fail("spec " + std::to_string(i) + ": traced replay differs");
      }
      if (!specs[i].solver()) {
        Layers ref;
        (void)run_campaign(problem, specs[i], nullptr, &ref, replay);
        L.add("util.pool.select_1t_s", ref.per["core.select_s"].front());
      }
    }
    L.fixed["util.pool.workers"] = pool.size();
    emit_layers(R, L);
  } else {
    double benefit = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::istringstream in(want[i]);
      benefit += sim::read_traces(in)[0].total_benefit();
    }
    emit_end_to_end(R, stats.campaign_s(), stats.requests_per_s(), setup_s,
                    benefit / static_cast<double>(specs.size()), rss);
  }
}

// -------------------------------------------------------------- selftest --

/// Shows that the output checks reject broken traces: one accept flipped,
/// and a benefit off by one revealed edge.
int selftest(const Args& a) {
  Loaded ld = load(a);
  const sim::Problem& problem = ld.problem;
  Spec spec;
  spec.k = 10;
  spec.budget = 200.0;
  spec.seed = world_seed(0);
  const CampaignResult r = run_campaign(problem, spec, nullptr, nullptr, a.work + "/selftest");
  const sim::World world(problem, util::derive_seed(spec.seed, 0));
  const auto lim = limits_of(spec);
  int bad = 0;
  const auto expect = [&](const char* what, const sim::AttackTrace& t, bool pass) {
    const std::string err = perfbench::check_trace(problem, world, t, lim);
    const bool ok = err.empty() == pass;
    std::cerr << (ok ? "ok   " : "FAIL ") << what << ": "
              << (err.empty() ? "accepted" : "rejected (" + err + ")") << "\n";
    bad += ok ? 0 : 1;
  };
  expect("untouched trace", r.trace, true);

  // Flip the first accept of a node that reveals at least one existing edge.
  sim::AttackTrace flipped = r.trace;
  bool done = false;
  for (auto& b : flipped.batches) {
    for (std::size_t i = 0; i < b.requests.size() && !done; ++i) {
      if (b.accepted[i] != 0 && !world.true_neighbors(b.requests[i]).empty()) {
        b.accepted[i] = 0;
        done = true;
      }
    }
  }
  if (!done) {
    std::cerr << "FAIL no accepted node to flip\n";
    return 1;
  }
  expect("one accept flipped", flipped, false);

  // Add one revealed edge's benefit to the last batch.
  sim::AttackTrace extra = r.trace;
  const double one_edge = problem.benefit.bi[0];
  extra.batches.back().delta.edges += one_edge;
  extra.batches.back().cumulative.edges += one_edge;
  expect("benefit off by one edge", extra, false);

  // Re-request, in the last batch, the first node ever accepted.
  sim::AttackTrace again = r.trace;
  for (const auto& b : r.trace.batches) {
    const auto it = std::find(b.accepted.begin(), b.accepted.end(), 1);
    if (it != b.accepted.end()) {
      again.batches.back().requests.back() = b.requests[it - b.accepted.begin()];
      break;
    }
  }
  expect("request to an existing friend", again, false);
  std::cerr << (bad == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.selftest) return selftest(a);
    Result R;
    if (a.workload == "select_1m") {
      run_select(a, R);
    } else if (a.workload == "serve_durable_10k") {
      run_serve(a, R);
    } else if (a.workload == "async_10k") {
      run_async(a, R);
    } else {
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
    }
    R.print();
    return R.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
