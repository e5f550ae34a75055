// qps_perfbench: the repository benchmark program.
//
// One process runs one workload against the qps library's public
// functions and prints its metrics as JSON.  perfbench/run.py builds this
// program and invokes it; see perfbench/README.md for the metric
// definitions and the reasons behind each workload.
//
//   qps_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --out-dir DIR [--commit SHA] [--start-ns NS]
//                 [--setup-only 0|1]
//
// setup_s runs from process start (--start-ns, the parent's
// CLOCK_MONOTONIC reading just before it started this program; main()
// entry without it) to the first timed call.  --setup-only 1 stops there
// and prints {"setup_s": X}; run.py starts several such processes and
// reports the median set-up.
//
// Workloads (each runs a fixed unit of work, a "round", repeatedly until
// the time budget is spent; wall_s is the median round):
//   mc_det         deterministic scans through estimate_ppc (SIMD kernels)
//   mc_randomized  randomized strategies: estimate_ppc, expected_probes_on
//                  on the Section 4 hard colorings, IR_Probe_HQS (scalar)
//   exact_dp       ppc_exact over a p grid and pc_exact, n = 3 .. 17
//   sweep_fabric   SweepRunner::run over pipe workers, then a tenth as
//                  many points with a checkpoint journal, then a resume
//                  replay of that journal
// BENCHMARK.json gates the steadiest two; all four run the same way.
//
// --trace 0 measures the end-to-end metrics untraced.  --trace 1 runs the
// workload untraced and then traced (spans around every public call,
// written as Chrome-trace JSON to DIR), and then times each layer's public
// functions on the workloads' own inputs for the per-layer metrics.
//
// Output checks run after the timed phase; every failed check names its
// operation on stderr and counts in `failed`.  The last stdout line is
//   {"correct": B, "attempted": N, "failed": F, "metrics": {...}}

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/coloring.h"
#include "core/engine/batch_kernel.h"
#include "core/engine/simd.h"
#include "core/estimator.h"
#include "core/exact/dp_kernel.h"
#include "core/exact/pc_exact.h"
#include "core/exact/ppc_exact.h"
#include "core/expectation.h"
#include "core/formulas.h"
#include "core/obs/metrics.h"
#include "core/probe_session.h"
#include "core/sweep/checkpoint.h"
#include "core/sweep/evaluators.h"
#include "core/sweep/sweep_runner.h"
#include "core/sweep/sweep_spec.h"
#include "core/sweep/wire.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"
#include "quorum/wheel.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

#ifndef QPS_PERFBENCH_COMPILER
#define QPS_PERFBENCH_COMPILER "unknown"
#endif
#ifndef QPS_PERFBENCH_BUILD_TYPE
#define QPS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace qps;
using Clock = std::chrono::steady_clock;

// Thread counts are fixed, never 0 ("all cores"), and leave one of the
// four vCPUs free.  On a shared VM the speed of one vCPU swings by up to
// 1.8x within seconds as other tenants load its core; work handed out in
// batches to 3 threads averages over three vCPUs.  In two measurements
// there, windowed averages of estimate_ppc throughput varied 15% and about
// 50% less at 3 threads than at 1.
constexpr std::size_t kMcThreads = 3;
constexpr std::size_t kDpThreads = 3;
constexpr std::size_t kSweepWorkers = 3;

// Every timed phase runs at least this many rounds, however long they take.
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMinTracedRounds = 2;

double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CLOCK_MONOTONIC in nanoseconds: the clock a parent process reads (in
/// Python, time.monotonic_ns()) just before it starts this program, so
/// set-up can be timed from process start.
std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double pow3(std::size_t n) { return std::pow(3.0, static_cast<double>(n)); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1));
  return splitmix64(state);
}

bool same_stats(const RunningStats& a, const RunningStats& b) {
  const double xa[] = {a.mean(), a.sum_squared_deviations(), a.min(), a.max()};
  const double xb[] = {b.mean(), b.sum_squared_deviations(), b.min(), b.max()};
  return a.count() == b.count() && std::memcmp(xa, xb, sizeof xa) == 0;
}

// ---------------------------------------------------------------------------
// Spans: (name, layer, start, end, parent) around each public call the
// benchmark makes, kept in memory and written as Chrome-trace JSON at exit.

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int begin(const std::string& name, const std::string& layer) {
    Span span;
    span.name = name;
    span.layer = layer;
    span.start_us = now_us();
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }

  /// Self time per layer (span duration minus its direct children's) over
  /// spans [first, size()), in seconds.
  std::map<std::string, double> self_seconds(std::size_t first) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const int parent = spans_[i].parent;
      if (parent >= 0)
        child_us[static_cast<std::size_t>(parent)] +=
            spans_[i].end_us - spans_[i].start_us;
    }
    std::map<std::string, double> self;
    for (std::size_t i = first; i < spans_.size(); ++i)
      self[spans_[i].layer] +=
          (spans_[i].end_us - spans_[i].start_us - child_us[i]) * 1e-6;
    return self;
  }

  /// Summed duration of root spans in [first, size()), in seconds.
  double root_seconds(std::size_t first) const {
    double total = 0.0;
    for (std::size_t i = first; i < spans_.size(); ++i)
      if (spans_[i].parent < 0)
        total += (spans_[i].end_us - spans_[i].start_us) * 1e-6;
    return total;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_quote(s.name)
          << ",\"cat\":" << json_quote(s.layer)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << json_number(s.start_us)
          << ",\"dur\":" << json_number(s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, const std::string& layer)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, layer);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Failure accounting.  An operation is one grid point or one solve in one
// round; a failed check, an exception or a quarantine fails it.

class Checks {
 public:
  void fail(std::size_t round, const std::string& op, const std::string& why) {
    if (failed_.insert({round, op}).second && messages_.size() < 25)
      messages_.push_back("perfbench: FAILED op=" + op + " round=" +
                          std::to_string(round) + ": " + why);
  }
  std::size_t failed() const { return failed_.size(); }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::set<std::pair<std::size_t, std::string>> failed_;
  std::vector<std::string> messages_;
};

using RoundResults = std::vector<std::optional<RunningStats>>;

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  /// The constructor is the workload's set-up: it builds the systems,
  /// strategies, colorings and specs, and nothing else.
  virtual ~Workload() = default;
  /// Operation names, in result order.
  virtual const std::vector<std::string>& ops() const = 0;
  /// The workload's unit of work and its amount per round.
  virtual const char* work_unit() const = 0;
  virtual double work_per_round() const = 0;
  /// Runs one round; out[i] is the result of ops()[i] (nullopt: failed).
  virtual void run_round(std::size_t round, Tracer* tracer,
                         RoundResults& out) = 0;
  /// Output checks on the first round's results (later rounds are checked
  /// bit-identical to it by the caller).  Runs outside the timed phase.
  virtual void check(const RoundResults& first, std::size_t rounds,
                     Checks& checks) = 0;
  /// Housekeeping between rounds, outside their timing.
  virtual void after_round() {}
};

void check_near(Checks& checks, std::size_t rounds, const std::string& op,
                const RunningStats& got, double expected, double sems) {
  const double tolerance = std::max(sems * got.sem(), 1e-9);
  if (std::abs(got.mean() - expected) <= tolerance) return;
  for (std::size_t r = 0; r < rounds; ++r)
    checks.fail(r, op,
                "mean " + json_number(got.mean()) + " vs reference " +
                    json_number(expected) +
                    " (tolerance " + json_number(tolerance) + ")");
}

// The paper's families at Monte-Carlo sizes: n = 63 instances and one
// multi-word (n = 81 > 64) instance.
struct McFamilies {
  MajoritySystem maj63{63};
  TreeSystem tree63{5};
  HQSystem hqs81{4};
  std::vector<std::size_t> cw_widths{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CrumblingWall cw55{cw_widths};
};

struct McOp {
  std::string name;
  const QuorumSystem* system = nullptr;
  const ProbeStrategy* strategy = nullptr;
  double p = 0.0;                  // i.i.d. failure probability ...
  std::optional<Coloring> fixed;   // ... or one fixed coloring
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  // The exact expectation, checked to 4 SEM.  Computed by the check, after
  // the timed phase, since some are exact solves of their own.
  std::function<double()> reference;
};

RunningStats run_mc_op(const McOp& op, std::size_t trials,
                       std::size_t threads) {
  EngineOptions options;
  options.trials = trials;
  options.threads = threads;
  options.seed = op.seed;
  if (op.fixed)
    return expected_probes_on(*op.system, *op.strategy, *op.fixed, options);
  return estimate_ppc(*op.system, *op.strategy, op.p, options);
}

class McWorkload : public Workload {
 public:
  const std::vector<std::string>& ops() const override { return names_; }
  const std::vector<McOp>& mc_ops() const { return ops_; }
  const char* work_unit() const override { return "trials"; }
  double work_per_round() const override {
    double total = 0.0;
    for (const McOp& op : ops_) total += static_cast<double>(op.trials);
    return total;
  }
  void run_round(std::size_t round, Tracer* tracer,
                 RoundResults& out) override {
    (void)round;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      SpanScope span(tracer, ops_[i].fixed ? "expected_probes_on"
                                           : "estimate_ppc",
                     "engine");
      try {
        out[i] = run_mc_op(ops_[i], ops_[i].trials, kMcThreads);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: op " << ops_[i].name << " threw: " << e.what()
                  << "\n";
        out[i].reset();
      }
    }
  }
  void check(const RoundResults& first, std::size_t rounds,
             Checks& checks) override {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (!first[i] || !ops_[i].reference) continue;
      check_near(checks, rounds, ops_[i].name, *first[i], ops_[i].reference(),
                 4.0);
    }
  }

 protected:
  void add(McOp op) {
    names_.push_back(op.name);
    ops_.push_back(std::move(op));
  }

  McFamilies f_;
  std::vector<McOp> ops_;
  std::vector<std::string> names_;
};

const std::vector<double>& mc_det_ps() {
  static const std::vector<double> ps = {0.1, 0.2, 0.3, 0.4, 0.5,
                                         0.6, 0.7, 0.8, 0.9};
  return ps;
}

/// mc_det: Probe_Maj/Tree/HQS/CW through the bit-sliced engine over a
/// 9-point p grid, each estimate checked against the paper's closed form.
class McDetWorkload : public McWorkload {
 public:
  static constexpr std::size_t kTrials = std::size_t{1} << 18;

  explicit McDetWorkload(std::uint64_t seed) {
    struct Family {
      const char* name;
      const QuorumSystem* system;
      const ProbeStrategy* strategy;
      std::function<double(double)> closed_form;
    };
    const std::vector<std::size_t> widths = f_.cw_widths;
    const Family families[] = {
        {"maj63/Probe_Maj", &f_.maj63, &maj_,
         [](double p) { return probe_maj_expected(63, p); }},
        {"tree63/Probe_Tree", &f_.tree63, &tree_,
         [](double p) { return probe_tree_expected(5, p); }},
        {"hqs81/Probe_HQS", &f_.hqs81, &hqs_,
         [](double p) { return probe_hqs_expected(4, p); }},
        {"cw55/Probe_CW", &f_.cw55, &cw_,
         [widths](double p) { return probe_cw_expected(widths, p); }},
    };
    std::uint64_t salt = 0;
    for (const Family& family : families) {
      // Points along p share their stream seed (common random numbers).
      const std::uint64_t family_seed = mix_seed(seed, salt++);
      for (const double p : mc_det_ps()) {
        McOp op;
        op.name = std::string(family.name) + "/p=" + json_number(p);
        op.system = family.system;
        op.strategy = family.strategy;
        op.p = p;
        op.trials = kTrials;
        op.seed = family_seed;
        op.reference = [closed_form = family.closed_form, p] {
          return closed_form(p);
        };
        add(std::move(op));
      }
    }
  }

 private:
  ProbeMaj maj_{f_.maj63};
  ProbeTree tree_{f_.tree63};
  ProbeHQS hqs_{f_.hqs81};
  ProbeCW cw_{f_.cw55};
};

/// A coloring with exactly `reds` red elements at seed-chosen positions:
/// one draw from Thm 4.2's hard distribution when reds = (n+1)/2.
Coloring maj_hard_coloring(std::size_t n, std::size_t reds, Rng& rng) {
  const std::vector<std::uint32_t> order =
      rng.permutation(static_cast<std::uint32_t>(n));
  ElementSet greens(n);
  for (std::size_t i = reds; i < n; ++i) greens.insert(order[i]);
  return Coloring(n, std::move(greens));
}

/// One draw from Thm 4.6's hard distribution: one green per row.
Coloring cw_hard_coloring(const CrumblingWall& wall, Rng& rng) {
  ElementSet greens(wall.universe_size());
  for (std::size_t r = 0; r < wall.row_count(); ++r)
    greens.insert(static_cast<Element>(wall.row_begin(r) +
                                       rng.below(wall.row_width(r))));
  return Coloring(wall.universe_size(), std::move(greens));
}

/// mc_randomized: the randomized strategies under i.i.d. failures, their
/// expectation on the Section 4 hard colorings, and IR_Probe_HQS, whose
/// only path is the scalar run().
class McRandomizedWorkload : public McWorkload {
 public:
  static constexpr std::size_t kIidTrials = std::size_t{1} << 17;
  static constexpr std::size_t kFixedTrials = std::size_t{1} << 16;
  static constexpr std::size_t kScalarTrials = std::size_t{1} << 15;

  explicit McRandomizedWorkload(std::uint64_t seed) {
    std::uint64_t salt = 100;
    const double ps[] = {0.25, 0.5, 0.75};
    struct Iid {
      const char* name;
      const QuorumSystem* system;
      const ProbeStrategy* strategy;
      double (*closed_form)(std::size_t, double);  // nullptr: none known
      std::size_t arg;
    };
    const Iid iid[] = {
        // A uniformly random scan order of an i.i.d. coloring is an i.i.d.
        // coloring, so R_Probe_Maj has Probe_Maj's expectation; likewise
        // a random child order at each HQS gate.
        {"maj63/R_Probe_Maj", &f_.maj63, &rmaj_, &probe_maj_expected, 63},
        {"tree63/R_Probe_Tree", &f_.tree63, &rtree_, nullptr, 0},
        {"hqs81/R_Probe_HQS", &f_.hqs81, &rhqs_, &probe_hqs_expected, 4},
        {"cw55/R_Probe_CW", &f_.cw55, &rcw_, nullptr, 0},
    };
    for (const Iid& family : iid) {
      const std::uint64_t family_seed = mix_seed(seed, salt++);
      for (const double p : ps) {
        McOp op;
        op.name = std::string(family.name) + "/p=" + json_number(p);
        op.system = family.system;
        op.strategy = family.strategy;
        op.p = p;
        op.trials = kIidTrials;
        op.seed = family_seed;
        if (family.closed_form != nullptr)
          op.reference = [f = family.closed_form, arg = family.arg, p] {
            return f(arg, p);
          };
        add(std::move(op));
      }
    }

    Rng rng(mix_seed(seed, salt++));
    const auto fixed = [&](const char* name, const QuorumSystem& system,
                           const ProbeStrategy& strategy, Coloring coloring,
                           std::function<double(const Coloring&)> exact,
                           std::size_t trials) {
      McOp op;
      op.name = name;
      op.system = &system;
      op.strategy = &strategy;
      op.fixed = std::move(coloring);
      op.trials = trials;
      op.seed = mix_seed(seed, salt++);
      op.reference = [exact = std::move(exact), coloring = *op.fixed] {
        return exact(coloring);
      };
      add(std::move(op));
    };
    fixed("maj63/R_Probe_Maj/thm4.2", f_.maj63, rmaj_,
          maj_hard_coloring(63, 32, rng),
          [this](const Coloring& c) {
            return r_probe_maj_expectation(f_.maj63, c);
          },
          kFixedTrials);
    fixed("cw55/R_Probe_CW/thm4.6", f_.cw55, rcw_,
          cw_hard_coloring(f_.cw55, rng),
          [this](const Coloring& c) {
            return r_probe_cw_expectation(f_.cw55, c);
          },
          kFixedTrials);
    fixed("tree63/R_Probe_Tree/thm4.8", f_.tree63, rtree_,
          sample_tree_hard_coloring(f_.tree63, rng),
          [this](const Coloring& c) {
            return r_probe_tree_expectation(f_.tree63, c);
          },
          kFixedTrials);
    const Coloring hqs_worst = hqs_worst_case_coloring(
        f_.hqs81, rng.below(2) == 0 ? Color::kGreen : Color::kRed);
    fixed("hqs81/R_Probe_HQS/worst", f_.hqs81, rhqs_, hqs_worst,
          [this](const Coloring& c) {
            return r_probe_hqs_expectation(f_.hqs81, c);
          },
          kFixedTrials);
    fixed("hqs81/IR_Probe_HQS/worst", f_.hqs81, irhqs_, hqs_worst,
          [this](const Coloring& c) {
            return ir_probe_hqs_expectation(f_.hqs81, c);
          },
          kScalarTrials);

    McOp ir;
    ir.name = "hqs81/IR_Probe_HQS/p=0.5";
    ir.system = &f_.hqs81;
    ir.strategy = &irhqs_;
    ir.p = 0.5;
    ir.trials = kScalarTrials;
    ir.seed = mix_seed(seed, salt++);
    add(std::move(ir));
  }

 private:
  RProbeMaj rmaj_{f_.maj63};
  RProbeTree rtree_{f_.tree63};
  RProbeHQS rhqs_{f_.hqs81};
  RProbeCW rcw_{f_.cw55};
  IRProbeHQS irhqs_{f_.hqs81};
};

/// exact_dp: Bellman DP solves.  n <= 12 frontiers stay in cache; n = 15
/// and 17 stream from memory (the n = 17 level pair is ~400 MB).  PPC uses
/// 8-byte Expectation states, PC 1-byte Minimax states.
class ExactWorkload : public Workload {
 public:
  struct Op {
    std::string name;
    const QuorumSystem* system = nullptr;
    bool pc = false;
    double p = 0.0;
    std::optional<double> equals;   // exact value
    std::optional<double> at_most;  // a strategy's closed-form expectation
  };

  explicit ExactWorkload(std::uint64_t seed) {
    // A seed-jittered p grid plus p = 1/2, where the checks are exact.
    Rng rng(mix_seed(seed, 200));
    std::vector<double> ps = {0.5};
    for (int i = 0; i < 4; ++i)
      ps.push_back((i + 0.1 + 0.8 * rng.uniform01()) / 4.0);
    const std::vector<std::size_t> cw_widths = {1, 2, 3, 4};

    for (const double p : ps) {
      const bool half = p == 0.5;
      // At p = 1/2 every value is dyadic, so these are exact: PPC(Maj3) =
      // 5/2 (the paper's worked example), PPC(HQS_1) = 5/2, and PPC(HQS_2)
      // = 393/64, strictly below Probe_HQS's (5/2)^2 = 6.25 because the
      // optimum interleaves gates (tests/core/test_ppc_exact.cpp).  The
      // (5/2)^h closed form itself is checked on mc_det.
      add_ppc("maj3", maj3_, p, half ? std::optional<double>(2.5) : std::nullopt,
              probe_maj_expected(3, p));
      add_ppc("hqs3", hqs1_, p, half ? std::optional<double>(2.5) : std::nullopt,
              probe_hqs_expected(1, p));
      add_ppc("hqs9", hqs2_, p,
              half ? std::optional<double>(393.0 / 64.0) : std::nullopt,
              probe_hqs_expected(2, p));
      add_ppc("maj11", maj11_, p, std::nullopt, probe_maj_expected(11, p));
      add_ppc("cw10", cw10_, p, std::nullopt, probe_cw_expected(cw_widths, p));
      add_ppc("wheel12", wheel12_, p, std::nullopt, std::nullopt);
    }
    // Streamed: n = 15, and n = 17 with its ~400 MB level pair.
    add_ppc("tree15", tree15_, 0.5, std::nullopt, probe_tree_expected(3, 0.5));
    add_ppc("maj17", maj17_, 0.5, std::nullopt, probe_maj_expected(17, 0.5));
    // Lemma 2.2: Maj, Wheel, CW and Tree are evasive, PC = n.
    add_pc("maj17", maj17_);
    add_pc("tree15", tree15_);
    add_pc("wheel12", wheel12_);
  }

  const std::vector<std::string>& ops() const override { return names_; }
  const char* work_unit() const override { return "states"; }
  double work_per_round() const override {
    double total = 0.0;
    for (const Op& op : ops_) total += pow3(op.system->universe_size());
    return total;
  }
  void run_round(std::size_t round, Tracer* tracer,
                 RoundResults& out) override {
    (void)round;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      SpanScope span(tracer, ops_[i].pc ? "pc_exact" : "ppc_exact", "exact");
      try {
        RunningStats stats;
        stats.add(solve(ops_[i], kDpThreads));
        out[i] = stats;
      } catch (const std::exception& e) {
        std::cerr << "perfbench: op " << ops_[i].name << " threw: " << e.what()
                  << "\n";
        out[i].reset();
      }
    }
  }
  void check(const RoundResults& first, std::size_t rounds,
             Checks& checks) override {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (!first[i]) continue;
      const Op& op = ops_[i];
      const double value = first[i]->mean();
      std::string why;
      if (op.equals && value != *op.equals)
        why = "value " + json_number(value) + " != exact " +
              json_number(*op.equals);
      if (op.at_most && value > *op.at_most + 1e-9)
        why = "optimum " + json_number(value) +
              " above a strategy's expectation " +
              json_number(*op.at_most);
      // Bit-identity across thread counts, on the cached subset and one
      // streamed solve (the DP kernel's determinism contract).
      if (why.empty() && (op.system->universe_size() <= 12 ||
                          (op.name == "tree15/ppc" && op.p == 0.5))) {
        const double single = solve(op, 1);
        if (std::memcmp(&single, &value, sizeof value) != 0)
          why = "threads=1 gives " + json_number(single) + ", threads=" +
                std::to_string(kDpThreads) + " gives " + json_number(value);
      }
      if (!why.empty())
        for (std::size_t r = 0; r < rounds; ++r)
          checks.fail(r, names_[i], why);
    }
  }

 private:
  double solve(const Op& op, std::size_t threads) const {
    exact::DpOptions options;
    options.threads = threads;
    if (op.pc) return static_cast<double>(pc_exact(*op.system, options));
    return ppc_exact(*op.system, op.p, options);
  }
  void add_ppc(const std::string& name, const QuorumSystem& system, double p,
               std::optional<double> equals, std::optional<double> at_most) {
    Op op;
    op.name = name + "/ppc";
    op.system = &system;
    op.p = p;
    op.equals = equals;
    op.at_most = at_most;
    names_.push_back(op.name + "/p=" + json_number(p));
    ops_.push_back(std::move(op));
  }
  void add_pc(const std::string& name, const QuorumSystem& system) {
    Op op;
    op.name = name + "/pc";
    op.system = &system;
    op.pc = true;
    op.equals = static_cast<double>(system.universe_size());
    names_.push_back(op.name);
    ops_.push_back(std::move(op));
  }

  MajoritySystem maj3_{3};
  HQSystem hqs1_{1};
  HQSystem hqs2_{2};
  MajoritySystem maj11_{11};
  CrumblingWall cw10_{std::vector<std::size_t>{1, 2, 3, 4}};
  WheelSystem wheel12_{12};
  TreeSystem tree15_{3};
  MajoritySystem maj17_{17};
  std::vector<Op> ops_;
  std::vector<std::string> names_;
};

// --- sweep_fabric -----------------------------------------------------------

constexpr std::size_t kSweepPs = 200;

/// The sweep grids, rebuilt identically by the parent and by each pipe
/// worker from (kind, seed).  Points are cheap exact_ppc solves on small
/// systems, so the time goes to the fabric, not the DP.
sweep::SweepSpec make_sweep_spec(const std::string& kind, std::uint64_t seed) {
  Rng rng(mix_seed(seed, 300));
  std::vector<double> ps;
  for (std::size_t i = 0; i < kSweepPs; ++i)
    ps.push_back((static_cast<double>(i) + 0.05 + 0.9 * rng.uniform01()) /
                 static_cast<double>(kSweepPs));
  sweep::SweepSpec spec("perfbench_" + kind, seed);
  spec.set_config_tag("exact_ppc");
  if (kind == "main") {
    spec.add_block("maj", {3, 5, 7, 9});
    spec.add_block("wheel", {4, 5, 6, 7});
    spec.add_block("hqs", {1, 2});
    spec.add_block("cw", {0, 1, 2});
    spec.add_block("tree", {1, 2});
    spec.set_ps(ps);
  } else if (kind == "journaled") {
    spec.add_block("maj", {3, 5, 7});
    spec.set_ps(std::vector<double>(ps.begin(), ps.begin() + 100));
  } else if (kind == "dispatch") {
    spec.add_block("maj", {3, 5});
    spec.set_ps(ps);
  } else if (kind == "single") {
    spec.add_block("maj", {3});
    spec.set_ps({0.5});
  } else {
    throw std::invalid_argument("unknown sweep spec kind " + kind);
  }
  return spec;
}

sweep::PointEvaluator sweep_evaluator() {
  return sweep::find_standard_evaluator("exact_ppc", 1);
}

struct SweepContext {
  std::string self_exe;
  std::string run_dir;
  std::uint64_t seed = 0;
};

std::vector<sweep::PointResult> run_sweep(const SweepContext& ctx,
                                          const std::string& kind,
                                          std::size_t workers,
                                          const std::string& journal,
                                          bool resume) {
  sweep::SweepOptions options;
  options.workers = workers;
  if (workers > 0)
    options.worker_command = {ctx.self_exe, "--sweep-worker", kind, "--seed",
                              std::to_string(ctx.seed)};
  options.checkpoint_path = journal;
  options.resume = resume;
  return sweep::SweepRunner(make_sweep_spec(kind, ctx.seed), options)
      .run(sweep_evaluator());
}

/// sweep_fabric: a few thousand cheap points over kSweepWorkers
/// single-thread pipe workers, then a tenth as many with a checkpoint
/// journal, then a resume replay of that journal.  Only a tenth is
/// journaled because fdatasync on the checkout's disk is the noisiest cost
/// in the round: on the VM the bounds were set on, a fully journaled round
/// took 2.5x as long when the disk was busy, which would hide any change
/// to dispatch.
class SweepWorkload : public Workload {
 public:
  explicit SweepWorkload(SweepContext ctx) : ctx_(std::move(ctx)) {
    for (const char* kind : {"main", "journaled"}) {
      const sweep::SweepSpec spec = make_sweep_spec(kind, ctx_.seed);
      for (const sweep::SweepPoint& point : spec.expand())
        names_.push_back(std::string(kind) + "/" + point.id);
    }
  }
  const std::vector<std::string>& ops() const override { return names_; }
  const char* work_unit() const override { return "points"; }
  double work_per_round() const override {
    return static_cast<double>(names_.size());
  }
  void run_round(std::size_t round, Tracer* tracer,
                 RoundResults& out) override {
    const std::string journal = journal_path(round);
    // Each re-queue is one point forfeited by a worker that crashed or
    // broke the protocol; the point is recovered, but it counts as failed.
    obs::Counter& requeued =
        obs::MetricsRegistry::instance().counter("sweep/points_requeued");
    const std::uint64_t requeued_before = requeued.value();
    std::vector<sweep::PointResult> results;
    std::vector<sweep::PointResult> replayed;
    try {
      {
        SpanScope span(tracer, "SweepRunner::run", "sweep");
        results = run_sweep(ctx_, "main", kSweepWorkers, "", false);
      }
      {
        SpanScope span(tracer, "SweepRunner::run(journal)", "sweep");
        std::vector<sweep::PointResult> journaled =
            run_sweep(ctx_, "journaled", kSweepWorkers, journal, false);
        results.insert(results.end(), journaled.begin(), journaled.end());
      }
      {
        SpanScope span(tracer, "SweepRunner::run(resume)", "sweep");
        replayed = run_sweep(ctx_, "journaled", 0, journal, true);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: sweep round " << round << " threw: " << e.what()
                << "\n";
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].reset();
      if (i < results.size() && !results[i].quarantined)
        out[i] = results[i].stats;
    }
    const std::size_t first_journaled = out.size() - journaled_count();
    for (std::size_t j = 0; j < journaled_count(); ++j) {
      const std::size_t i = first_journaled + j;
      const bool restored = j < replayed.size() &&
                            replayed[j].from_checkpoint && out[i] &&
                            same_stats(replayed[j].stats, *out[i]);
      if (!restored) replay_failures_.push_back({round, i});
    }
    forfeits_.push_back(requeued.value() - requeued_before);
    last_journal_ = journal;
  }
  /// Removes the finished round's journal.
  void after_round() override {
    std::error_code ignored;
    std::filesystem::remove(last_journal_, ignored);
  }
  void check(const RoundResults& first, std::size_t rounds,
             Checks& checks) override {
    for (const auto& [round, i] : replay_failures_)
      checks.fail(round, names_[i], "resume did not restore the record");
    for (std::size_t round = 0; round < forfeits_.size(); ++round)
      for (std::uint64_t k = 0; k < forfeits_[round]; ++k)
        checks.fail(round, "forfeit#" + std::to_string(k),
                    "a pipe worker died with a point in flight");
    std::vector<sweep::PointResult> reference =
        run_sweep(ctx_, "main", 0, "", false);
    const std::vector<sweep::PointResult> journaled =
        run_sweep(ctx_, "journaled", 0, "", false);
    reference.insert(reference.end(), journaled.begin(), journaled.end());
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (!first[i]) continue;
      if (i < reference.size() && same_stats(reference[i].stats, *first[i]))
        continue;
      for (std::size_t r = 0; r < rounds; ++r)
        checks.fail(r, names_[i], "differs from the in-process run");
    }
  }

 private:
  std::size_t journaled_count() const {
    return make_sweep_spec("journaled", ctx_.seed).point_count();
  }

  std::string journal_path(std::size_t round) const {
    return ctx_.run_dir + "/journal-" + std::to_string(::getpid()) + "-" +
           std::to_string(round) + ".jsonl";
  }

  SweepContext ctx_;
  std::vector<std::string> names_;
  std::vector<std::pair<std::size_t, std::size_t>> replay_failures_;
  std::vector<std::uint64_t> forfeits_;  // per round
  std::string last_journal_;
};

// ---------------------------------------------------------------------------
// Machine and run facts recorded with every run.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Steal ticks of the aggregate "cpu" line of /proc/stat; -1 if unreadable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  long long fields[8] = {};
  if (!(in >> label) || label != "cpu") return -1;
  for (long long& field : fields)
    if (!(in >> field)) return -1;
  return fields[7];
}

std::string filesystem_of(const std::string& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  constexpr unsigned long kTmpfsMagic = 0x01021994;
  if (static_cast<unsigned long>(info.f_type) == kTmpfsMagic) return "tmpfs";
  char buf[32];
  std::snprintf(buf, sizeof buf, "disk (f_type 0x%lx)",
                static_cast<unsigned long>(info.f_type));
  return buf;
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kb = self.ru_maxrss;
  if (include_children) {
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kb = std::max(kb, children.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

// ---------------------------------------------------------------------------
// Per-layer probes: each times one layer's public functions on the
// workloads' own inputs.  Every traced run reports all of them.

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void put(Metrics& metrics, const std::string& name, double value,
         const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

double time_s(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return elapsed_s(t0, Clock::now());
}

volatile std::uint64_t g_sink = 0;

void probe_coloring_engine(std::uint64_t seed, Tracer* tracer,
                           Metrics& metrics) {
  McFamilies f;
  const ProbeMaj maj(f.maj63);
  const ProbeTree tree(f.tree63);
  const ProbeHQS hqs(f.hqs81);
  const ProbeCW cw(f.cw55);
  const std::pair<const QuorumSystem*, const ProbeStrategy*> cases[] = {
      {&f.maj63, &maj}, {&f.tree63, &tree}, {&f.hqs81, &hqs}, {&f.cw55, &cw}};
  const SimdKernels& kernels = resolve_simd_kernels(SimdIsa::kAuto);
  constexpr std::size_t kTrials = std::size_t{1} << 16;
  constexpr std::size_t kBatch = 1024;

  double sample_s = 0.0, transpose_s = 0.0, kernel_s = 0.0, estimate_s = 0.0;
  double trials = 0.0;
  std::uint64_t salt = 400;
  for (const auto& [system, strategy] : cases) {
    const std::size_t n = system->universe_size();
    const std::size_t stride = (n + 63) / 64;
    for (const double p : {0.1, 0.5, 0.9}) {
      const std::uint64_t stream_seed = mix_seed(seed, salt++);
      std::vector<std::uint64_t> masks(kTrials * stride);
      Rng rng(stream_seed);
      {
        SpanScope span(tracer, "sample_iid_coloring_words", "coloring");
        sample_s += time_s([&] {
          for (std::size_t b = 0; b < kTrials; b += kBatch)
            sample_iid_coloring_words(masks.data() + b * stride, kBatch, n, p,
                                      rng);
        });
      }
      const std::size_t cap = 64 * kernels.width;
      std::vector<std::uint64_t> element_words(n * kernels.width);
      {
        SpanScope span(tracer, "transpose_coloring_words_strided", "coloring");
        transpose_s += time_s([&] {
          for (std::size_t off = 0; off < kTrials; off += cap) {
            transpose_coloring_words_strided(
                masks.data() + off * stride, std::min(cap, kTrials - off), n,
                kernels.width, element_words.data());
            g_sink = g_sink + element_words[0];
          }
        });
      }
      {
        SpanScope span(tracer, "BatchTrialBlock::load+run_batch", "engine");
        BatchTrialBlock block;
        block.configure(kernels, n);
        for (std::size_t off = 0; off < kTrials; off += cap) {
          block.load(masks.data() + off * stride, std::min(cap, kTrials - off));
          (void)block.view();  // transpose outside the kernel timing
          const auto t0 = Clock::now();
          strategy->run_batch(block, rng);
          kernel_s += elapsed_s(t0, Clock::now());
          g_sink = g_sink + block.probe_count(0);
        }
      }
      {
        SpanScope span(tracer, "estimate_ppc(threads=1)", "engine");
        EngineOptions options;
        options.trials = kTrials;
        options.threads = 1;
        options.seed = stream_seed;
        estimate_s += time_s([&] {
          g_sink = g_sink + estimate_ppc(*system, *strategy, p, options).count();
        });
      }
      trials += static_cast<double>(kTrials);
    }
  }
  put(metrics, "coloring.sample_ns_per_trial", sample_s / trials * 1e9, "ns");
  put(metrics, "coloring.transpose_ns_per_trial", transpose_s / trials * 1e9,
      "ns");
  put(metrics, "engine.kernel_ns_per_trial", kernel_s / trials * 1e9, "ns");
  put(metrics, "engine.outside_kernel_frac",
      1.0 - (sample_s + transpose_s + kernel_s) / estimate_s, "fraction");

  // Thread scaling and merge contention on the same inputs at p = 1/2.
  constexpr std::size_t kScaleTrials = std::size_t{1} << 18;
  obs::Histogram& merge_wait =
      obs::MetricsRegistry::instance().histogram("engine/merge_wait_us");
  double one_s = 0.0, many_s = 0.0;
  std::uint64_t wait_us = 0;
  for (const auto& [system, strategy] : cases) {
    EngineOptions options;
    options.trials = kScaleTrials;
    options.seed = mix_seed(seed, salt++);
    options.threads = 1;
    {
      SpanScope span(tracer, "estimate_ppc(threads=1)", "engine");
      one_s += time_s([&] {
        g_sink = g_sink + estimate_ppc(*system, *strategy, 0.5, options).count();
      });
    }
    options.threads = kMcThreads;
    const std::uint64_t before = merge_wait.sum();
    {
      SpanScope span(tracer, "estimate_ppc(threads=T)", "engine");
      many_s += time_s([&] {
        g_sink = g_sink + estimate_ppc(*system, *strategy, 0.5, options).count();
      });
    }
    wait_us += merge_wait.sum() - before;
  }
  const double threads = static_cast<double>(kMcThreads);
  put(metrics, "engine.thread_efficiency", one_s / (threads * many_s),
      "fraction");
  put(metrics, "engine.merge_wait_frac",
      static_cast<double>(wait_us) * 1e-6 / (threads * many_s), "fraction");
}

void probe_algorithms(std::uint64_t seed, Tracer* tracer, Metrics& metrics) {
  McFamilies f;
  const ProbeMaj maj(f.maj63);
  const RProbeMaj rmaj(f.maj63);
  const ProbeTree tree(f.tree63);
  const RProbeTree rtree(f.tree63);
  const ProbeHQS hqs(f.hqs81);
  const RProbeHQS rhqs(f.hqs81);
  const ProbeCW cw(f.cw55);
  const RProbeCW rcw(f.cw55);
  const IRProbeHQS irhqs(f.hqs81);
  struct Pair {
    const QuorumSystem* system;
    const ProbeStrategy* randomized;
    const ProbeStrategy* sibling;
  };
  const Pair pairs[] = {{&f.maj63, &rmaj, &maj},
                        {&f.tree63, &rtree, &tree},
                        {&f.hqs81, &rhqs, &hqs},
                        {&f.cw55, &rcw, &cw}};
  const SimdKernels& kernels = resolve_simd_kernels(SimdIsa::kAuto);
  constexpr std::size_t kTrials = std::size_t{1} << 15;
  double rand_s = 0.0, det_s = 0.0, trials = 0.0;
  std::uint64_t salt = 500;
  for (const Pair& pair : pairs) {
    const std::size_t n = pair.system->universe_size();
    const std::size_t stride = (n + 63) / 64;
    Rng rng(mix_seed(seed, salt++));
    std::vector<std::uint64_t> masks(kTrials * stride);
    sample_iid_coloring_words(masks.data(), kTrials, n, 0.5, rng);
    BatchTrialBlock block;
    block.configure(kernels, n);
    const std::size_t cap = block.lane_capacity();
    SpanScope span(tracer, "run_batch(randomized vs sibling)", "algorithms");
    for (std::size_t off = 0; off < kTrials; off += cap) {
      const std::size_t lanes = std::min(cap, kTrials - off);
      block.load(masks.data() + off * stride, lanes);
      rand_s += time_s([&] { pair.randomized->run_batch(block, rng); });
      g_sink = g_sink + block.probe_count(0);
      block.load(masks.data() + off * stride, lanes);
      det_s += time_s([&] { pair.sibling->run_batch(block, rng); });
      g_sink = g_sink + block.probe_count(0);
    }
    trials += static_cast<double>(kTrials);
  }
  put(metrics, "algorithms.rand_batch_ns_per_trial", rand_s / trials * 1e9,
      "ns");
  put(metrics, "algorithms.predraw_frac", 1.0 - det_s / rand_s, "fraction");

  // ProbeStrategy::run, the scalar reference path, on i.i.d. colorings.
  {
    constexpr std::size_t kScalar = std::size_t{1} << 14;
    const std::size_t n = f.hqs81.universe_size();
    const std::size_t stride = (n + 63) / 64;
    Rng rng(mix_seed(seed, salt++));
    std::vector<std::uint64_t> masks(kScalar * stride);
    sample_iid_coloring_words(masks.data(), kScalar, n, 0.5, rng);
    std::vector<Coloring> colorings(kScalar, Coloring(n));
    for (std::size_t t = 0; t < kScalar; ++t)
      colorings[t].assign_greens_words(masks.data() + t * stride);
    SpanScope span(tracer, "IR_Probe_HQS::run", "algorithms");
    const double scalar_s = time_s([&] {
      for (const Coloring& coloring : colorings) {
        ProbeSession session(coloring);
        (void)irhqs.run(session, rng);
        g_sink = g_sink + session.probe_count();
      }
    });
    put(metrics, "algorithms.scalar_run_ns_per_trial",
        scalar_s / static_cast<double>(kScalar) * 1e9, "ns");
  }

  // expected_probes_on over mc_randomized's own hard colorings, 1 thread.
  {
    const McRandomizedWorkload workload(seed);
    double fixed_s = 0.0, fixed_trials = 0.0;
    for (const McOp& op : workload.mc_ops()) {
      if (!op.fixed) continue;
      SpanScope span(tracer, "expected_probes_on(threads=1)", "algorithms");
      fixed_s += time_s(
          [&] { g_sink = g_sink + run_mc_op(op, op.trials, 1).count(); });
      fixed_trials += static_cast<double>(op.trials);
    }
    put(metrics, "algorithms.fixed_coloring_ns_per_trial",
        fixed_s / fixed_trials * 1e9, "ns");
  }
}

/// Computed (not measured) bytes one PPC level solve touches per state:
/// each level-k state is written once (8 B) and reads two 8-byte child
/// values for each of its n - k unprobed elements.
double computed_bytes_per_state(std::size_t n) {
  double bytes = 0.0;
  for (std::size_t k = 0; k <= n; ++k)
    bytes += static_cast<double>(exact::dp_state_count(n, k)) *
             (8.0 + 16.0 * static_cast<double>(n - k));
  return bytes / pow3(n);
}

void probe_exact(Tracer* tracer, Metrics& metrics) {
  const MajoritySystem maj11(11);
  const CrumblingWall cw10(std::vector<std::size_t>{1, 2, 3, 4});
  const TreeSystem tree15(3);
  const MajoritySystem maj17(17);
  exact::DpOptions options;
  options.threads = kDpThreads;
  double cached_s = 0.0, cached_states = 0.0;
  {
    SpanScope span(tracer, "ppc_exact(n<=12)", "exact");
    for (int rep = 0; rep < 5; ++rep)
      for (const QuorumSystem* system :
           {static_cast<const QuorumSystem*>(&maj11),
            static_cast<const QuorumSystem*>(&cw10)}) {
        cached_s += time_s([&] { (void)ppc_exact(*system, 0.5, options); });
        cached_states += pow3(system->universe_size());
      }
  }
  put(metrics, "exact.ns_per_state_cached", cached_s / cached_states * 1e9,
      "ns");
  double streamed_s = 0.0, minimax_s = 0.0;
  {
    SpanScope span(tracer, "ppc_exact(n=17)", "exact");
    streamed_s = time_s([&] { (void)ppc_exact(maj17, 0.5, options); });
  }
  {
    SpanScope span(tracer, "pc_exact(n=17)", "exact");
    minimax_s = time_s([&] { (void)pc_exact(maj17, options); });
  }
  put(metrics, "exact.ns_per_state_streamed", streamed_s / pow3(17) * 1e9,
      "ns");
  put(metrics, "exact.minimax_ns_per_state", minimax_s / pow3(17) * 1e9, "ns");
  put(metrics, "exact.computed_bytes_per_state", computed_bytes_per_state(17),
      "B");
  double one_s = 0.0, many_s = 0.0;
  {
    SpanScope span(tracer, "ppc_exact(n=15, threads=1 vs T)", "exact");
    exact::DpOptions single;
    single.threads = 1;
    one_s = time_s([&] { (void)ppc_exact(tree15, 0.5, single); });
    many_s = time_s([&] { (void)ppc_exact(tree15, 0.5, options); });
  }
  put(metrics, "exact.thread_efficiency",
      one_s / (static_cast<double>(kDpThreads) * many_s), "fraction");
  put(metrics, "exact.peak_frontier_mb",
      static_cast<double>(exact::dp_peak_bytes(17, 8, false, false)) /
          (1024.0 * 1024.0),
      "MiB");
}

void probe_sweep(const SweepContext& ctx, Tracer* tracer, Metrics& metrics) {
  // Worker spawn: a one-point sweep over one pipe worker, minus the same
  // point in-process.
  std::vector<double> spawn_s;
  {
    SpanScope span(tracer, "SweepRunner::run(1 point, 1 worker)", "sweep");
    for (int rep = 0; rep < 5; ++rep) {
      const double pooled = time_s([&] { (void)run_sweep(ctx, "single", 1, "", false); });
      const double local = time_s([&] { (void)run_sweep(ctx, "single", 0, "", false); });
      spawn_s.push_back(pooled - local);
    }
  }
  const double spawn = median(spawn_s);
  put(metrics, "sweep.worker_spawn_ms", spawn * 1e3, "ms");

  // Dispatch: one pipe worker minus in-process on the same grid, spawn
  // excluded, per point.
  {
    SpanScope span(tracer, "SweepRunner::run(dispatch grid)", "sweep");
    const double points = static_cast<double>(
        make_sweep_spec("dispatch", ctx.seed).point_count());
    std::vector<double> per_point;
    for (int rep = 0; rep < 3; ++rep) {
      const double pooled = time_s([&] { (void)run_sweep(ctx, "dispatch", 1, "", false); });
      const double local = time_s([&] { (void)run_sweep(ctx, "dispatch", 0, "", false); });
      per_point.push_back((pooled - spawn - local) / points);
    }
    put(metrics, "sweep.dispatch_us_per_point", median(per_point) * 1e6, "us");
  }

  const sweep::SweepSpec spec = make_sweep_spec("main", ctx.seed);
  const std::vector<sweep::SweepPoint> points = spec.expand();
  const std::uint64_t fingerprint = spec.fingerprint();
  {
    SpanScope span(tracer, "encode_result+decode_result", "sweep");
    constexpr std::size_t kRoundTrips = 20000;
    RunningStats stats;
    stats.add(2.5);
    stats.add(3.25);
    const double wire_s = time_s([&] {
      for (std::size_t i = 0; i < kRoundTrips; ++i) {
        const std::string line = sweep::encode_result(
            spec.name(), fingerprint, points[i % points.size()], stats);
        const auto decoded = sweep::decode_result(line);
        g_sink = g_sink + (decoded ? decoded->index : 0);
      }
    });
    put(metrics, "sweep.wire_roundtrip_ns",
        wire_s / static_cast<double>(kRoundTrips) * 1e9, "ns");
  }

  const std::string journal =
      ctx.run_dir + "/probe-journal-" + std::to_string(::getpid()) + ".jsonl";
  std::error_code ignored;
  std::filesystem::remove(journal, ignored);
  constexpr std::size_t kAppends = 1000;
  {
    SpanScope span(tracer, "SweepCheckpoint::record", "sweep");
    sweep::SweepCheckpoint checkpoint(journal, spec.name(), fingerprint, false);
    RunningStats stats;
    stats.add(1.5);
    std::vector<double> append_us;
    for (std::size_t i = 0; i < kAppends; ++i) {
      const auto t0 = Clock::now();
      checkpoint.record(points[i % points.size()], stats);
      append_us.push_back(elapsed_s(t0, Clock::now()) * 1e6);
    }
    put(metrics, "sweep.journal_append_us_p50", percentile(append_us, 0.50),
        "us");
    put(metrics, "sweep.journal_append_us_p99", percentile(append_us, 0.99),
        "us");
  }
  {
    SpanScope span(tracer, "SweepCheckpoint(resume)", "sweep");
    std::size_t recovered = 0;
    const double replay_s = time_s([&] {
      sweep::SweepCheckpoint replay(journal, spec.name(), fingerprint, true);
      recovered = replay.recovery().recovered;
    });
    put(metrics, "sweep.replay_records_per_s",
        static_cast<double>(recovered) / replay_s, "records/s");
  }
  std::filesystem::remove(journal, ignored);
}

// ---------------------------------------------------------------------------
// Running a workload.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string self_exe;
  // When this process started, in monotonic_ns(); main() entry by default.
  std::int64_t start_ns = 0;
  bool setup_only = false;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "mc_det")
    return std::make_unique<McDetWorkload>(args.seed);
  if (args.workload == "mc_randomized")
    return std::make_unique<McRandomizedWorkload>(args.seed);
  if (args.workload == "exact_dp")
    return std::make_unique<ExactWorkload>(args.seed);
  if (args.workload == "sweep_fabric")
    return std::make_unique<SweepWorkload>(
        SweepContext{args.self_exe, args.out_dir, args.seed});
  throw std::invalid_argument("unknown workload " + args.workload);
}

struct Pass {
  std::vector<double> round_s;
  std::vector<RoundResults> results;
};

/// Runs rounds until `budget_s` is spent and at least `min_rounds` ran.
Pass run_pass(Workload& workload, double budget_s, std::size_t min_rounds,
              std::size_t first_round, Tracer* tracer) {
  Pass pass;
  const auto start = Clock::now();
  while (pass.round_s.size() < min_rounds ||
         elapsed_s(start, Clock::now()) < budget_s) {
    RoundResults out(workload.ops().size());
    const std::size_t round = first_round + pass.round_s.size();
    const auto t0 = Clock::now();
    {
      SpanScope span(tracer, "round", "bench");
      workload.run_round(round, tracer, out);
    }
    pass.round_s.push_back(elapsed_s(t0, Clock::now()));
    pass.results.push_back(std::move(out));
    workload.after_round();
  }
  return pass;
}

/// Determinism across rounds, then the workload's own checks.
void check_pass(Workload& workload, const std::vector<RoundResults>& rounds,
                Checks& checks) {
  const std::vector<std::string>& ops = workload.ops();
  for (std::size_t r = 0; r < rounds.size(); ++r)
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!rounds[r][i]) {
        checks.fail(r, ops[i], "no result (exception or quarantine)");
      } else if (r > 0 && rounds[0][i] &&
                 !same_stats(*rounds[r][i], *rounds[0][i])) {
        checks.fail(r, ops[i], "result differs from round 0");
      }
    }
  workload.check(rounds[0], rounds.size(), checks);
}

void print_result(const Checks& checks, std::size_t attempted,
                  const Metrics& metrics) {
  for (const std::string& message : checks.messages())
    std::cerr << message << "\n";
  if (checks.failed() > checks.messages().size())
    std::cerr << "perfbench: ... " << checks.failed() - checks.messages().size()
              << " more failed operation(s)\n";
  std::ostringstream os;
  os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << checks.failed()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i == 0 ? "" : ", ") << json_quote(metrics[i].first)
       << ": {\"value\": " << json_number(metrics[i].second.first)
       << ", \"unit\": " << json_quote(metrics[i].second.second) << "}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_run_info(const Args& args, long long steal_before,
                    long long steal_after, const std::string& journal_fs) {
  const SimdKernels& kernels = resolve_simd_kernels(SimdIsa::kAuto);
  std::ostringstream os;
  os << "{\"run_info\": {\"workload\": " << json_quote(args.workload)
     << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"cpu_model\": " << json_quote(cpu_model())
     << ", \"simd_isa\": " << json_quote(simd_isa_name(kernels.isa))
     << ", \"compiler\": " << json_quote(QPS_PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_quote(QPS_PERFBENCH_BUILD_TYPE)
     << ", \"commit\": " << json_quote(args.commit)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"mc_threads\": " << kMcThreads << ", \"dp_threads\": " << kDpThreads
     << ", \"sweep_workers\": " << kSweepWorkers
     << ", \"sweep_worker_dp_threads\": 1"
     << ", \"steal_ticks_before\": " << steal_before
     << ", \"steal_ticks_after\": " << steal_after
     << ", \"steal_ticks\": " << steal_after - steal_before;
  if (args.workload == "sweep_fabric")
    os << ", \"journal_fs\": " << json_quote(journal_fs)
       << ", \"journal_reason\": "
       << json_quote(
              "the benchmark writes only inside its checkout, so the journal "
              "lives on the checkout's filesystem and its fdatasync cost is "
              "part of what sweep_fabric measures");
  os << "}}";
  std::cout << os.str() << "\n";
}

int run_end_to_end(const Args& args) {
  // Set-up: process start to the first timed call.  No warm-up runs in
  // between; the first round pays the cold start and the median round
  // leaves it out of wall_s.
  std::unique_ptr<Workload> workload = make_workload(args);
  const double setup_s =
      static_cast<double>(monotonic_ns() - args.start_ns) * 1e-9;
  if (args.setup_only) {
    std::cout << "{\"setup_s\": " << json_number(setup_s) << "}" << std::endl;
    return 0;
  }

  const long long steal_before = steal_ticks();
  const Pass pass = run_pass(*workload, args.seconds, kMinRounds, 0, nullptr);
  const long long steal_after = steal_ticks();

  Checks checks;
  check_pass(*workload, pass.results, checks);
  const std::size_t attempted = pass.results.size() * workload->ops().size();

  const double wall = median(pass.round_s);
  const double work = workload->work_per_round();
  const std::string unit = workload->work_unit();
  print_run_info(args, steal_before, steal_after, filesystem_of(args.out_dir));
  {
    // The workload's own name for ops_per_s, and failed_frac.
    std::ostringstream os;
    os << "{\"workload_metrics\": {\"" << unit << "_per_s\": {\"value\": "
       << json_number(work / wall) << ", \"unit\": \"" << unit << "/s\"}"
       << ", \"failed_frac\": {\"value\": "
       << json_number(static_cast<double>(checks.failed()) /
              static_cast<double>(attempted))
       << ", \"unit\": \"fraction\"}, \"rounds\": " << pass.round_s.size()
       << ", \"ops_per_round\": " << workload->ops().size()
       << ", \"round_s\": [";
    for (std::size_t r = 0; r < pass.round_s.size(); ++r)
      os << (r == 0 ? "" : ", ") << json_number(pass.round_s[r]);
    os << "]}}";
    std::cout << os.str() << "\n";
  }
  const bool sweep = args.workload == "sweep_fabric";
  workload.reset();
  Metrics metrics;
  put(metrics, "setup_s", setup_s, "s");
  put(metrics, "wall_s", wall, "s");
  put(metrics, "ops_per_s", work / wall, "ops/s");
  put(metrics, "peak_rss_mb", peak_rss_mb(sweep), "MiB");
  print_result(checks, attempted, metrics);
  return 0;
}

int run_traced(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args);
  Tracer tracer(true);

  const long long steal_before = steal_ticks();
  const double budget = args.seconds * 0.3;
  // One cold round first, so neither timed pass pays the cold start.
  const Pass cold = run_pass(*workload, 0.0, 1, 0, nullptr);
  const Pass plain = run_pass(*workload, budget, kMinTracedRounds, 1, nullptr);
  const std::size_t first_span = tracer.size();
  const Pass traced = run_pass(*workload, budget, kMinTracedRounds,
                               1 + plain.round_s.size(), &tracer);
  const long long steal_after = steal_ticks();

  const std::map<std::string, double> self = tracer.self_seconds(first_span);
  const double root_s = tracer.root_seconds(first_span);
  const double unattributed = self.count("bench") ? self.at("bench") / root_s : 0.0;

  Checks checks;
  std::vector<RoundResults> all = cold.results;
  all.insert(all.end(), plain.results.begin(), plain.results.end());
  all.insert(all.end(), traced.results.begin(), traced.results.end());
  check_pass(*workload, all, checks);
  const std::size_t attempted = all.size() * workload->ops().size();
  workload.reset();

  Metrics metrics;
  probe_coloring_engine(args.seed, &tracer, metrics);
  probe_algorithms(args.seed, &tracer, metrics);
  probe_exact(&tracer, metrics);
  probe_sweep(SweepContext{args.self_exe, args.out_dir, args.seed}, &tracer,
              metrics);
  put(metrics, "bench.trace_overhead_frac",
      median(traced.round_s) / median(plain.round_s) - 1.0, "fraction");
  put(metrics, "bench.unattributed_frac", unattributed, "fraction");

  print_run_info(args, steal_before, steal_after, filesystem_of(args.out_dir));
  {
    std::ostringstream os;
    os << "{\"layer_self_s\": {";
    bool first = true;
    for (const auto& [layer, seconds] : self) {
      os << (first ? "" : ", ") << json_quote(layer) << ": "
         << json_number(seconds);
      first = false;
    }
    os << "}, \"traced_root_s\": " << json_number(root_s) << "}";
    std::cout << os.str() << "\n";
  }
  const std::string trace_path =
      args.out_dir + "/trace-" + args.workload + ".json";
  tracer.write_chrome(trace_path);
  std::cerr << "perfbench: wrote " << trace_path << "\n";
  print_result(checks, attempted, metrics);
  return 0;
}

int sweep_worker_main(int argc, char** argv) {
  // qps_perfbench --sweep-worker KIND --seed N: serve one spec's points
  // over the pipe protocol (requests on stdin, results on fd 3).
  if (argc != 5 || std::string(argv[3]) != "--seed") return 2;
  const sweep::SweepSpec spec =
      make_sweep_spec(argv[2], std::stoull(argv[4]));
  return sweep::SweepRunner::serve(spec, sweep_evaluator(), STDIN_FILENO, 3);
}

int usage(const std::string& why) {
  std::cerr << "qps_perfbench: " << why
            << "\nusage: qps_perfbench --workload "
               "{mc_det|mc_randomized|exact_dp|sweep_fabric} --seed N "
               "--seconds S --trace {0|1} --out-dir DIR [--commit SHA]\n"
               "       [--start-ns NS] [--setup-only 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--sweep-worker")
    return sweep_worker_main(argc, argv);
  Args args;
  args.start_ns = monotonic_ns();
  std::error_code ec;
  args.self_exe = std::filesystem::canonical("/proc/self/exe", ec).string();
  if (ec) args.self_exe = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--out-dir") args.out_dir = value;
      else if (flag == "--commit") args.commit = value;
      else if (flag == "--start-ns") args.start_ns = std::stoll(value);
      else if (flag == "--setup-only") args.setup_only = value == "1";
      else return usage("unknown flag " + flag);
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  if (args.workload.empty()) return usage("--workload is required");
  try {
    return args.trace ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::cerr << "qps_perfbench: " << e.what() << "\n";
    return 1;
  }
}
