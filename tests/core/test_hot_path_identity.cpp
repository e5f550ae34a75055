// Bit-identity of the engine's fast path against the reference run().
//
// Two layers of guarantees:
//  * Strategy layer: for every strategy x family, run_batch() reproduces a
//    loop of run() calls lane for lane -- the same probe count on every
//    lane's coloring and the same Rng draws in trial order.  Strategies
//    without a batch kernel run run() on a reused session, which must
//    match a fresh session per trial.
//  * Engine layer: estimate_ppc and expected_probes_on return bitwise the
//    statistics of a hand loop of run() over the same per-batch streams
//    (Rng::for_stream(seed, k)) and the same colorings, for any thread
//    count, with a partial last batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/algorithms/greedy.h"
#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_hqs.h"
#include "core/algorithms/probe_maj.h"
#include "core/algorithms/probe_tree.h"
#include "core/algorithms/random_order.h"
#include "core/engine/batch_kernel.h"
#include "core/engine/trial_workspace.h"
#include "core/estimator.h"
#include "quorum/crumbling_wall.h"
#include "quorum/hqs.h"
#include "quorum/majority.h"
#include "quorum/tree_system.h"

namespace qps {
namespace {

struct Case {
  std::string label;
  std::shared_ptr<const QuorumSystem> system;
  std::shared_ptr<const ProbeStrategy> strategy;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const auto add = [&](std::string label,
                       std::shared_ptr<const QuorumSystem> system,
                       std::shared_ptr<const ProbeStrategy> strategy) {
    cases.push_back({std::move(label), std::move(system), std::move(strategy)});
  };

  auto maj21 = std::make_shared<MajoritySystem>(21);
  add("Probe_Maj/Maj21", maj21, std::make_shared<ProbeMaj>(*maj21));
  add("R_Probe_Maj/Maj21", maj21, std::make_shared<RProbeMaj>(*maj21));
  add("Random_Order/Maj21", maj21, std::make_shared<RandomOrderProbe>(*maj21));

  auto maj63 = std::make_shared<MajoritySystem>(63);
  add("Probe_Maj/Maj63", maj63, std::make_shared<ProbeMaj>(*maj63));
  add("R_Probe_Maj/Maj63", maj63, std::make_shared<RProbeMaj>(*maj63));

  auto maj7 = std::make_shared<MajoritySystem>(7);
  add("Greedy/Maj7", maj7, std::make_shared<GreedyCandidateProbe>(*maj7));

  auto tree2 = std::make_shared<TreeSystem>(2);  // n = 7
  add("Probe_Tree/Tree2", tree2, std::make_shared<ProbeTree>(*tree2));
  add("R_Probe_Tree/Tree2", tree2, std::make_shared<RProbeTree>(*tree2));
  add("Random_Order/Tree2", tree2,
      std::make_shared<RandomOrderProbe>(*tree2));
  add("Greedy/Tree2", tree2, std::make_shared<GreedyCandidateProbe>(*tree2));

  auto tree5 = std::make_shared<TreeSystem>(5);  // n = 63
  add("Probe_Tree/Tree5", tree5, std::make_shared<ProbeTree>(*tree5));
  add("R_Probe_Tree/Tree5", tree5, std::make_shared<RProbeTree>(*tree5));

  auto hqs2 = std::make_shared<HQSystem>(2);  // n = 9
  add("Probe_HQS/Hqs2", hqs2, std::make_shared<ProbeHQS>(*hqs2));
  add("R_Probe_HQS/Hqs2", hqs2, std::make_shared<RProbeHQS>(*hqs2));
  add("IR_Probe_HQS/Hqs2", hqs2, std::make_shared<IRProbeHQS>(*hqs2));

  auto hqs3 = std::make_shared<HQSystem>(3);  // n = 27
  add("Probe_HQS/Hqs3", hqs3, std::make_shared<ProbeHQS>(*hqs3));
  add("R_Probe_HQS/Hqs3", hqs3, std::make_shared<RProbeHQS>(*hqs3));
  add("IR_Probe_HQS/Hqs3", hqs3, std::make_shared<IRProbeHQS>(*hqs3));

  auto hqs4 = std::make_shared<HQSystem>(4);  // n = 81: two-word supports
  add("IR_Probe_HQS/Hqs4", hqs4, std::make_shared<IRProbeHQS>(*hqs4));

  auto cw4 = std::make_shared<CrumblingWall>(CrumblingWall::triang(4));
  add("Probe_CW/Triang4", cw4, std::make_shared<ProbeCW>(*cw4));
  add("R_Probe_CW/Triang4", cw4, std::make_shared<RProbeCW>(*cw4));

  auto cw10 = std::make_shared<CrumblingWall>(CrumblingWall::triang(10));
  add("Probe_CW/Triang10", cw10, std::make_shared<ProbeCW>(*cw10));
  add("R_Probe_CW/Triang10", cw10, std::make_shared<RProbeCW>(*cw10));

  // Multi-word universes: lane rows of 2-4 words, bit swaps across word
  // boundaries, value planes over deeper trees, W = 2/4 HQS supports.
  auto maj101 = std::make_shared<MajoritySystem>(101);
  add("Probe_Maj/Maj101", maj101, std::make_shared<ProbeMaj>(*maj101));
  add("R_Probe_Maj/Maj101", maj101, std::make_shared<RProbeMaj>(*maj101));
  add("Random_Order/Maj101", maj101,
      std::make_shared<RandomOrderProbe>(*maj101));

  auto tree6 = std::make_shared<TreeSystem>(6);  // n = 127
  add("Probe_Tree/Tree6", tree6, std::make_shared<ProbeTree>(*tree6));
  add("R_Probe_Tree/Tree6", tree6, std::make_shared<RProbeTree>(*tree6));

  add("Probe_HQS/Hqs4", hqs4, std::make_shared<ProbeHQS>(*hqs4));
  add("R_Probe_HQS/Hqs4", hqs4, std::make_shared<RProbeHQS>(*hqs4));

  auto hqs5 = std::make_shared<HQSystem>(5);  // n = 243
  add("Probe_HQS/Hqs5", hqs5, std::make_shared<ProbeHQS>(*hqs5));
  add("R_Probe_HQS/Hqs5", hqs5, std::make_shared<RProbeHQS>(*hqs5));
  add("IR_Probe_HQS/Hqs5", hqs5, std::make_shared<IRProbeHQS>(*hqs5));

  // Rows [55, 66) and [66, 78): one straddles the 64-bit word boundary.
  auto cw12 = std::make_shared<CrumblingWall>(CrumblingWall::triang(12));
  add("Probe_CW/Triang12", cw12, std::make_shared<ProbeCW>(*cw12));
  add("R_Probe_CW/Triang12", cw12, std::make_shared<RProbeCW>(*cw12));
  return cases;
}

TEST(HotPathIdentity, RunBatchAndRunAgreeOnEveryStrategyAndFamily) {
  for (const SimdIsa isa : {SimdIsa::kOff, SimdIsa::kAuto}) {
    const SimdKernels& kernels = resolve_simd_kernels(isa);
    for (const Case& c : all_cases()) {
      const std::size_t n = c.system->universe_size();
      const std::size_t stride = (n + 63) / 64;
      const std::size_t trials = 100;
      std::vector<std::uint64_t> masks(trials * stride);
      Rng sample_rng(20010826);
      sample_iid_coloring_words(masks.data(), trials, n, 0.4, sample_rng);

      // The engine's path for this strategy: the batch kernel where there is
      // one, otherwise run() on a reused session.
      std::vector<std::uint32_t> engine_counts;
      Rng engine_rng(1000);
      TrialWorkspace ws(n);
      if (c.strategy->supports_batch(n)) {
        BatchTrialBlock& block = ws.batch_block();
        block.configure(kernels, n);
        for (std::size_t off = 0; off < trials; off += block.lane_capacity()) {
          const std::size_t lanes =
              std::min(block.lane_capacity(), trials - off);
          block.load(masks.data() + off * stride, lanes);
          c.strategy->run_batch(block, engine_rng);
          for (std::size_t lane = 0; lane < lanes; ++lane)
            engine_counts.push_back(block.probe_count(lane));
        }
      } else {
        for (std::size_t t = 0; t < trials; ++t) {
          ws.coloring().assign_greens_words(masks.data() + t * stride);
          ProbeSession& session = ws.begin_trial(ws.coloring());
          (void)c.strategy->run(session, engine_rng);
          engine_counts.push_back(
              static_cast<std::uint32_t>(session.probe_count()));
        }
      }

      // The reference: a fresh coloring and session per trial.
      Rng reference_rng(1000);
      for (std::size_t t = 0; t < trials; ++t) {
        Coloring coloring(n);
        coloring.assign_greens_words(masks.data() + t * stride);
        ProbeSession session(coloring);
        const Witness witness = c.strategy->run(session, reference_rng);
        ASSERT_EQ(engine_counts[t], session.probe_count())
            << c.label << " trial " << t << " simd " << simd_isa_name(isa);
        ASSERT_EQ(validate_witness(*c.system, coloring, witness,
                                   session.probed()),
                  "")
            << c.label << " trial " << t;
      }
      // Both paths must also have consumed the same randomness.
      EXPECT_EQ(engine_rng.next_u64(), reference_rng.next_u64())
          << c.label << " simd " << simd_isa_name(isa);
    }
  }
}

EngineOptions engine_options(std::size_t threads) {
  EngineOptions options;
  options.trials = 6000;
  options.threads = threads;
  options.batch_size = 512;
  options.seed = 42;
  return options;
}

TEST(HotPathIdentity, ExpectedProbesOnMatchesGenericEnginePath) {
  const MajoritySystem maj(15);
  const RandomOrderProbe strategy(maj);
  Rng sample_rng(5);
  const Coloring coloring = sample_iid_coloring(15, 0.5, sample_rng);
  const auto options = engine_options(3);
  const ParallelEstimator engine(options);
  const RunningStats generic = engine.run([&](Rng& rng) {
    ProbeSession session(coloring);
    (void)strategy.run(session, rng);
    return static_cast<double>(session.probe_count());
  });
  const RunningStats hot = engine.expected_probes_on(maj, strategy, coloring);
  EXPECT_EQ(generic.count(), hot.count());
  EXPECT_EQ(generic.mean(), hot.mean());
  EXPECT_EQ(generic.variance(), hot.variance());
  EXPECT_THROW(engine.expected_probes_on(maj, strategy, Coloring(14)),
               std::invalid_argument);
}

TEST(HotPathIdentity, WordBatchSamplerIsThreadCountInvariant) {
  // The default estimate_ppc path (batched word sampling + workspaces).
  const TreeSystem tree(3);  // n = 15
  const RProbeTree strategy(tree);
  const auto baseline =
      ParallelEstimator(engine_options(1)).estimate_ppc(tree, strategy, 0.3);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const auto stats = ParallelEstimator(engine_options(threads))
                           .estimate_ppc(tree, strategy, 0.3);
    EXPECT_EQ(stats.count(), baseline.count()) << threads;
    EXPECT_EQ(stats.mean(), baseline.mean()) << threads;
    EXPECT_EQ(stats.variance(), baseline.variance()) << threads;
    EXPECT_EQ(stats.min(), baseline.min()) << threads;
    EXPECT_EQ(stats.max(), baseline.max()) << threads;
  }
}

TEST(HotPathIdentity, ValidationStillCatchesBadWitnessesOnTheHotPath) {
  class Broken final : public ProbeStrategy {
   public:
    std::string name() const override { return "Broken"; }
    Witness run(ProbeSession& session, Rng&) const override {
      session.probe(0);
      Witness w;
      w.color = Color::kGreen;
      w.elements = ElementSet(session.universe_size());
      w.elements.insert(0);
      return w;
    }
  };
  const MajoritySystem maj(5);
  const Broken broken;
  auto options = engine_options(2);
  options.validate_witnesses = true;
  EXPECT_THROW(ParallelEstimator(options).estimate_ppc(maj, broken, 0.5),
               std::logic_error);
}

// ---- Engine vs. a hand loop of run() -------------------------------------

/// Every batch strategy on the paper families at n = 63, 64/65 where the
/// family allows, and 81.
std::vector<Case> engine_cases() {
  std::vector<Case> cases;
  const auto add = [&](std::string label,
                       std::shared_ptr<const QuorumSystem> system,
                       std::shared_ptr<const ProbeStrategy> strategy) {
    cases.push_back({std::move(label), std::move(system), std::move(strategy)});
  };
  for (const std::size_t n : {63u, 65u, 81u}) {  // Maj needs odd n
    auto maj = std::make_shared<MajoritySystem>(n);
    const std::string tag = "/Maj" + std::to_string(n);
    add("Probe_Maj" + tag, maj, std::make_shared<ProbeMaj>(*maj));
    add("R_Probe_Maj" + tag, maj, std::make_shared<RProbeMaj>(*maj));
    add("Random_Order" + tag, maj, std::make_shared<RandomOrderProbe>(*maj));
  }
  auto tree = std::make_shared<TreeSystem>(5);  // n = 63
  add("Probe_Tree/Tree63", tree, std::make_shared<ProbeTree>(*tree));
  add("R_Probe_Tree/Tree63", tree, std::make_shared<RProbeTree>(*tree));
  auto hqs = std::make_shared<HQSystem>(4);  // n = 81
  add("Probe_HQS/Hqs81", hqs, std::make_shared<ProbeHQS>(*hqs));
  add("R_Probe_HQS/Hqs81", hqs, std::make_shared<RProbeHQS>(*hqs));
  for (const std::size_t n : {63u, 64u, 65u, 81u}) {  // wheel: any n
    auto wall = std::make_shared<CrumblingWall>(CrumblingWall::wheel(n));
    const std::string tag = "/Wheel" + std::to_string(n);
    add("Probe_CW" + tag, wall, std::make_shared<ProbeCW>(*wall));
    add("R_Probe_CW" + tag, wall, std::make_shared<RProbeCW>(*wall));
  }
  return cases;
}

EngineOptions reference_options(std::size_t threads) {
  EngineOptions options;
  options.trials = 2250;     // the last batch is partial
  options.batch_size = 500;  // ends in a partial super-block for any W
  options.threads = threads;
  options.seed = 20010826;
  return options;
}

/// The engine's statistics rebuilt by hand: batch k draws from
/// Rng::for_stream(seed, k), fills its green-mask rows with `fill`, plays
/// each trial through run() on a fresh session, and the per-batch stats
/// merge in batch order.
template <typename Fill>
RunningStats run_loop(const EngineOptions& options, const Case& c,
                      Fill&& fill) {
  const std::size_t n = c.system->universe_size();
  const std::size_t stride = (n + 63) / 64;
  RunningStats merged;
  for (std::size_t k = 0, begin = 0; begin < options.trials;
       ++k, begin += options.batch_size) {
    const std::size_t count =
        std::min(options.batch_size, options.trials - begin);
    Rng rng = Rng::for_stream(options.seed, k);
    std::vector<std::uint64_t> masks(count * stride);
    fill(masks.data(), count, rng);
    RunningStats batch;
    for (std::size_t t = 0; t < count; ++t) {
      Coloring coloring(n);
      coloring.assign_greens_words(masks.data() + t * stride);
      ProbeSession session(coloring);
      (void)c.strategy->run(session, rng);
      batch.add(static_cast<double>(session.probe_count()));
    }
    merged.merge(batch);
  }
  return merged;
}

void expect_bitwise_equal(const RunningStats& engine,
                          const RunningStats& reference,
                          const std::string& label) {
  EXPECT_EQ(engine.count(), reference.count()) << label;
  EXPECT_EQ(engine.mean(), reference.mean()) << label;
  EXPECT_EQ(engine.variance(), reference.variance()) << label;
  EXPECT_EQ(engine.min(), reference.min()) << label;
  EXPECT_EQ(engine.max(), reference.max()) << label;
}

TEST(EngineReferenceIdentity, EstimatePpcMatchesAHandLoopOfRun) {
  const double p = 0.45;
  for (const Case& c : engine_cases()) {
    const std::size_t n = c.system->universe_size();
    ASSERT_TRUE(c.strategy->supports_batch(n)) << c.label;
    const RunningStats reference = run_loop(
        reference_options(1), c,
        [n, p](std::uint64_t* masks, std::size_t count, Rng& rng) {
          sample_iid_coloring_words(masks, count, n, p, rng);
        });
    for (const std::size_t threads : {1u, 3u}) {
      const RunningStats engine = ParallelEstimator(reference_options(threads))
                                      .estimate_ppc(*c.system, *c.strategy, p);
      expect_bitwise_equal(engine, reference,
                           c.label + " threads=" + std::to_string(threads));
    }
  }
}

TEST(EngineReferenceIdentity, ExpectedProbesOnMatchesAHandLoopOfRun) {
  for (const Case& c : engine_cases()) {
    const std::size_t n = c.system->universe_size();
    const std::size_t stride = (n + 63) / 64;
    Rng coloring_rng(7);
    const Coloring coloring = sample_iid_coloring(n, 0.5, coloring_rng);
    std::vector<std::uint64_t> row(stride, 0);
    for (Element e = 0; e < n; ++e)
      if (coloring.color(e) == Color::kGreen) row[e / 64] |= 1ULL << (e % 64);
    const RunningStats reference = run_loop(
        reference_options(1), c,
        [&row, stride](std::uint64_t* masks, std::size_t count, Rng&) {
          for (std::size_t t = 0; t < count; ++t)
            std::copy(row.begin(), row.end(), masks + t * stride);
        });
    for (const std::size_t threads : {1u, 3u}) {
      const RunningStats engine =
          ParallelEstimator(reference_options(threads))
              .expected_probes_on(*c.system, *c.strategy, coloring);
      expect_bitwise_equal(engine, reference,
                           c.label + " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace qps
