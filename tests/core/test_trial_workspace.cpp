#include "core/engine/trial_workspace.h"

#include <gtest/gtest.h>

#include "core/algorithms/greedy.h"
#include "core/algorithms/probe_maj.h"
#include "core/coloring.h"
#include "quorum/majority.h"
#include "util/rng.h"

namespace qps {
namespace {

TEST(TrialWorkspace, BeginTrialResetsAllProbeState) {
  TrialWorkspace ws(5);
  const std::uint64_t first = 0b00111;
  ws.coloring().assign_greens_words(&first);
  ProbeSession& session = ws.begin_trial(ws.coloring());
  session.probe(0);
  session.probe(3);
  EXPECT_EQ(session.probe_count(), 2u);
  EXPECT_TRUE(session.was_probed(3));
  EXPECT_EQ(session.probed_greens().count(), 1u);
  EXPECT_EQ(session.probed_reds().count(), 1u);

  // A new trial starts blank, bound to the refilled coloring.
  const std::uint64_t second = 0b11000;
  ws.coloring().assign_greens_words(&second);
  ProbeSession& again = ws.begin_trial(ws.coloring());
  EXPECT_EQ(&again, &session);  // same buffers, reused
  EXPECT_EQ(again.probe_count(), 0u);
  EXPECT_FALSE(again.was_probed(0));
  EXPECT_FALSE(again.was_probed(3));
  EXPECT_TRUE(again.probed_greens().empty());
  EXPECT_TRUE(again.probed_reds().empty());
  EXPECT_EQ(again.probe(4), Color::kGreen);
  EXPECT_EQ(again.probe(0), Color::kRed);
}

TEST(TrialWorkspace, SessionRejectsWrongUniverse) {
  TrialWorkspace ws(5);
  const Coloring other(6);
  EXPECT_THROW(ws.begin_trial(other), std::invalid_argument);
}

TEST(TrialWorkspace, NoStateLeaksBetweenTrials) {
  // Reusing one workspace session across many trials must give exactly the
  // results of a fresh session per trial, coloring by coloring.  Maj13's
  // 1,716 quorums take 27 mask words, past Greedy's 16 inline words, so
  // its heap-scratch branch is the one exercised.
  const MajoritySystem maj(13);
  const ProbeMaj det(maj);
  const RProbeMaj randomized(maj);
  const GreedyCandidateProbe greedy(maj);
  TrialWorkspace ws(13);
  Rng sample_rng(7);
  Rng reused_rng(99), fresh_rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Coloring coloring = sample_iid_coloring(13, 0.4, sample_rng);
    for (const ProbeStrategy* strategy :
         {static_cast<const ProbeStrategy*>(&det),
          static_cast<const ProbeStrategy*>(&randomized),
          static_cast<const ProbeStrategy*>(&greedy)}) {
      ProbeSession& reused = ws.begin_trial(coloring);
      const Witness w_reused = strategy->run(reused, reused_rng);
      const std::size_t reused_count = reused.probe_count();

      ProbeSession fresh(coloring);
      const Witness w_fresh = strategy->run(fresh, fresh_rng);
      ASSERT_EQ(reused_count, fresh.probe_count()) << "trial " << trial;
      ASSERT_EQ(w_reused.color, w_fresh.color) << "trial " << trial;
      ASSERT_EQ(w_reused.elements, w_fresh.elements) << "trial " << trial;
    }
  }
}

TEST(TrialWorkspace, ColoringMasksGrowAndPersist) {
  TrialWorkspace ws(8);
  std::uint64_t* masks = ws.coloring_masks(16);
  for (int i = 0; i < 16; ++i) masks[i] = static_cast<std::uint64_t>(i);
  // A smaller request must not shrink or move the buffer.
  std::uint64_t* again = ws.coloring_masks(8);
  EXPECT_EQ(again, masks);
  EXPECT_EQ(again[7], 7u);
}

TEST(TrialWorkspace, GreedyUsesWorkspaceBuffersCorrectly) {
  const MajoritySystem maj(5);
  const GreedyCandidateProbe greedy(maj);
  TrialWorkspace ws(5);
  Rng rng(1);
  // Greens {0,1,2} form a quorum; greedy must certify green in 3 probes on
  // the workspace's session -- and again after the session is reused.
  const Coloring coloring(5, ElementSet(5, {0, 1, 2}));
  for (int repeat = 0; repeat < 3; ++repeat) {
    ProbeSession& session = ws.begin_trial(coloring);
    const Witness w = greedy.run(session, rng);
    EXPECT_EQ(w.color, Color::kGreen);
    EXPECT_EQ(session.probe_count(), 3u);
  }
}

}  // namespace
}  // namespace qps
