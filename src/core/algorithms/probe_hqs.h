// Probing algorithms for the Hierarchical Quorum System.
//
// The HQS characteristic function is a ternary tree of 2-of-3 majority
// gates over the leaves; finding a witness means evaluating the root and
// exhibiting, at every gate, two agreeing children (the minterm/maxterm
// support, which for this self-dual system is a monochromatic quorum).
//
// Probe_HQS (Section 3.4, Thms 3.8/3.9): deterministic left-to-right
// evaluation, skipping the third child when the first two agree.  Optimal
// in the probabilistic model at p = 1/2, costing exactly n^{log3(5/2)}.
//
// R_Probe_HQS (Prop. 4.9, due to Boppana): evaluate two children chosen at
// random, the third only on disagreement -- O(n^{log3(8/3)}) = O(n^0.893)
// worst-case expected probes.
//
// IR_Probe_HQS (Fig. 8, Thm 4.10): after fully evaluating one random child,
// peek at one random grandchild of the next child; if it contradicts the
// first child's value, jump to the third child first.  Improves the
// exponent to ~0.89 (see EXPERIMENTS.md for the constant).
#pragma once

#include "core/strategy.h"
#include "quorum/hqs.h"

namespace qps {

class ProbeHQS final : public ProbeStrategy {
 public:
  explicit ProbeHQS(const HQSystem& hqs) : hqs_(&hqs) {}
  std::string name() const override { return "Probe_HQS"; }
  Witness run(ProbeSession& session, Rng& rng) const override;
  /// Bit-sliced batch kernel: one masked gate-tree walk, only the lanes
  /// whose first two children disagree visiting the third.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;

 private:
  const HQSystem* hqs_;
};

class RProbeHQS final : public ProbeStrategy {
 public:
  explicit RProbeHQS(const HQSystem& hqs) : hqs_(&hqs) {}
  std::string name() const override { return "R_Probe_HQS"; }
  Witness run(ProbeSession& session, Rng& rng) const override;
  /// Bit-sliced batch kernel: every lane's per-gate child orders are
  /// pre-drawn as lane masks, then a two-phase masked walk evaluates each
  /// lane's first two picks and, on disagreement, its third.
  /// Draw-compatible with run(), which pre-draws all gate orders in gate
  /// order too.
  bool supports_batch(std::size_t universe_size) const override;
  void run_batch(BatchTrialBlock& block, Rng& rng) const override;

 private:
  const HQSystem* hqs_;
};

class IRProbeHQS final : public ProbeStrategy {
 public:
  explicit IRProbeHQS(const HQSystem& hqs) : hqs_(&hqs) {}
  std::string name() const override { return "IR_Probe_HQS"; }
  /// No batch kernel: which grandchild gets peeked at depends on colors
  /// observed mid-run, so run() is the engine's path.  Allocation-free for
  /// n <= 64; up to n = 256 (word-mask supports of 2 or 4 words) it
  /// allocates only the returned witness's ElementSet.
  Witness run(ProbeSession& session, Rng& rng) const override;

 private:
  const HQSystem* hqs_;
};

}  // namespace qps
