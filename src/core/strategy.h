// ProbeStrategy: the interface every probing algorithm implements.
//
// A strategy adaptively probes elements through a ProbeSession until it can
// return a witness.  Deterministic strategies (Section 3) ignore the Rng;
// randomized strategies (Section 4) draw all their randomness from it, so a
// run is reproducible from the coloring and the generator seed.
//
// Two entry points, one reference and one fast path:
//  * run() is the readable reference: one trial, one witness.  The engine
//    calls it on a reused ProbeSession for strategies without a batch
//    kernel (the color-adaptive Greedy_Candidate and IR_Probe_HQS) and
//    whenever witnesses are validated.
//  * run_batch() executes a block of 64*W trials in lock-step through the
//    bit-sliced kernels (core/engine/batch_kernel.h).  It must reproduce
//    run() lane for lane: same probe count on every lane's coloring, same
//    Rng draws in trial order (tests/core/test_hot_path_identity.cpp,
//    test_batch_kernel.cpp, test_simd.cpp).
#pragma once

#include <memory>
#include <string>

#include "core/probe_session.h"
#include "core/witness.h"
#include "util/require.h"
#include "util/rng.h"

namespace qps {

class BatchTrialBlock;

class ProbeStrategy {
 public:
  virtual ~ProbeStrategy() = default;

  virtual std::string name() const = 0;

  /// Probes until a witness is found; `session.probe_count()` afterwards is
  /// the cost of the run.
  virtual Witness run(ProbeSession& session, Rng& rng) const = 0;

  /// True when the strategy can execute a bit-sliced batch block
  /// (core/engine/batch_kernel.h) over a universe of `universe_size`
  /// elements.  Deterministic-order strategies map straight onto a scan
  /// kernel; randomized-order strategies qualify too by pre-drawing their
  /// per-trial randomness (permuted colorings, plan masks) before the
  /// lock-step pass.  Any universe size -- lanes carry ceil(n/64) words.
  /// Default: no batch kernel.
  virtual bool supports_batch(std::size_t universe_size) const {
    (void)universe_size;
    return false;
  }

  /// Runs one loaded super-block of trials in lock-step through the block's
  /// kernel table (block.kernels()).  Randomized strategies draw their
  /// per-trial randomness from `rng` for lanes 0 .. trial_count()-1 IN
  /// TRIAL ORDER, with exactly the draws run() makes per trial, so the
  /// batch path consumes the same stream as a loop of run() calls.  For
  /// every lane, the recovered probe count must be bit-identical to what
  /// run() reports on that lane's coloring.  Only called when
  /// supports_batch(block.universe_size()) is true.
  virtual void run_batch(BatchTrialBlock& block, Rng& rng) const {
    (void)block;
    (void)rng;
    QPS_CHECK(false, name() + " has no bit-sliced batch kernel");
  }
};

using ProbeStrategyPtr = std::unique_ptr<const ProbeStrategy>;

}  // namespace qps
