// Parallel Monte-Carlo estimation engine.
//
// ParallelEstimator shards a trial budget into fixed-size batches and runs
// the batches on the shared worker pool (core/engine/parallel_for.h), the
// same pool the exact DP kernel uses.  Determinism is the design
// center: batch k always draws from the RNG stream derived from
// (options.seed, k), and batch results are merged strictly in batch-index
// order, so the returned statistics -- and the early-stop / throw decisions
// -- are bit-identical for any thread count, including threads=1.
//
// Early stopping: when `target_sem > 0`, merging stops at the first batch
// prefix whose standard error of the mean reaches the target (after at
// least `min_trials` samples).  Workers racing ahead of the stop point may
// compute extra batches; those are discarded, never merged, so the result
// is still a pure function of the seed and the options.
#pragma once

#include <cstdint>
#include <functional>

#include "core/coloring.h"
#include "core/engine/simd.h"
#include "core/strategy.h"
#include "quorum/quorum_system.h"
#include "util/rng.h"
#include "util/stats.h"

namespace qps {

struct EngineOptions {
  /// Total Monte-Carlo trial budget (upper bound when early-stop is on).
  std::size_t trials = 1000;
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Trials per batch: the unit of determinism and of work distribution.
  /// Results depend on this value (it fixes the RNG stream layout) but
  /// never on the thread count.
  std::size_t batch_size = 1024;
  /// Stop once the merged standard error of the mean reaches this value;
  /// 0 disables early stopping and the full budget runs.
  double target_sem = 0.0;
  /// Early stop is not considered before this many merged trials.
  std::size_t min_trials = 1000;
  /// Validate every returned witness against the ground truth; failures
  /// throw std::logic_error (deterministically, see above).
  bool validate_witnesses = false;
  /// Root seed for the per-batch RNG streams.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Lane width of the bit-sliced kernels (core/engine/simd.h), resolved
  /// once per estimate_ppc / expected_probes_on call.  Per-trial results
  /// are bit-identical at every width (only the number of lane words per
  /// pass changes).
  SimdIsa simd = SimdIsa::kAuto;
};

class ParallelEstimator {
 public:
  explicit ParallelEstimator(EngineOptions options);

  /// One Monte-Carlo sample; draws all randomness from the supplied
  /// batch-local generator.
  using Trial = std::function<double(Rng&)>;

  /// Runs the trial budget through the worker pool and returns the merged
  /// statistics.  Exceptions thrown by `trial` propagate, and which
  /// exception surfaces is deterministic (first failing batch in index
  /// order).
  RunningStats run(const Trial& trial) const;

  /// PPC_p estimation (Section 3 model): i.i.d. element failures with
  /// probability p, fresh coloring per trial.  Each batch samples its
  /// green-mask rows up front with sample_iid_coloring_words.
  ///
  /// Both estimators take one of two paths per call: the strategy's
  /// bit-sliced batch kernel when it supports_batch(n) and witnesses are
  /// not validated (the kernels never materialize witnesses), otherwise
  /// the reference run() on each worker's reused ProbeSession.  Batch
  /// kernels pre-draw each lane's randomness in trial order, so the
  /// per-trial probe counts -- and the merged statistics -- are
  /// bit-identical either way.
  RunningStats estimate_ppc(const QuorumSystem& system,
                            const ProbeStrategy& strategy, double p) const;

  /// Expected probes of `strategy` on one fixed coloring (the inner
  /// expectation of the Section 4 randomized model): every trial's
  /// green-mask row is a copy of the coloring's.
  RunningStats expected_probes_on(const QuorumSystem& system,
                                  const ProbeStrategy& strategy,
                                  const Coloring& coloring) const;

  const EngineOptions& options() const { return options_; }

  /// The worker count `run()` will actually use (resolves threads=0 and
  /// never exceeds the number of batches).
  std::size_t resolved_threads() const;

 private:
  /// Evaluates trials [begin, end) of one batch into `out`, drawing only
  /// from `rng` (the batch's stream).
  using BatchFn =
      std::function<void(std::size_t begin, std::size_t end, Rng& rng,
                         RunningStats& out)>;
  /// Called once per worker thread, so the returned BatchFn can own
  /// per-worker state (a TrialWorkspace); may be invoked concurrently.
  using BatchFnFactory = std::function<BatchFn()>;

  /// The batching/merging/early-stop engine shared by run() and the
  /// strategy estimators.
  RunningStats run_batches(const BatchFnFactory& make_batch_fn) const;

  /// Fills `count` green-mask rows of ceil(n/64) words for one batch,
  /// drawing only from the batch's `rng`.
  using FillMasks =
      std::function<void(std::uint64_t* masks, std::size_t count, Rng& rng)>;

  /// The strategy estimators' shared body: per batch, fill the mask rows,
  /// then run the trials through the batch kernel or through run() (see
  /// estimate_ppc).  Requires a nonempty universe.
  RunningStats run_strategy(const QuorumSystem& system,
                            const ProbeStrategy& strategy,
                            const FillMasks& fill_masks) const;

  EngineOptions options_;
};

}  // namespace qps
