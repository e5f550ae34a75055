// TrialWorkspace: per-worker scratch arena for the Monte-Carlo engine.
//
// A batch of trials needs its green-mask rows, and then either a bit-sliced
// batch block (the fast path, core/engine/batch_kernel.h) or a coloring
// slot plus a probe session to run the reference ProbeStrategy::run() on.
// A TrialWorkspace owns all of them, is constructed once per
// ParallelEstimator worker, and is recycled between batches:
//
//   TrialWorkspace ws(system.universe_size());
//   std::uint64_t* masks = ws.coloring_masks(count);   // fill the rows
//   for (trial : batch) {
//     ws.coloring().assign_greens_words(masks + trial * stride);
//     ProbeSession& session = ws.begin_trial(ws.coloring());
//     Witness w = strategy.run(session, rng);
//   }
//
// The workspace itself allocates only while its buffers grow to their
// high-water mark; whether a run() allocates is up to the strategy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/coloring.h"
#include "core/engine/batch_kernel.h"
#include "core/probe_session.h"

namespace qps {

class TrialWorkspace {
 public:
  explicit TrialWorkspace(std::size_t universe_size);

  // The session points at this workspace's own coloring slot, so copying
  // or moving would leave it reading another (or dead) workspace's state.
  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  std::size_t universe_size() const { return coloring_.universe_size(); }

  /// The workspace's reusable coloring slot.  The engine refills it via
  /// Coloring::assign_greens_words between trials.
  Coloring& coloring() { return coloring_; }

  /// Rebinds the session to `coloring` (usually the workspace's own slot,
  /// but any coloring over the same universe works) and clears all
  /// per-trial probe state.
  ProbeSession& begin_trial(const Coloring& coloring) {
    session_.reset(coloring);
    return session_;
  }

  ProbeSession& session() { return session_; }

  /// Batch buffer of per-trial green-mask rows (ceil(n/64) words each, the
  /// sample_iid_coloring_words layout), grown to `count` rows.  Contents
  /// are unspecified until the caller fills them.
  std::uint64_t* coloring_masks(std::size_t count) {
    const std::size_t words = count * ((universe_size() + 63) / 64);
    if (coloring_masks_.size() < words) coloring_masks_.resize(words);
    return coloring_masks_.data();
  }

  /// The worker's bit-sliced batch block (core/engine/batch_kernel.h):
  /// storage sized once by BatchTrialBlock::configure, reloaded per
  /// super-block by the engine's batch path.
  BatchTrialBlock& batch_block() { return batch_block_; }

 private:
  Coloring coloring_;
  ProbeSession session_;
  std::vector<std::uint64_t> coloring_masks_;
  BatchTrialBlock batch_block_;
};

}  // namespace qps
