#include "core/algorithms/probe_maj.h"

#include <algorithm>

#include "core/engine/batch_kernel.h"
#include "util/require.h"

namespace qps {

namespace {

/// Probes elements in the order `order(0), order(1), ...` until one color
/// reaches the majority threshold; the monochromatic majority is the
/// witness (a quorum if green, a transversal -- in fact a quorum, since Maj
/// is ND -- if red).  For n <= 64 the green/red tallies are single-word
/// sets, so the whole loop is allocation-free.
template <typename OrderFn>
Witness probe_in_order(const MajoritySystem& system, OrderFn&& order,
                       ProbeSession& session) {
  const std::size_t threshold = system.threshold();
  ElementSet greens(system.universe_size());
  ElementSet reds(system.universe_size());
  for (std::size_t i = 0; i < system.universe_size(); ++i) {
    const Element e = order(i);
    if (session.probe(e) == Color::kGreen) {
      greens.insert(e);
      if (greens.count() >= threshold) return {Color::kGreen, greens};
    } else {
      reds.insert(e);
      if (reds.count() >= threshold) return {Color::kRed, reds};
    }
  }
  QPS_CHECK(false, "one color must reach the majority threshold");
  return {};
}

}  // namespace

Witness ProbeMaj::run(ProbeSession& session, Rng& /*rng*/) const {
  return probe_in_order(
      *system_, [](std::size_t i) { return static_cast<Element>(i); },
      session);
}

bool ProbeMaj::supports_batch(std::size_t universe_size) const {
  return universe_size == system_->universe_size();
}

void ProbeMaj::run_batch(BatchTrialBlock& block, Rng& /*rng*/) const {
  QPS_REQUIRE(block.universe_size() == system_->universe_size(),
              "batch block over the wrong universe");
  // Lock-step sequential scan: element i is probed by every lane that has
  // not yet seen a monochromatic majority; both stop conditions are the
  // same threshold.
  const std::size_t threshold = system_->threshold();
  block.kernels().count_scan(block.view(), threshold, threshold);
}

Witness RProbeMaj::run(ProbeSession& session, Rng& rng) const {
  const auto perm = rng.permutation(
      static_cast<std::uint32_t>(system_->universe_size()));
  return probe_in_order(
      *system_, [&perm](std::size_t i) { return perm[i]; }, session);
}

bool RProbeMaj::supports_batch(std::size_t universe_size) const {
  return universe_size == system_->universe_size();
}

void RProbeMaj::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::size_t n = system_->universe_size();
  QPS_REQUIRE(block.universe_size() == n,
              "batch block over the wrong universe");
  // Probing random elements in canonical order is probing canonical
  // elements in the permuted coloring: bit j of the permuted mask = bit
  // perm[j] of the original.  Each lane's row is shuffled in place, in
  // trial order -- the exact draws run()'s permutation makes.
  const std::uint64_t* src = block.trial_masks();
  std::uint64_t* dst = block.scratch_masks();
  const std::size_t stride = block.mask_words();
  for (std::size_t t = 0; t < block.trial_count(); ++t) {
    std::copy_n(src + t * stride, stride, dst + t * stride);
    shuffle_mask_bits(rng, dst + t * stride, 0, n);
  }
  block.use_scratch();
  const std::size_t threshold = system_->threshold();
  block.kernels().count_scan(block.view(), threshold, threshold);
}

}  // namespace qps
