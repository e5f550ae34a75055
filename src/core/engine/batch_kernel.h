// Bit-sliced batch trial kernel: 64*W Monte-Carlo trials per block.
//
// The reference ProbeStrategy::run() plays one trial at a time; every
// probe is a branch on one trial's color.  A batch block instead runs a
// whole super-block of trials in lock-step, one bit-lane per trial and
// W = SimdKernels::width lane words side by side (core/engine/simd.h):
//
//  * BatchTrialBlock::load() binds up to 64*W per-trial green-mask rows
//    (the layout sample_iid_coloring_words produces, ceil(n/64) words per
//    trial -- any universe size); view() transposes them on demand into
//    one lane-word row PER ELEMENT, so a probe step reads all lanes'
//    answers in W word loads;
//  * a strategy's run_batch() override (core/strategy.h) pre-draws its
//    per-trial randomness into the block's side buffers (shuffled mask
//    rows, plan masks) and then calls one of the block's scan kernels,
//    which walk the probe structure once carrying an active-lane matrix --
//    divergence between trials becomes mask arithmetic, never a per-trial
//    branch;
//  * probe accounting is bit-sliced too: per-lane counters live as
//    bit_width(n) bit planes of W words each, charged by ripple-carry adds
//    inside the kernels, and per-lane stop detection is a plane-fold
//    equality against a constant.
//
// Contract: for every lane t < trial_count(), the probe count recovered by
// probe_count(t) must be bit-identical to what run() reports for trial t's
// coloring with the same generator stream (tests/core/test_batch_kernel.cpp
// and test_simd.cpp enforce this per strategy x family x width).  The engine
// takes this path whenever the strategy supports_batch() and witnesses are
// not validated, with the lane width picked once per run through
// EngineOptions::simd (parallel_estimator.h).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/coloring.h"
#include "core/engine/simd.h"
#include "util/element_set.h"
#include "util/rng.h"

namespace qps {

/// 64 per-lane counters stored as bit-planes: plane b holds bit b of every
/// lane's counter.  Counts up to 64, hence 7 planes.  The single-word
/// reference model of the in-kernel tallies; tests diff the wide kernels
/// against it.
class LaneTally {
 public:
  static constexpr std::size_t kPlanes = 7;

  /// Increments the counter of every lane set in `lanes` (ripple-carry add
  /// of a 1-bit across the planes).
  void add(std::uint64_t lanes) {
    std::uint64_t carry = lanes;
    for (std::size_t b = 0; b < kPlanes && carry != 0; ++b) {
      const std::uint64_t t = planes_[b] & carry;
      planes_[b] ^= carry;
      carry = t;
    }
  }

  /// The lanes whose counter currently equals `value` (a 7-word fold).
  std::uint64_t equals(std::size_t value) const {
    std::uint64_t eq = ~0ULL;
    for (std::size_t b = 0; b < kPlanes; ++b)
      eq &= ((value >> b) & 1U) != 0 ? planes_[b] : ~planes_[b];
    return eq;
  }

  /// One lane's counter, gathered from the planes.
  std::uint32_t get(std::size_t lane) const {
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < kPlanes; ++b)
      value |= static_cast<std::uint32_t>((planes_[b] >> lane) & 1ULL) << b;
    return value;
  }

  void clear() { planes_.fill(0); }

 private:
  std::array<std::uint64_t, kPlanes> planes_{};
};

/// One super-block of up to 64*width trials in transposed (bit-sliced)
/// coloring layout, plus the bit-sliced probe accounting and the side
/// buffers batch strategies pre-draw their randomness into.  All storage is
/// sized once by configure(); load()/view()/run_batch never allocate, so a
/// block can live inside a TrialWorkspace and be reloaded between
/// super-blocks without touching the heap.
class BatchTrialBlock {
 public:
  /// Binds the block to a kernel table and a universe size, sizing all
  /// storage.  No-op when already configured identically; invalidates any
  /// loaded trials otherwise.
  void configure(const SimdKernels& kernels, std::size_t universe_size) {
    QPS_REQUIRE(universe_size >= 1, "a batch block needs a nonempty universe");
    if (kernels_ == &kernels && n_ == universe_size) return;
    kernels_ = &kernels;
    n_ = universe_size;
    planes_ = std::bit_width(universe_size);
    mask_words_ = (universe_size + 63) / 64;
    const std::size_t w = kernels.width;
    element_greens_.assign(n_ * w, 0);
    probe_planes_.assign(planes_ * w, 0);
    tally_planes_.assign(planes_ * w, 0);
    values_.assign(n_ * w, 0);
    active_.assign(w, 0);
    scratch_masks_.assign(lane_capacity() * mask_words_, 0);
    trial_count_ = 0;
    source_masks_ = nullptr;
    transposed_ = false;
  }

  /// Binds `trial_count` (1 .. lane_capacity()) per-trial green-mask rows
  /// of mask_words() words each and resets the probe tallies.  The masks
  /// are transposed lazily by view(), so a permuting strategy that fills
  /// scratch_masks() and calls use_scratch() never pays for transposing
  /// the originals.  The mask rows must stay valid until the kernel runs.
  void load(const std::uint64_t* trial_green_masks, std::size_t trial_count) {
    QPS_REQUIRE(kernels_ != nullptr, "configure() the block before load()");
    QPS_REQUIRE(trial_count >= 1 && trial_count <= lane_capacity(),
                "a batch block holds 1..64*width trials");
    source_masks_ = trial_green_masks;
    trial_count_ = trial_count;
    transposed_ = false;
    for (auto& p : probe_planes_) p = 0;
    for (std::size_t k = 0; k < active_.size(); ++k) {
      const std::size_t low = 64 * k;
      if (trial_count >= low + 64)
        active_[k] = ~0ULL;
      else if (trial_count > low)
        active_[k] = (1ULL << (trial_count - low)) - 1;
      else
        active_[k] = 0;
    }
  }

  /// The kernels' window into the block; transposes the bound masks into
  /// the per-element layout on first use after load()/use_scratch().
  BlockView view() {
    QPS_REQUIRE(trial_count_ >= 1, "load() trials before view()");
    if (!transposed_) {
      transpose_coloring_words_strided(source_masks_, trial_count_, n_,
                                       width(), element_greens_.data());
      transposed_ = true;
    }
    return BlockView{element_greens_.data(), probe_planes_.data(),
                     tally_planes_.data(),   values_.data(),
                     active_.data(),         n_,
                     planes_};
  }

  std::size_t universe_size() const { return n_; }
  std::size_t trial_count() const { return trial_count_; }
  /// Lane words per element row (the configured table's W).
  std::size_t width() const { return kernels_ == nullptr ? 0 : kernels_->width; }
  /// Trials per super-block: 64 * width().
  std::size_t lane_capacity() const { return 64 * width(); }
  /// Words per trial mask row: ceil(universe_size / 64).
  std::size_t mask_words() const { return mask_words_; }
  const SimdKernels& kernels() const {
    QPS_REQUIRE(kernels_ != nullptr, "configure() the block first");
    return *kernels_;
  }

  /// The currently bound per-trial mask rows (the load() source, or the
  /// scratch buffer after use_scratch()).
  const std::uint64_t* trial_masks() const { return source_masks_; }

  /// Writable buffer of lane_capacity() mask rows for permuting strategies;
  /// sized by configure(), so filling it never allocates.
  std::uint64_t* scratch_masks() { return scratch_masks_.data(); }

  /// Rebinds the block to scratch_masks() (and re-queues the transpose).
  /// Probe tallies and the active mask are kept from load().
  void use_scratch() {
    source_masks_ = scratch_masks_.data();
    transposed_ = false;
  }

  /// Zeroed buffer of `words` lane words for pre-drawn per-lane structure
  /// masks (R_Probe_Tree plans, R_Probe_HQS orders); grows on first use,
  /// never shrinks.
  std::uint64_t* plan_masks(std::size_t words) {
    if (plan_masks_.size() < words) plan_masks_.resize(words);
    for (std::size_t i = 0; i < words; ++i) plan_masks_[i] = 0;
    return plan_masks_.data();
  }

  /// Trial t's probe count, gathered from the probe planes; defined for
  /// t < trial_count() after a kernel ran.
  std::uint32_t probe_count(std::size_t lane) const {
    const std::size_t w = width();
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < planes_; ++b)
      value |= static_cast<std::uint32_t>(
                   (probe_planes_[b * w + lane / 64] >> (lane % 64)) & 1ULL)
               << b;
    return value;
  }

 private:
  const SimdKernels* kernels_ = nullptr;
  std::size_t n_ = 0;
  std::size_t planes_ = 0;
  std::size_t mask_words_ = 0;
  std::size_t trial_count_ = 0;
  const std::uint64_t* source_masks_ = nullptr;
  bool transposed_ = false;
  std::vector<std::uint64_t> element_greens_;  // n * W lane words
  std::vector<std::uint64_t> probe_planes_;    // planes * W
  std::vector<std::uint64_t> tally_planes_;    // planes * W kernel scratch
  std::vector<std::uint64_t> values_;          // n * W kernel scratch
  std::vector<std::uint64_t> active_;          // W
  std::vector<std::uint64_t> scratch_masks_;   // lane_capacity * mask_words
  std::vector<std::uint64_t> plan_masks_;
};

/// Fisher-Yates over bits [base, base + size) of a green-mask row, in
/// place: swaps bits base+i-1 and base+below(i) for i = size..2, the exact
/// draws rng.shuffle_span makes on the matching index window.  Afterwards
/// bit base+j holds the bit that window position perm[j] held, where perm
/// is the shuffled window shuffle_span would return -- so scanning the row
/// in canonical order visits the original colors in the random order.  A
/// window inside one word is shuffled in a register.
inline void shuffle_mask_bits(Rng& rng, std::uint64_t* row, std::size_t base,
                              std::size_t size) {
  if (size < 2) return;
  const std::size_t first = base >> 6;
  if (first == (base + size - 1) >> 6) {
    std::uint64_t word = row[first];
    const std::size_t offset = base & 63;
    for (std::size_t i = size; i > 1; --i) {
      const std::size_t a = offset + i - 1;
      const std::size_t b = offset + static_cast<std::size_t>(rng.below(i));
      const std::uint64_t diff = ((word >> a) ^ (word >> b)) & 1ULL;
      word ^= (diff << a) | (diff << b);
    }
    row[first] = word;
    return;
  }
  for (std::size_t i = size; i > 1; --i) {
    const std::size_t a = base + i - 1;
    const std::size_t b = base + static_cast<std::size_t>(rng.below(i));
    const std::uint64_t diff =
        ((row[a >> 6] >> (a & 63)) ^ (row[b >> 6] >> (b & 63))) & 1ULL;
    row[a >> 6] ^= diff << (a & 63);
    row[b >> 6] ^= diff << (b & 63);
  }
}

class ProbeStrategy;
class RunningStats;

/// Drives `trial_count` trials through `strategy`'s bit-sliced kernel in
/// super-blocks of block.lane_capacity() lanes: load (bind + lazy
/// transpose), run_batch, then append the per-trial probe counts to `out`
/// strictly in trial order -- the same order, hence the same RunningStats,
/// as a loop of run() calls produces.  `rng` feeds the strategies'
/// pre-drawn per-trial randomness (permutations, plans), consumed in trial
/// order so the draw sequence matches that loop's.  The block must be
/// configure()d for `universe_size`, and the strategy must support
/// batching (ProbeStrategy::supports_batch).
void run_bit_sliced_trials(const ProbeStrategy& strategy,
                           BatchTrialBlock& block,
                           const std::uint64_t* trial_green_masks,
                           std::size_t trial_count, std::size_t universe_size,
                           Rng& rng, RunningStats& out);

}  // namespace qps
