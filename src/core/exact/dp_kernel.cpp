#include "core/exact/dp_kernel.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/engine/parallel_for.h"
#include "core/fault/fault.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "util/require.h"

namespace qps::exact {

namespace {

constexpr std::size_t kMaxUniverse = 22;  // characteristic-table ceiling

// Shared by every DpKernel<Policy> instantiation: one set of exact-solver
// metrics, registered on first solve.
struct DpMetrics {
  obs::Counter& solves =
      obs::MetricsRegistry::instance().counter("exact/solves");
  obs::Counter& levels =
      obs::MetricsRegistry::instance().counter("exact/levels");
  obs::Histogram& level_us =
      obs::MetricsRegistry::instance().histogram("exact/level_us");
  obs::Gauge& frontier_bytes =
      obs::MetricsRegistry::instance().gauge("exact/frontier_bytes");

  static DpMetrics& get() {
    static DpMetrics metrics;
    return metrics;
  }
};

/// States per parallel chunk.  Chunk boundaries are a pure function of the
/// level size, never of the thread count, and every chunk writes disjoint
/// output slots -- the two facts that make kernel results bit-identical
/// across pool sizes.
constexpr std::size_t kStateGrain = 4096;

/// Pascal's triangle up to the positions colex (un)ranking can touch.
const std::array<std::array<std::uint64_t, kMaxUniverse + 3>,
                 kMaxUniverse + 3>&
binomial_table() {
  static const auto table = [] {
    std::array<std::array<std::uint64_t, kMaxUniverse + 3>, kMaxUniverse + 3>
        t{};
    for (std::size_t n = 0; n < t.size(); ++n) {
      t[n][0] = 1;
      for (std::size_t k = 1; k <= n; ++k)
        t[n][k] = t[n - 1][k - 1] + (k <= n - 1 ? t[n - 1][k] : 0);
    }
    return t;
  }();
  return table;
}

std::uint64_t binom(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  return binomial_table()[n][k];
}

/// The largest adjacent level pair, max_k C(n,k) 2^k + C(n,k+1) 2^(k+1)
/// states (level n alone when n is tiny): the size of a solve's arena and
/// the state term of dp_peak_bytes(), so the guard and the allocation
/// cannot disagree.
std::size_t peak_pair_states(std::size_t n) {
  std::size_t peak = dp_state_count(n, n);
  for (std::size_t k = 0; k < n; ++k)
    peak = std::max(peak, dp_state_count(n, k) + dp_state_count(n, k + 1));
  return peak;
}

/// Expands compressed green index `idx` back into a submask of `mask`.
std::uint64_t expand_submask(std::size_t idx, std::uint64_t mask) {
  std::uint64_t out = 0;
  std::size_t j = 0;
  while (mask != 0) {
    const std::uint64_t low = mask & (~mask + 1);
    if ((idx >> j) & 1) out |= low;
    ++j;
    mask ^= low;
  }
  return out;
}

/// One child of a probed block: the probed element, the compressed
/// position it occupies in level k+1 (greens indices gain one bit there),
/// and the child block's values and weights.
template <class Value>
struct Child {
  std::uint8_t element;
  std::uint8_t insert_pos;
  const Value* values;
  const double* weights;
};

/// Child passes whose contiguous runs are shorter than this walk the row
/// state by state instead of run by run: on such short runs the per-run
/// loop set-up costs more than vectorizing the run saves, which made
/// small-n solves slower than the state-at-a-time kernel.
constexpr std::size_t kMinRun = 8;

/// One child pass over the row segment [lo, hi) of compressed greens
/// indices: best[i] (and arg[i] with kTrackArg) take the child's probe
/// cost wherever it is strictly smaller.  Greens index g has its red child
/// at g + (g & ~(half-1)) and its green child half = 2^insert_pos above,
/// so within an aligned run of `half` indices both are contiguous and the
/// pass is a branch-free loop the compiler can vectorize.
template <bool kTrackArg, class Policy>
void relax_child(const Policy& policy, const Child<typename Policy::Value>& child,
                 std::size_t lo, std::size_t hi, typename Policy::Value* best,
                 std::uint8_t* arg) {
  const std::size_t half = std::size_t{1} << child.insert_pos;
  const std::size_t high = ~(half - 1);
  const std::uint8_t element = child.element;
  const auto* const values = child.values;
  const double* const weights = child.weights;
  const auto relax = [&](std::size_t i, std::size_t red) {
    const std::size_t green = red + half;
    typename Policy::Value candidate;
    if constexpr (Policy::kWeighted) {
      candidate = policy.probe_cost(values[green], values[red], weights[green],
                                    weights[red]);
    } else {
      candidate = policy.probe_cost(values[green], values[red]);
    }
    const bool better = candidate < best[i];
    best[i] = better ? candidate : best[i];
    if constexpr (kTrackArg) arg[i] = better ? element : arg[i];
  };
  if (half < kMinRun) {
    for (std::size_t g = lo; g < hi; ++g) relax(g - lo, g + (g & high));
    return;
  }
  for (std::size_t g = lo; g < hi;) {
    const std::size_t run = std::min(hi, (g | (half - 1)) + 1) - g;
    const std::size_t red = g + (g & high);
    for (std::size_t i = 0; i < run; ++i) relax(g - lo + i, red + i);
    g += run;
  }
}

}  // namespace

namespace detail {

std::size_t colex_rank(std::uint64_t mask) {
  std::size_t rank = 0;
  std::size_t i = 0;
  while (mask != 0) {
    const auto p = static_cast<std::size_t>(std::countr_zero(mask));
    mask &= mask - 1;
    ++i;
    rank += static_cast<std::size_t>(binom(p, i));
  }
  return rank;
}

std::uint64_t colex_unrank(std::size_t rank, std::size_t k) {
  std::uint64_t mask = 0;
  for (std::size_t i = k; i >= 1; --i) {
    std::size_t p = kMaxUniverse + 1;
    while (binom(p, i) > rank) --p;
    mask |= 1ULL << p;
    rank -= static_cast<std::size_t>(binom(p, i));
  }
  return mask;
}

std::uint32_t compress_submask(std::uint64_t sub, std::uint64_t mask) {
  std::uint32_t idx = 0;
  std::uint32_t j = 0;
  while (mask != 0) {
    const std::uint64_t low = mask & (~mask + 1);
    if (sub & low) idx |= 1u << j;
    ++j;
    mask ^= low;
  }
  return idx;
}

std::uint64_t next_same_popcount(std::uint64_t mask) {
  if (mask == 0) return 0;
  const std::uint64_t t = mask | (mask - 1);
  return (t + 1) |
         (((~t & (t + 1)) - 1) >>
          (static_cast<unsigned>(std::countr_zero(mask)) + 1));
}

}  // namespace detail

std::size_t dp_state_count(std::size_t n, std::size_t k) {
  return static_cast<std::size_t>(binom(n, k)) << k;
}

std::size_t dp_peak_bytes(std::size_t n, std::size_t value_bytes,
                          bool weighted, bool record_policy) {
  const std::size_t per_state = value_bytes + (weighted ? sizeof(double) : 0);
  std::size_t argmin_total = 0;
  for (std::size_t k = 0; k <= n; ++k)
    argmin_total += dp_state_count(n, k);  // sums to 3^n
  return peak_pair_states(n) * per_state + (std::size_t{1} << n) +
         (record_policy ? argmin_total : 0);
}

void require_dp_feasible(std::size_t n, std::size_t value_bytes, bool weighted,
                         bool record_policy, std::size_t memory_limit_bytes) {
  QPS_REQUIRE(n >= 1, "exact DP needs a non-empty universe");
  QPS_REQUIRE(n <= kMaxUniverse,
              "exact DP limited to n <= 22 (the 2^n characteristic table)");
  const std::size_t need =
      dp_peak_bytes(n, value_bytes, weighted, record_policy);
  if (need > memory_limit_bytes) {
    const std::size_t per_state =
        value_bytes + (weighted ? sizeof(double) : 0);
    std::ostringstream os;
    os << "exact DP for n=" << n << " needs " << (need >> 20)
       << " MiB: max_k [C(n,k)*2^k + C(n,k+1)*2^(k+1)] states * " << per_state
       << " bytes/state + 2^n characteristic bytes"
       << (record_policy ? " + 3^n argmin bytes" : "") << " exceeds the "
       << (memory_limit_bytes >> 20)
       << " MiB cap (DpOptions::memory_limit_bytes)";
    throw std::invalid_argument(os.str());
  }
}

template <class Policy>
DpKernel<Policy>::DpKernel(const QuorumSystem& system, Policy policy,
                           DpOptions options)
    : policy_(std::move(policy)),
      options_(options),
      n_(system.universe_size()) {
  require_dp_feasible(n_, sizeof(Value), Policy::kWeighted,
                      options_.record_policy, options_.memory_limit_bytes);
  table_ = std::make_unique<CharTable>(system);
  if (options_.record_policy) argmin_tables_.resize(n_ + 1);
  solve();
}

template <class Policy>
void DpKernel<Policy>::solve() {
  QPS_TRACE_SPAN("exact/solve", "exact");
  DpMetrics& metrics = DpMetrics::get();
  metrics.solves.increment();
  ThreadPool pool(options_.threads);

  // One arena for the whole solve (and a second one for the weights of a
  // weighted policy), holding the largest adjacent level pair: even levels
  // at its front, odd levels at its back, so the level being written never
  // overlaps the one it reads.  It is not zero-filled: every state of a
  // level is written before the level below reads it, and the pool's
  // workers touch each page first.
  constexpr std::size_t kWeightBytes = Policy::kWeighted ? sizeof(double) : 0;
  const std::size_t slots = peak_pair_states(n_);
  std::unique_ptr<Value[]> values_arena;
  std::unique_ptr<double[]> weights_arena;
  try {
    values_arena = std::make_unique_for_overwrite<Value[]>(slots);
    if constexpr (Policy::kWeighted)
      weights_arena = std::make_unique_for_overwrite<double[]>(slots);
  } catch (const std::bad_alloc&) {
    throw BudgetExceeded(n_, n_, slots * (sizeof(Value) + kWeightBytes));
  }

  const Value* values_next = nullptr;
  const double* weights_next = nullptr;
  for (std::size_t k = n_ + 1; k-- > 0;) {
    QPS_TRACE_SPAN("exact/level", "exact");
    std::uint64_t level_t0 = 0;
    if constexpr (obs::kMetricsCompiled) level_t0 = obs::monotonic_us();
    const std::size_t total = dp_state_count(n_, k);
    try {
      QPS_FAULT_POINT("exact/level_alloc");  // alloc action: forced OOM here
      if (options_.record_policy) argmin_tables_[k].assign(total, kDpNoProbe);
    } catch (const std::bad_alloc&) {
      throw BudgetExceeded(
          n_, k,
          total * (sizeof(Value) + kWeightBytes +
                   (options_.record_policy ? 1 : 0)));
    }
    const std::size_t offset = k % 2 == 0 ? 0 : slots - total;
    Value* const values = values_arena.get() + offset;
    double* const weights =
        Policy::kWeighted ? weights_arena.get() + offset : nullptr;
    if constexpr (Policy::kWeighted) {
      const std::size_t blocks = static_cast<std::size_t>(binom(n_, k));
      pool.parallel_for(0, blocks, 64,
                        [&](std::size_t block_begin, std::size_t block_end) {
                          scatter_weights_range(k, block_begin, block_end,
                                                weights);
                        });
    }
    std::uint8_t* const argmin =
        options_.record_policy ? argmin_tables_[k].data() : nullptr;
    pool.parallel_for(0, total, kStateGrain,
                      [&](std::size_t state_begin, std::size_t state_end) {
                        evaluate_states(k, state_begin, state_end, values_next,
                                        weights_next, values, argmin);
                      });
    values_next = values;
    weights_next = weights;
    metrics.levels.increment();
    if constexpr (obs::kMetricsCompiled) {
      metrics.level_us.record(obs::monotonic_us() - level_t0);
      // Live DP frontier: the level just produced, plus its weights when
      // the policy carries them.
      metrics.frontier_bytes.set(
          static_cast<std::int64_t>(total * (sizeof(Value) + kWeightBytes)));
    }
  }
  root_value_ = values_next[0];
}

template <class Policy>
void DpKernel<Policy>::scatter_weights_range(std::size_t k,
                                             std::size_t block_begin,
                                             std::size_t block_end,
                                             double* weights) const {
  if constexpr (Policy::kWeighted) {
    const std::vector<std::uint64_t>& support = policy_.support();
    const std::vector<double>& weight = policy_.weights();
    std::uint64_t probed = detail::colex_unrank(block_begin, k);
    for (std::size_t b = block_begin; b < block_end; ++b) {
      double* slot = weights + (b << k);
      std::fill_n(slot, std::size_t{1} << k, 0.0);
      for (std::size_t i = 0; i < support.size(); ++i)
        slot[detail::compress_submask(support[i] & probed, probed)] +=
            weight[i];
      probed = detail::next_same_popcount(probed);
    }
  } else {
    (void)k;
    (void)block_begin;
    (void)block_end;
    (void)weights;
  }
}

template <class Policy>
void DpKernel<Policy>::evaluate_states(std::size_t k, std::size_t state_begin,
                                       std::size_t state_end,
                                       const Value* next_values,
                                       const double* next_weights,
                                       Value* values, std::uint8_t* argmin) {
  const std::uint64_t full = table_->full_mask();

  std::array<Child<Value>, kMaxUniverse> children{};
  // A chunk holds at most kStateGrain states, so any row segment fits.
  std::array<std::uint8_t, kStateGrain> terminal{};
  std::array<std::uint8_t, kStateGrain> arg_scratch{};
  // The argmin is kept for the recorded policy and for the root.
  const bool track_arg = argmin != nullptr || k == 0;

  std::size_t b = state_begin >> k;
  std::uint64_t probed = detail::colex_unrank(b, k);
  for (; (b << k) < state_end;
       ++b, probed = detail::next_same_popcount(probed)) {
    const std::size_t block_lo = b << k;
    const std::size_t lo = std::max(state_begin, block_lo) - block_lo;
    const std::size_t hi =
        std::min(state_end, block_lo + (std::size_t{1} << k)) - block_lo;
    const std::size_t count = hi - lo;
    const std::uint64_t unprobed = full & ~probed;
    Value* const best = values + block_lo + lo;
    std::uint8_t* const arg =
        argmin != nullptr ? argmin + block_lo + lo : arg_scratch.data();

    // Terminal flags, greens in ascending compressed-index order: setting
    // the unprobed bits makes the +1 carry straight across them.
    std::uint64_t greens = expand_submask(lo, probed);
    std::size_t terminal_count = 0;
    for (std::size_t i = 0; i < count; ++i) {
      terminal[i] = table_->contains_quorum(greens) |
                    !table_->contains_quorum(greens | unprobed);
      terminal_count += terminal[i];
      greens = ((greens | ~probed) + 1) & probed;
    }

    if (terminal_count < count) {
      std::size_t child_count = 0;
      for (std::size_t e = 0; e < n_; ++e) {
        const std::uint64_t bit = 1ULL << e;
        if (probed & bit) continue;
        const std::size_t child_base = detail::colex_rank(probed | bit)
                                       << (k + 1);
        Child<Value> child{
            static_cast<std::uint8_t>(e),
            static_cast<std::uint8_t>(std::popcount(probed & (bit - 1))),
            next_values + child_base, nullptr};
        if constexpr (Policy::kWeighted)
          child.weights = next_weights + child_base;
        children[child_count++] = child;
      }

      // One pass per child in ascending element order with a strict <:
      // the argmin the state-at-a-time recursion takes, and the same
      // operations per state, so values stay bit-identical.
      std::fill_n(best, count, policy_.init_value(n_));
      std::fill_n(arg, count, kDpNoProbe);
      for (std::size_t c = 0; c < child_count; ++c) {
        if (track_arg)
          relax_child<true>(policy_, children[c], lo, hi, best, arg);
        else
          relax_child<false>(policy_, children[c], lo, hi, best, arg);
      }
    }

    for (std::size_t i = 0; i < count; ++i) {
      if (terminal[i]) {
        best[i] = policy_.terminal_value();
        arg[i] = kDpNoProbe;
      }
    }
    if (k == 0) root_probe_ = arg[0] == kDpNoProbe ? n_ : arg[0];
  }
}

template <class Policy>
std::size_t DpKernel<Policy>::policy_probe(std::uint64_t probed,
                                           std::uint64_t greens) const {
  QPS_REQUIRE(!argmin_tables_.empty(),
              "policy_probe() needs DpOptions::record_policy");
  const auto k = static_cast<std::size_t>(std::popcount(probed));
  const std::size_t index = (detail::colex_rank(probed) << k) |
                            detail::compress_submask(greens, probed);
  const std::uint8_t element = argmin_tables_[k][index];
  return element == kDpNoProbe ? n_ : element;
}

template class DpKernel<MinimaxPolicy>;
template class DpKernel<ExpectationPolicy>;
template class DpKernel<DistributionPolicy>;

}  // namespace qps::exact
