#include "core/algorithms/probe_hqs.h"

#include <array>
#include <cstdint>
#include <vector>

#include "core/engine/batch_kernel.h"
#include "util/require.h"

namespace qps {

namespace {

// A gate's supporting leaves: two agreeing child supports per gate.
// Supports of sibling subtrees are disjoint, so a union is an OR of word
// masks (MaskSupport<W>, universes of at most 64*W leaves) or a
// concatenation (VectorSupport, any universe).  Every evaluation below is
// written once against this pair and run() picks the narrowest mask form
// that fits the universe (W = 1, 2, 4: up to 256 leaves), so the recursion
// itself allocates nothing there.
template <std::size_t kWords>
struct MaskSupport {
  std::array<std::uint64_t, kWords> bits{};

  static MaskSupport leaf(Element e) {
    MaskSupport support;
    support.bits[e / 64] = 1ULL << (e % 64);
    return support;
  }
  void add(const MaskSupport& other) {
    for (std::size_t k = 0; k < kWords; ++k) bits[k] |= other.bits[k];
  }
  ElementSet to_set(std::size_t n) const {
    ElementSet set(n);
    set.assign_words(bits.data());
    return set;
  }
};

struct VectorSupport {
  std::vector<Element> elems;

  static VectorSupport leaf(Element e) { return {{e}}; }
  void add(const VectorSupport& other) {
    elems.insert(elems.end(), other.elems.begin(), other.elems.end());
  }
  ElementSet to_set(std::size_t n) const {
    ElementSet set(n);
    for (Element e : elems) set.insert(e);
    return set;
  }
};

// Result of evaluating one gate: its boolean value and its support.
template <typename Support>
struct Eval {
  bool value = false;
  Support support;
};

template <typename Support>
Eval<Support> leaf_eval(Element leaf, ProbeSession& session) {
  return {session.probe(leaf) == Color::kGreen, Support::leaf(leaf)};
}

/// Merges two agreeing child evaluations into the parent's evaluation.
template <typename Support>
Eval<Support> merge_pair(Eval<Support> a, const Eval<Support>& b) {
  QPS_CHECK(a.value == b.value, "merge_pair needs agreeing children");
  a.support.add(b.support);
  return a;
}

/// Given three child evaluations where the first two disagree, the gate
/// value is the third child's; support = third + the matching sibling.
template <typename Support>
Eval<Support> merge_tiebreak(const Eval<Support>& first,
                             const Eval<Support>& second,
                             Eval<Support> third) {
  QPS_CHECK(first.value != second.value, "tiebreak needs a disagreement");
  third.support.add(first.value == third.value ? first.support
                                               : second.support);
  return third;
}

/// Runs `evaluate(Support{})` with the storage that fits a universe of `n`
/// leaves and turns the root evaluation into a witness.
template <typename Evaluate>
Witness evaluate_root(std::size_t n, Evaluate&& evaluate) {
  const auto materialize = [n](const auto& eval) {
    return Witness{eval.value ? Color::kGreen : Color::kRed,
                   eval.support.to_set(n)};
  };
  if (n <= 64) return materialize(evaluate(MaskSupport<1>{}));
  if (n <= 128) return materialize(evaluate(MaskSupport<2>{}));
  if (n <= 256) return materialize(evaluate(MaskSupport<4>{}));
  return materialize(evaluate(VectorSupport{}));
}

// ---------------------------------------------------------------- Probe_HQS

template <typename Support>
Eval<Support> probe_hqs_rec(std::size_t level, std::size_t index,
                            ProbeSession& session) {
  if (level == 0)
    return leaf_eval<Support>(static_cast<Element>(index), session);
  auto first = probe_hqs_rec<Support>(level - 1, index * 3, session);
  auto second = probe_hqs_rec<Support>(level - 1, index * 3 + 1, session);
  if (first.value == second.value)
    return merge_pair(std::move(first), second);
  auto third = probe_hqs_rec<Support>(level - 1, index * 3 + 2, session);
  return merge_tiebreak(first, second, std::move(third));
}

// -------------------------------------------------------------- R_Probe_HQS

/// Gate index in the level-major enumeration (level height..1, index
/// ascending): the levels above `level` contribute (3^(height-level)-1)/2
/// gates.  Mirrors rhqs_gate in the batch kernels (simd_kernels.inc.h).
std::size_t hqs_gate(std::size_t height, std::size_t level,
                     std::size_t index) {
  std::size_t pow3 = 1;
  for (std::size_t j = level; j < height; ++j) pow3 *= 3;
  return (pow3 - 1) / 2 + index;
}

// R_Probe_HQS pre-draws one random child order per gate ((n-1)/2 gates), in
// gate-id order, BEFORE the recursion starts: the draw sequence is then
// independent of the trial's control flow (which gates get visited), so
// the bit-sliced batch path can replicate it lane by lane and stay
// stream-identical to run().  Unvisited gates' orders are simply never
// read.  Each gate's order is encoded as first*3 + second (relative child
// indices; third = 3 - first - second).
void draw_gate_orders(std::uint8_t* orders, std::size_t gates, Rng& rng) {
  for (std::size_t g = 0; g < gates; ++g) {
    std::array<std::uint8_t, 3> ord = {0, 1, 2};
    rng.shuffle_array(ord);
    orders[g] = static_cast<std::uint8_t>(ord[0] * 3 + ord[1]);
  }
}

template <typename Support>
Eval<Support> r_probe_hqs_rec(std::size_t height, std::size_t level,
                              std::size_t index, ProbeSession& session,
                              const std::uint8_t* orders) {
  if (level == 0)
    return leaf_eval<Support>(static_cast<Element>(index), session);
  const std::uint8_t code = orders[hqs_gate(height, level, index)];
  const std::size_t c0 = code / 3;
  const std::size_t c1 = code % 3;
  const std::size_t c2 = 3 - c0 - c1;
  auto first = r_probe_hqs_rec<Support>(height, level - 1, index * 3 + c0,
                                        session, orders);
  auto second = r_probe_hqs_rec<Support>(height, level - 1, index * 3 + c1,
                                         session, orders);
  if (first.value == second.value)
    return merge_pair(std::move(first), second);
  auto third = r_probe_hqs_rec<Support>(height, level - 1, index * 3 + c2,
                                        session, orders);
  return merge_tiebreak(first, second, std::move(third));
}

// ------------------------------------------------------------- IR_Probe_HQS

template <typename Support>
Eval<Support> ir_eval(std::size_t level, std::size_t index,
                      ProbeSession& session, Rng& rng);

/// "Evaluate" a node per the paper: visit its children in a uniformly
/// random order until the 2-of-3 value is determined, recursing with
/// IR_Probe_HQS (so a height-(h-1) node issues calls at height h-2).
template <typename Support>
Eval<Support> eval_node(std::size_t level, std::size_t index,
                        ProbeSession& session, Rng& rng) {
  if (level == 0)
    return leaf_eval<Support>(static_cast<Element>(index), session);
  std::array<std::size_t, 3> order = {index * 3, index * 3 + 1, index * 3 + 2};
  rng.shuffle_array(order);
  auto first = ir_eval<Support>(level - 1, order[0], session, rng);
  auto second = ir_eval<Support>(level - 1, order[1], session, rng);
  if (first.value == second.value)
    return merge_pair(std::move(first), second);
  auto third = ir_eval<Support>(level - 1, order[2], session, rng);
  return merge_tiebreak(first, second, std::move(third));
}

/// Finishes evaluating a node whose first-visited child `first` is already
/// known; `rest` holds the other two children in their random visit order.
template <typename Support>
Eval<Support> complete_node(std::size_t child_level,
                            std::array<std::size_t, 2> rest,
                            const Eval<Support>& first, ProbeSession& session,
                            Rng& rng) {
  auto second = ir_eval<Support>(child_level, rest[0], session, rng);
  if (first.value == second.value)
    return merge_pair(std::move(second), first);
  auto third = ir_eval<Support>(child_level, rest[1], session, rng);
  return merge_tiebreak(first, second, std::move(third));
}

/// Fig. 8.  Heights 0/1 have no grandchildren and fall back to the plain
/// random evaluation.
template <typename Support>
Eval<Support> ir_eval(std::size_t level, std::size_t index,
                      ProbeSession& session, Rng& rng) {
  if (level <= 1) return eval_node<Support>(level, index, session, rng);

  std::array<std::size_t, 3> children = {index * 3, index * 3 + 1,
                                         index * 3 + 2};
  rng.shuffle_array(children);
  const std::size_t r1 = children[0];
  const std::size_t r2 = children[1];
  const std::size_t r3 = children[2];

  // Step 2: fully evaluate the first child.
  const auto v1 = eval_node<Support>(level - 1, r1, session, rng);

  // Step 4: peek at one random grandchild of the second child.
  std::array<std::size_t, 3> grandchildren = {r2 * 3, r2 * 3 + 1, r2 * 3 + 2};
  rng.shuffle_array(grandchildren);
  const auto g1 = ir_eval<Support>(level - 2, grandchildren[0], session, rng);
  const std::array<std::size_t, 2> g_rest = {grandchildren[1],
                                             grandchildren[2]};

  if (g1.value == v1.value) {
    // Step 5: the peek supports r1's value; finish r2.
    const auto v2 = complete_node(level - 2, g_rest, g1, session, rng);
    if (v2.value == v1.value) return merge_pair(v2, v1);
    const auto v3 = eval_node<Support>(level - 1, r3, session, rng);
    return merge_tiebreak(v1, v2, v3);
  }
  // Step 6: the peek contradicts r1; try the third child before finishing r2.
  const auto v3 = eval_node<Support>(level - 1, r3, session, rng);
  if (v3.value == v1.value) return merge_pair(v3, v1);
  const auto v2 = complete_node(level - 2, g_rest, g1, session, rng);
  return merge_tiebreak(v1, v3, v2);
}

}  // namespace

Witness ProbeHQS::run(ProbeSession& session, Rng& /*rng*/) const {
  return evaluate_root(hqs_->universe_size(), [&](auto support) {
    return probe_hqs_rec<decltype(support)>(hqs_->height(), 0, session);
  });
}

bool ProbeHQS::supports_batch(std::size_t universe_size) const {
  return universe_size == hqs_->universe_size();
}

void ProbeHQS::run_batch(BatchTrialBlock& block, Rng& /*rng*/) const {
  QPS_REQUIRE(block.universe_size() == hqs_->universe_size(),
              "batch block over the wrong universe");
  block.kernels().hqs_scan(block.view(), hqs_->height());
}

Witness RProbeHQS::run(ProbeSession& session, Rng& rng) const {
  const std::size_t h = hqs_->height();
  const std::size_t gates = (hqs_->universe_size() - 1) / 2;
  // The orders of up to 121 gates (height 5, n = 243) live on the stack.
  std::array<std::uint8_t, 121> stack_orders;
  std::vector<std::uint8_t> heap_orders;
  std::uint8_t* orders = stack_orders.data();
  if (gates > stack_orders.size()) {
    heap_orders.resize(gates);
    orders = heap_orders.data();
  }
  draw_gate_orders(orders, gates, rng);
  return evaluate_root(hqs_->universe_size(), [&](auto support) {
    return r_probe_hqs_rec<decltype(support)>(h, h, 0, session, orders);
  });
}

bool RProbeHQS::supports_batch(std::size_t universe_size) const {
  return universe_size == hqs_->universe_size();
}

void RProbeHQS::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::size_t n = hqs_->universe_size();
  QPS_REQUIRE(block.universe_size() == n,
              "batch block over the wrong universe");
  // Pre-draw every lane's gate orders, in trial order then gate order --
  // the exact draws run() makes per trial -- into 6 lane-mask words per
  // gate: slot c = lanes that picked child c first, slot 3+c = lanes that
  // picked it second.
  const std::size_t gates = (n - 1) / 2;
  const std::size_t w = block.width();
  std::uint64_t* orders = block.plan_masks(gates * 6 * w);
  // Draw from a local copy: its state stays in registers across the mask
  // stores, which could alias a generator reached through a reference.
  Rng draws = rng;
  for (std::size_t t = 0; t < block.trial_count(); ++t) {
    const std::size_t kw = t / 64;
    const std::uint64_t bit = 1ULL << (t % 64);
    for (std::size_t g = 0; g < gates; ++g) {
      std::array<std::uint8_t, 3> ord = {0, 1, 2};
      draws.shuffle_array(ord);
      orders[(g * 6 + ord[0]) * w + kw] |= bit;
      orders[(g * 6 + 3 + ord[1]) * w + kw] |= bit;
    }
  }
  rng = draws;
  block.kernels().rhqs_scan(block.view(), hqs_->height(), orders);
}

Witness IRProbeHQS::run(ProbeSession& session, Rng& rng) const {
  return evaluate_root(hqs_->universe_size(), [&](auto support) {
    return ir_eval<decltype(support)>(hqs_->height(), 0, session, rng);
  });
}

}  // namespace qps
