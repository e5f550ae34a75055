#include "core/algorithms/probe_tree.h"

#include <cstdint>
#include <vector>

#include "core/engine/batch_kernel.h"
#include "util/require.h"

namespace qps {

namespace {

// Internal witnesses use plain element vectors: supports of disjoint
// subtrees never overlap, so concatenation is a disjoint union and the
// final ElementSet is materialized once per run.
struct TreeWitness {
  Color color = Color::kRed;
  std::vector<Element> elems;
};

Witness materialize(const TreeWitness& tw, std::size_t n) {
  Witness w;
  w.color = tw.color;
  w.elements = ElementSet(n);
  for (Element e : tw.elems) w.elements.insert(e);
  return w;
}

TreeWitness leaf_witness(Element v, Color c) {
  return {c, std::vector<Element>{v}};
}

void append(TreeWitness& into, const TreeWitness& from) {
  into.elems.insert(into.elems.end(), from.elems.begin(), from.elems.end());
}

/// Combines subtree witnesses with the probed root into a witness for the
/// whole subtree: {root} + matching subtree quorum, or both subtree quorums.
TreeWitness combine_with_root(Element root, Color root_color,
                              TreeWitness first, TreeWitness second) {
  if (first.color == root_color) {
    first.elems.push_back(root);
    return first;
  }
  if (second.color == root_color) {
    second.elems.push_back(root);
    return second;
  }
  QPS_CHECK(first.color == second.color,
            "subtree witnesses opposing the root must agree");
  append(first, second);
  return first;
}

TreeWitness probe_tree_rec(const TreeSystem& tree, Element v,
                           ProbeSession& session) {
  if (tree.is_leaf(v)) return leaf_witness(v, session.probe(v));
  const Color root_color = session.probe(v);
  TreeWitness right = probe_tree_rec(tree, TreeSystem::right_child(v), session);
  if (right.color == root_color) {
    right.elems.push_back(v);
    return right;
  }
  TreeWitness left = probe_tree_rec(tree, TreeSystem::left_child(v), session);
  return combine_with_root(v, root_color, std::move(right), std::move(left));
}

// R_Probe_Tree pre-draws one plan per internal node (nodes with children:
// v < n/2), in node-index order, BEFORE the recursion starts: the draw
// sequence is then independent of the trial's control flow (which subtrees
// get visited), so the bit-sliced batch path can replicate it lane by lane
// and stay stream-identical to run().  Unvisited nodes' plans are simply
// never read.
std::vector<std::uint8_t> draw_tree_plans(const TreeSystem& tree, Rng& rng) {
  std::vector<std::uint8_t> plans(tree.universe_size() / 2);
  for (auto& plan : plans) plan = static_cast<std::uint8_t>(rng.below(3));
  return plans;
}

TreeWitness r_probe_tree_rec(const TreeSystem& tree, Element v,
                             ProbeSession& session,
                             const std::uint8_t* plans) {
  if (tree.is_leaf(v)) return leaf_witness(v, session.probe(v));
  const Element left = TreeSystem::left_child(v);
  const Element right = TreeSystem::right_child(v);
  const std::uint8_t plan = plans[v];
  if (plan == 0 || plan == 1) {
    // Root together with one subtree; the sibling only on a color mismatch.
    const Element primary = plan == 0 ? right : left;
    const Element sibling = plan == 0 ? left : right;
    const Color root_color = session.probe(v);
    TreeWitness first = r_probe_tree_rec(tree, primary, session, plans);
    if (first.color == root_color) {
      first.elems.push_back(v);
      return first;
    }
    TreeWitness second = r_probe_tree_rec(tree, sibling, session, plans);
    return combine_with_root(v, root_color, std::move(first),
                             std::move(second));
  }
  // Both subtrees first; the root only if their witnesses disagree.
  TreeWitness wl = r_probe_tree_rec(tree, left, session, plans);
  TreeWitness wr = r_probe_tree_rec(tree, right, session, plans);
  if (wl.color == wr.color) {
    append(wl, wr);
    return wl;
  }
  const Color root_color = session.probe(v);
  TreeWitness& match = wl.color == root_color ? wl : wr;
  match.elems.push_back(v);
  return std::move(match);
}

}  // namespace

Witness ProbeTree::run(ProbeSession& session, Rng& /*rng*/) const {
  return materialize(probe_tree_rec(*tree_, TreeSystem::kRoot, session),
                     tree_->universe_size());
}

bool ProbeTree::supports_batch(std::size_t universe_size) const {
  return universe_size == tree_->universe_size();
}

void ProbeTree::run_batch(BatchTrialBlock& block, Rng& /*rng*/) const {
  QPS_REQUIRE(block.universe_size() == tree_->universe_size(),
              "batch block over the wrong universe");
  block.kernels().tree_scan(block.view());
}

Witness RProbeTree::run(ProbeSession& session, Rng& rng) const {
  const std::vector<std::uint8_t> plans = draw_tree_plans(*tree_, rng);
  return materialize(r_probe_tree_rec(*tree_, TreeSystem::kRoot, session,
                                      plans.data()),
                     tree_->universe_size());
}

bool RProbeTree::supports_batch(std::size_t universe_size) const {
  return universe_size == tree_->universe_size();
}

void RProbeTree::run_batch(BatchTrialBlock& block, Rng& rng) const {
  const std::size_t n = tree_->universe_size();
  QPS_REQUIRE(block.universe_size() == n,
              "batch block over the wrong universe");
  // Pre-draw every lane's plans, in trial order then node order -- the
  // exact draws run() makes per trial -- into per-node lane-mask triples:
  // bit t of plans[(v*3 + p)*W + t/64] says lane t picked plan p at node v.
  const std::size_t internal = n / 2;
  const std::size_t w = block.width();
  std::uint64_t* plans = block.plan_masks(internal * 3 * w);
  // Draw from a local copy: its state stays in registers across the mask
  // stores, which could alias a generator reached through a reference.
  Rng draws = rng;
  for (std::size_t t = 0; t < block.trial_count(); ++t) {
    const std::size_t kw = t / 64;
    const std::uint64_t bit = 1ULL << (t % 64);
    for (std::size_t v = 0; v < internal; ++v)
      plans[(v * 3 + draws.below(3)) * w + kw] |= bit;
  }
  rng = draws;
  block.kernels().rtree_scan(block.view(), plans);
}

}  // namespace qps
