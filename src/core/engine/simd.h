// Lane-width layer of the bit-sliced batch engine.
//
// The batch kernel (batch_kernel.h) packs 64 Monte-Carlo trials into every
// machine word; this layer widens that to W words processed in lock-step,
// so one pass of a scan kernel advances 64*W trials.  The hot loops (the
// ripple-carry tally add, the stop-detection equality fold, the masked
// recursions of Probe_Tree/HQS/CW) are written once, in
// simd_kernels.inc.h, with fixed-trip-count W loops, and compiled at two
// widths under the build's baseline flags:
//
//   name      W   words per step
//   portable  4   4x64 (plain C++; the compiler unrolls and, where the
//                 baseline ISA allows, vectorizes the W loops)
//   off       1   one 64-bit word (the single-word reference layout)
//
// Per-trial probe counts do not depend on W, so every statistic is
// bit-identical at either width.  simd.cpp includes the kernel source once
// per width, each copy in its own internal-linkage namespace; the kernels
// see nothing of the engine but the POD BlockView below and plain arrays
// for structure (tree shape is implied by the heap indexing, HQS by its
// height, CW by a row-offset array), which is what lets one
// function-pointer table type serve both widths.
//
// Dispatch happens once per engine run: resolve_simd_kernels() maps the
// requested width (EngineOptions::simd / the benches' --simd= flag) to its
// kernel table and publishes it as the `engine/simd_isa` gauge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace qps {

enum class SimdIsa : std::uint8_t {
  kAuto = 0,      // the default width: portable
  kOff = 1,       // single 64-bit word per step
  kPortable = 2,  // plain C++ over uint64[4]
};

/// The kernels' window into one loaded BatchTrialBlock.  All arrays are
/// lane-word matrices with W = SimdKernels::width words per row:
///   greens[e*W + k]        element e's colors for lanes [64k, 64k+64)
///   probe_planes[b*W + k]  bit b of the per-lane probe counters
///   tally_planes           kernel-owned scratch counters, same layout
///   values[i*W + k]        kernel-owned scratch, `universe` rows: the
///                          value-first kernels' per-node witness colors
///   active[k]              bit t set iff lane 64k+t carries a trial
/// `planes` is the number of bit planes in each counter (enough for counts
/// up to `universe`).  POD on purpose -- see the note above.
struct BlockView {
  std::uint64_t* greens;
  std::uint64_t* probe_planes;
  std::uint64_t* tally_planes;
  std::uint64_t* values;
  const std::uint64_t* active;
  std::size_t universe;
  std::size_t planes;
};

/// One width's kernel table.  Every entry charges probes into
/// `probe_planes` for exactly the element set the scalar strategy would
/// probe on each lane's coloring -- the bit-identity contract.
struct SimdKernels {
  SimdIsa isa;
  std::size_t width;  // W: lane words per element / plane

  /// Sequential scan in element order 0..n-1; a lane stops once its green
  /// tally reaches `green_stop` or its red tally reaches `red_stop`.
  /// Covers Probe_Maj and, on permuted colorings, R_Probe_Maj and
  /// Random_Order over counting systems.
  void (*count_scan)(const BlockView&, std::size_t green_stop,
                     std::size_t red_stop);

  /// Probe_Tree's masked recursion over the implicit heap tree
  /// (children of v are 2v+1 / 2v+2; v is a leaf iff 2v+1 >= n).
  void (*tree_scan)(const BlockView&);

  /// R_Probe_Tree: per-lane pre-drawn plans as bit masks,
  /// plan_masks[(v*3 + plan)*W + k] for internal nodes v in [0, n/2).
  /// Value first: a bottom-up pass writes every node's witness color
  /// (maj of root and children) into `values`, then a top-down walk enters
  /// each child once with the union of the lanes whose plan visits it.
  void (*rtree_scan)(const BlockView&, const std::uint64_t* plan_masks);

  /// Probe_HQS's masked 2-of-3 gate evaluation; n = 3^height.
  void (*hqs_scan)(const BlockView&, std::size_t height);

  /// R_Probe_HQS: per-lane pre-drawn child orders as bit masks, 6 words per
  /// gate (first-child masks F0..F2 then second-child masks S0..S2) at
  /// order_masks[(g*6 + slot)*W + k]; gates g enumerate level height..1,
  /// index ascending.  Value first, like rtree_scan: gate values (2-of-3 of
  /// the children) fill `values` bottom-up, then each child is entered
  /// once by its first/second pickers plus the lanes whose picks disagree.
  void (*rhqs_scan)(const BlockView&, std::size_t height,
                    const std::uint64_t* order_masks);

  /// Probe_CW's top-down mode scan; rows are [row_begin[r], row_begin[r+1])
  /// and row_begin has row_count+1 entries.
  void (*cw_scan)(const BlockView&, const std::uint32_t* row_begin,
                  std::size_t row_count);

  /// R_Probe_CW's bottom-up both-colors scan (on within-row permuted
  /// colorings); same row_begin convention.
  void (*rcw_scan)(const BlockView&, const std::uint32_t* row_begin,
                   std::size_t row_count);
};

/// Parses "auto" / "portable" / "off".  Returns false (and leaves *out
/// untouched) on anything else.
bool parse_simd_isa(const std::string& text, SimdIsa* out);

const char* simd_isa_name(SimdIsa isa);

/// Resolves a requested width to its kernel table (kAuto is kPortable) and
/// publishes the choice as the `engine/simd_isa` gauge.
const SimdKernels& resolve_simd_kernels(SimdIsa requested);

}  // namespace qps
