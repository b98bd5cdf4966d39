// The user-facing vertex-program interface (paper §IV.E/F, Fig. 3).
//
// A graph application supplies four hooks, mirroring the paper's
// `initialize`, `genMsg`, and `compute` functions:
//
//   init(v)           -- initial payload and activity of vertex v
//                        (PageRank: 1/N and active; BFS: 0/active for the
//                        root, INF/inactive elsewhere).
//   gen_msg(...)      -- message payload sent along one out-edge of an
//                        *active* vertex. Receives the out-degree (read
//                        straight from the Fig. 4c CSR record, so no extra
//                        lookup) and the destination (so synthetic edge
//                        weights can be derived, e.g. SSSP).
//   first_update(...) -- accumulator seed when the first message of a
//                        superstep reaches a vertex. Monotone apps seed
//                        with the stored value (min-fold); PageRank seeds
//                        with the teleport term and ignores the old rank.
//   compute(...)      -- folds one message into the accumulator
//                        (Algorithm 3 line 10). Sum folds (PageRank)
//                        declare sum_fold() and are folded exactly.
//
// Within one node messages are not combined: every out-edge of an active
// vertex carries its own message to the destination's fold, as in the
// paper's protocol (§V); dispatcher-side combining cost more than the
// in-memory sends it saved (EXPERIMENTS.md). Across a cluster rank's
// links every program's messages are combined, since the wire costs far
// more per message than a mailbox does: a dispatcher sends each peer one
// partial per destination, a sum-fold program's exact partial sum
// (SliceSumFold::add_partial) or any other program's compute fold of the
// messages, which the receiver applies as one message (DESIGN.md §14).
//
// All engines in this repository (GPSA, the GraphChi-style PSW baseline,
// the X-Stream-style baseline, and the sequential reference) execute the
// same Program, which is what makes the cross-engine equivalence tests and
// the benchmark comparisons meaningful.
//
// Payloads are raw 31-bit-safe words (storage/slot.hpp): integers below
// 2^31, or non-negative floats via float_to_payload/payload_to_float.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "storage/slot.hpp"

namespace gpsa {

class Program {
 public:
  virtual ~Program() = default;

  virtual std::string name() const = 0;

  struct InitialState {
    Payload value = 0;
    bool active = false;
  };

  /// Initial value/activity of vertex v in a graph of num_vertices.
  virtual InitialState init(VertexId v, VertexId num_vertices) const = 0;

  /// Message payload for edge src -> dst given src's current value.
  virtual Payload gen_msg(VertexId src, VertexId dst, Payload value,
                          std::uint32_t out_degree) const = 0;

  /// True when gen_msg ignores `dst` (PageRank's share, BFS's depth+1,
  /// CC's label): the dispatcher then calls it once per vertex instead of
  /// once per out-edge, hoisting the virtual call — and any per-message
  /// arithmetic like PageRank's divide — out of the edge loop. SSSP keeps
  /// the default (its synthetic edge weight depends on the endpoint).
  virtual bool uniform_gen_msg() const { return false; }

  /// Accumulator seed for the first message of a superstep at vertex v,
  /// given v's current stored payload.
  virtual Payload first_update(VertexId v, Payload stored) const = 0;

  /// Folds one message into the accumulator. Must be commutative and
  /// associative: message arrival order at a vertex follows the schedule.
  /// A float sum is neither, so sum-fold programs declare sum_fold() and
  /// the GPSA computing actor and the cluster engines fold them exactly
  /// instead (SliceSumFold, below).
  virtual Payload compute(Payload accumulator, Payload message) const = 0;

  /// True when compute() is the non-negative float sum
  /// payload_to_float(accumulator) + payload_to_float(message) (PageRank,
  /// PageRankDeltaProgram). The GPSA computing actor and the cluster
  /// engines then never call compute(): they keep each vertex's seed plus
  /// messages as an exact FixedSum and, at the end of the superstep,
  /// store its correctly rounded float and decide activation from it, so
  /// the result does not depend on arrival order, schedule, worker count
  /// or rank count.
  virtual bool sum_fold() const { return false; }

  /// Whether the post-fold value counts as an update relative to the value
  /// the vertex held before this superstep (drives the stale flag and
  /// therefore next superstep's dispatch set).
  virtual bool changed(Payload before, Payload after) const {
    return before != after;
  }

  /// Superstep budget; algorithms that run to quiescence leave this
  /// unbounded and rely on the zero-messages termination rule.
  virtual std::uint64_t max_supersteps() const {
    return std::numeric_limits<std::uint64_t>::max();
  }

  // --- Optional delta programming (PagerankDelta, DESIGN.md §12) -----------
  // A delta program's messages carry the *change* in a vertex's value
  // since the last time that vertex dispatched, not the value itself. The
  // dispatcher keeps a per-vertex last-sent plane (written only by the
  // owning dispatcher, so no synchronization) and hands gen_msg
  // delta(current, last_sent) in place of the raw value; `changed` is then
  // typically gated on an epsilon (GPSA_DELTA_EPS) so sub-threshold
  // residual growth stops re-activating the vertex and the run quiesces.

  /// True when gen_msg expects delta(current, last_sent) instead of the
  /// stored value. The engines then maintain the last-sent plane.
  virtual bool delta_messages() const { return false; }

  /// The change to propagate given the current stored value and the value
  /// as of this vertex's previous dispatch (0 before the first dispatch).
  /// Only called when delta_messages() is true.
  virtual Payload delta(Payload current, Payload last_sent) const {
    (void)last_sent;
    return current;
  }
};

// --- Exact sum fold (Program::sum_fold) --------------------------------------
//
// A sum-fold accumulator is a 64-bit fixed-point number with scale 2^-56.
// Integer addition is associative, so every arrival order of a vertex's
// messages yields the same FixedSum, and the slot receives its correctly
// rounded float. The bounds:
//   - a term >= 2^-32 converts exactly (its 24-bit significand's lowest
//     bit is worth >= 2^-55); a smaller term is truncated to a multiple of
//     2^-56, identically in every order;
//   - a sum < 2^7 fits (2^7 * 2^56 = 2^63). A term or sum at or above 2^7
//     (or inf/NaN) throws std::overflow_error, which fails the job with a
//     Status instead of wrapping.
// PageRank values are <= 1, so PageRank stays within both.

using FixedSum = std::uint64_t;

/// Bits of 128.0F: non-negative float payloads order as integers, so every
/// payload at or above this one is >= 2^7, inf or NaN.
inline constexpr Payload kFixedSumPayloadLimit = 0x4300'0000U;

inline FixedSum payload_to_fixed(Payload payload) {
  if (payload >= kFixedSumPayloadLimit) {
    throw std::overflow_error("sum fold: term >= 2^7");
  }
  // Scaling by 2^56 is exact in float; the int64 conversion truncates.
  return static_cast<FixedSum>(
      static_cast<std::int64_t>(payload_to_float(payload) * 0x1p56F));
}

inline FixedSum fixed_add(FixedSum a, FixedSum b) {
  const FixedSum sum = a + b;  // both < 2^63: cannot wrap
  if ((sum >> 63) != 0) {
    throw std::overflow_error("sum fold: sum >= 2^7");
  }
  return sum;
}

inline Payload fixed_to_payload(FixedSum sum) {
  // The int64 -> float conversion rounds to nearest; scaling back by 2^-56
  // is exact (the result is 0 or >= 2^-56, far above float's subnormals).
  return float_to_payload(
      static_cast<float>(static_cast<std::int64_t>(sum)) * 0x1p-56F);
}

/// One vertex slice's exact fold of a superstep's sum-fold messages, the
/// one implementation every executor of sum_fold() programs shares
/// (SliceApply, which the computers and the cluster ranks run, the
/// reference and the PSW/X-Stream baselines). add() takes each message as
/// it arrives, in any order, and add_partial() a peer rank's pre-summed
/// messages (integer addition is associative and every term is
/// non-negative, so both reach the same sum and the same overflow
/// verdict); finish() hands every vertex that received
/// messages the correctly rounded float of its exact sum once, at the end
/// of the superstep and in ascending vertex order, and resets it. The
/// caller decides activation there with Program::changed, so the decision
/// sees the whole superstep's mass, never a prefix that depends on
/// arrival order.
class SliceSumFold {
 public:
  /// Sizes the fold for the slice [begin, begin + size).
  void init(VertexId begin, VertexId size) {
    begin_ = begin;
    sums_.assign(size, kNoSum);
    summed_.assign((static_cast<std::size_t>(size) + 63) / 64, 0);
  }

  /// Adds one message to v's sum. On v's first message since the last
  /// finish() the sum starts from `seed()`: the caller's first touch of
  /// v, returning the program's first_update seed.
  template <typename Seed>
  void add(VertexId v, Payload message, Seed&& seed) {
    add_partial(v, payload_to_fixed(message), seed);
  }

  /// Adds `partial`, the fixed_add of payload_to_fixed over some of v's
  /// messages (a sender's combined term, < 2^63), to v's sum; the first
  /// touch is add()'s.
  template <typename Seed>
  void add_partial(VertexId v, FixedSum partial, Seed&& seed) {
    const VertexId i = v - begin_;
    FixedSum& sum = sums_[i];
    if (sum == kNoSum) {
      sum = fixed_add(payload_to_fixed(seed()), partial);
      summed_[i / 64] |= std::uint64_t{1} << (i % 64);
      return;
    }
    sum = fixed_add(sum, partial);
  }

  /// Calls publish(v, value) with the correctly rounded sum of every
  /// vertex summed since the last finish(), in ascending order (so the
  /// caller's stores stream through the slice), then resets their sums.
  template <typename Publish>
  void finish(Publish&& publish) {
    for (std::size_t w = 0; w < summed_.size(); ++w) {
      for (std::uint64_t bits = summed_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i = w * 64 + std::countr_zero(bits);
        publish(begin_ + static_cast<VertexId>(i), fixed_to_payload(sums_[i]));
        sums_[i] = kNoSum;
      }
      summed_[w] = 0;
    }
  }

 private:
  /// Sum of a vertex without messages this superstep (no real sum has
  /// the top bit set).
  static constexpr FixedSum kNoSum = ~FixedSum{0};

  VertexId begin_ = 0;
  std::vector<FixedSum> sums_;
  /// One bit per slice vertex with a running sum.
  std::vector<std::uint64_t> summed_;
};

}  // namespace gpsa
