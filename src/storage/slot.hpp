// Vertex-value slot encoding (paper §IV.F).
//
// A slot is a 32-bit word whose highest bit is the *stale flag* and whose
// low 31 bits are the application payload:
//
//   flag == 1  ->  the vertex was NOT updated in the last superstep;
//                  the dispatcher skips it (Algorithm 2, line 8).
//   flag == 0  ->  the vertex was updated; the dispatcher generates its
//                  messages and then re-sets the flag to 1 ("after a
//                  dispatcher finishes processing, it will invalidate the
//                  value of the current vertex by setting its highest bit
//                  to 1").
//
// Payload interpretations: integer apps (BFS level, CC label) store values
// < 2^31 directly; PageRank stores non-negative IEEE floats, whose sign
// bit is always 0, so the flag occupies exactly the bit the float never
// uses — the same trick the paper relies on.
//
// Note on the paper's prose: §IV.F says "At first, all the values will be
// set [to 1]", yet Figure 5 shows superstep 0 dispatching those vertices.
// We resolve the contradiction in favour of the algorithm listings: the
// *initially active* vertices start with flag 0 in superstep 0's dispatch
// column, everything else starts with flag 1.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

namespace gpsa {

using Slot = std::uint32_t;
using Payload = std::uint32_t;  // low 31 bits meaningful

inline constexpr Slot kSlotStaleBit = 0x8000'0000U;
inline constexpr Payload kPayloadMask = 0x7fff'ffffU;

/// Largest representable integer payload; used as "infinity" by BFS/SSSP.
inline constexpr Payload kPayloadInfinity = kPayloadMask;

constexpr bool slot_is_stale(Slot s) { return (s & kSlotStaleBit) != 0; }
constexpr Slot slot_set_stale(Slot s) { return s | kSlotStaleBit; }
constexpr Slot slot_clear_stale(Slot s) {
  return s & static_cast<Slot>(~kSlotStaleBit);
}
constexpr Payload slot_payload(Slot s) { return s & kPayloadMask; }

constexpr Slot make_slot(Payload payload, bool stale) {
  const Slot base = payload & kPayloadMask;
  return stale ? slot_set_stale(base) : base;
}

/// Non-negative float <-> payload. The float's sign bit must be 0 (checked
/// only in debug builds; PageRank values are probabilities).
inline Payload float_to_payload(float value) {
  return std::bit_cast<std::uint32_t>(value) & kPayloadMask;
}

inline float payload_to_float(Payload payload) {
  return std::bit_cast<float>(payload & kPayloadMask);
}

// --- The two-column slot protocol's only sanctioned atomic accessors. ---
//
// Dispatchers and computing actors share slot storage (mmap'd value files
// and the cluster engine's in-memory columns) with exactly one cross-role
// overlap: a computing actor reading the dispatch-column payload while the
// owning dispatcher sets its stale bit. All slot access therefore goes
// through std::atomic_ref with relaxed ordering — the mailbox handoff
// provides the happens-before for payloads, so stronger ordering here
// would buy nothing (DESIGN.md §9).
//
// These helpers are the ONE place that constructs atomic_ref over Slot
// storage; the gpsa-lint `slot-atomic-ref` rule rejects direct
// construction anywhere else, so the protocol cannot quietly fork.

inline Slot slot_load_relaxed(const Slot& storage) {
  return std::atomic_ref<const Slot>(storage).load(std::memory_order_relaxed);
}

inline void slot_store_relaxed(Slot& storage, Slot value) {
  std::atomic_ref<Slot>(storage).store(value, std::memory_order_relaxed);
}

/// Sets the stale bit, returning the previous slot (Algorithm 2 line 20's
/// consume step).
inline Slot slot_consume_relaxed(Slot& storage) {
  return std::atomic_ref<Slot>(storage).fetch_or(kSlotStaleBit,
                                                 std::memory_order_relaxed);
}

// --- Active-bitmap word protocol (the worklist) --------------------------
//
// The worklist (storage/active_bitmap.hpp, DESIGN.md §12) mirrors the
// two-column slot protocol with two generations of dense per-vertex bits:
// a computing actor publishes "dispatch v next superstep" by setting v's
// bit in the next generation, and dispatchers consume a generation by
// iterating and then clearing their interval's bits. Bitmap words straddle
// both computer ownership boundaries (concurrent set) and dispatcher
// interval boundaries (concurrent masked clear), so word access is always
// atomic. Relaxed ordering is sufficient for exactly the slot protocol's
// reason: the superstep barrier's mailbox handoff provides the
// happens-before between the setter's superstep and the reader's.
//
// Like the slot accessors above, these helpers are the ONE place that
// constructs atomic_ref over BitmapWord storage; the gpsa-lint
// `bitmap-atomic-ref` rule rejects direct construction anywhere else.

using BitmapWord = std::uint64_t;

inline constexpr unsigned kBitmapWordBits = 64;

inline BitmapWord bitmap_word_load_relaxed(const BitmapWord& storage) {
  return std::atomic_ref<const BitmapWord>(storage).load(
      std::memory_order_relaxed);
}

/// Publishes bits (a computing actor activating vertices for the next
/// generation). Returns the previous word.
inline BitmapWord bitmap_word_set_relaxed(BitmapWord& storage,
                                          BitmapWord bits) {
  return std::atomic_ref<BitmapWord>(storage).fetch_or(
      bits, std::memory_order_relaxed);
}

/// Clears the masked bits (a dispatcher retiring its interval's slice of a
/// consumed generation; boundary words are shared with the neighbouring
/// dispatcher's mask, hence fetch_and instead of a plain store).
inline BitmapWord bitmap_word_clear_relaxed(BitmapWord& storage,
                                            BitmapWord mask) {
  return std::atomic_ref<BitmapWord>(storage).fetch_and(
      ~mask, std::memory_order_relaxed);
}

}  // namespace gpsa
