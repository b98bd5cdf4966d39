// Dense active-vertex bitmap: the worklist every dispatch loop scans
// (DESIGN.md §12).
//
// Two generations of one-bit-per-vertex words mirror the value file's two
// columns: generation g is read (and then cleared) by dispatchers in the
// supersteps whose dispatch column is g, and written by computing actors
// in the preceding superstep (whose *update* column is g). A set bit is
// exactly equivalent to a clear stale flag in the matching column — the
// computing actor sets it in the same step that stores the non-stale slot
// (for sum-fold programs, at the end of the superstep through an
// AscendingBitSetter) — which is what makes the worklist visit exactly the
// vertices the paper's stale-flag scan would.
//
// Concurrency (see the BitmapWord helpers in slot.hpp): computing actors
// publish with an atomic fetch_or because a 64-vertex word can straddle
// two computers' ownership ranges; dispatchers retire their interval with
// masked fetch_and because a word can likewise straddle two dispatcher
// intervals (the dispatch_inactive ablation seeds its interval with the
// matching masked fetch_or). Within a superstep, setters touch generation
// (s+1)%2 while the reader/clearer touches generation s%2 — disjoint
// arrays — so the only cross-thread sharing is same-generation neighbours
// on boundary words, which the atomics make race-free.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "storage/slot.hpp"
#include "util/check.hpp"

namespace gpsa {

class ActiveBitmap {
 public:
  static constexpr unsigned kGenerations = 2;

  ActiveBitmap() = default;  // empty; assign a sized bitmap before use
  explicit ActiveBitmap(VertexId num_vertices)
      : num_vertices_(num_vertices),
        words_per_generation_(
            (static_cast<std::size_t>(num_vertices) + kBitmapWordBits - 1) /
            kBitmapWordBits) {
    for (auto& generation : generations_) {
      generation.assign(words_per_generation_, 0);
    }
  }

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t words_per_generation() const { return words_per_generation_; }

  static std::size_t word_index(VertexId v) { return v / kBitmapWordBits; }
  static unsigned bit_index(VertexId v) {
    return static_cast<unsigned>(v % kBitmapWordBits);
  }

  /// Activates v for the supersteps that dispatch `generation`. Safe from
  /// any computing actor: neighbouring owners may share the word.
  void set(VertexId v, unsigned generation) {
    GPSA_DCHECK(v < num_vertices_ && generation < kGenerations);
    bitmap_word_set_relaxed(generations_[generation][word_index(v)],
                            BitmapWord{1} << bit_index(v));
  }

  /// Activates every vertex of word `w` whose bit is set in `bits` (one
  /// atomic OR; see AscendingBitSetter).
  void set_bits(std::size_t w, unsigned generation, BitmapWord bits) {
    GPSA_DCHECK(w < words_per_generation_ && generation < kGenerations);
    bitmap_word_set_relaxed(generations_[generation][w], bits);
  }

  bool test(VertexId v, unsigned generation) const {
    GPSA_DCHECK(v < num_vertices_ && generation < kGenerations);
    return (bitmap_word_load_relaxed(generations_[generation][word_index(v)]) >>
            bit_index(v)) &
           1U;
  }

  /// One whole word of a generation (the dispatcher's scan granule; callers
  /// mask it to their interval and walk set bits with countr_zero).
  BitmapWord word(unsigned generation, std::size_t w) const {
    GPSA_DCHECK(w < words_per_generation_ && generation < kGenerations);
    return bitmap_word_load_relaxed(generations_[generation][w]);
  }

  /// Bits of word `w` that fall inside the vertex range [begin, end) —
  /// all-ones for interior words, partial for the boundary words a range
  /// shares with its neighbours.
  static BitmapWord range_mask(std::size_t w, VertexId begin, VertexId end) {
    const VertexId word_first = static_cast<VertexId>(w * kBitmapWordBits);
    BitmapWord mask = ~BitmapWord{0};
    if (begin > word_first) {
      mask &= ~BitmapWord{0} << (begin - word_first);
    }
    const VertexId word_last = word_first + kBitmapWordBits;  // exclusive
    if (end < word_last) {
      mask &= ~(~BitmapWord{0} << (end - word_first));
    }
    return mask;
  }

  /// Activates all of [begin, end) in a generation (the dispatch_inactive
  /// ablation's seed). Boundary words are set with an interval mask, like
  /// clear_range, so a neighbouring dispatcher's bits stay as they are.
  void set_range(unsigned generation, VertexId begin, VertexId end) {
    for_range_words(generation, begin, end,
                    [](BitmapWord& word, BitmapWord mask) {
                      bitmap_word_set_relaxed(word, mask);
                    });
  }

  /// Retires [begin, end) of a consumed generation. Boundary words are
  /// cleared with an interval mask so a neighbouring dispatcher clearing
  /// the same word never loses bits.
  void clear_range(unsigned generation, VertexId begin, VertexId end) {
    for_range_words(generation, begin, end,
                    [](BitmapWord& word, BitmapWord mask) {
                      bitmap_word_clear_relaxed(word, mask);
                    });
  }

 private:
  /// Calls op(word, mask) for every word of `generation` that [begin, end)
  /// touches, with the range's bits of that word as the mask.
  template <typename Op>
  void for_range_words(unsigned generation, VertexId begin, VertexId end,
                       Op op) {
    GPSA_DCHECK(generation < kGenerations && begin <= end &&
                end <= num_vertices_);
    if (begin >= end) {
      return;
    }
    std::vector<BitmapWord>& words = generations_[generation];
    const std::size_t first = word_index(begin);
    const std::size_t last = word_index(end - 1);
    for (std::size_t w = first; w <= last; ++w) {
      op(words[w], range_mask(w, begin, end));
    }
  }

  VertexId num_vertices_ = 0;
  std::size_t words_per_generation_ = 0;
  std::vector<BitmapWord> generations_[kGenerations];
};

/// Activates vertices visited in ascending order with one atomic OR per
/// word instead of one per vertex: a word's bits publish when the visit
/// leaves it, and at flush(). For end-of-superstep passes that no
/// dispatcher reads until the superstep's barrier, which flush() precedes.
class AscendingBitSetter {
 public:
  AscendingBitSetter(ActiveBitmap& bitmap, unsigned generation)
      : bitmap_(bitmap), generation_(generation) {}

  void set(VertexId v) {
    const std::size_t w = ActiveBitmap::word_index(v);
    GPSA_DCHECK(bits_ == 0 || w >= word_);
    if (w != word_) {
      flush();
      word_ = w;
    }
    bits_ |= BitmapWord{1} << ActiveBitmap::bit_index(v);
  }

  void flush() {
    if (bits_ != 0) {
      bitmap_.set_bits(word_, generation_, bits_);
      bits_ = 0;
    }
  }

 private:
  ActiveBitmap& bitmap_;
  const unsigned generation_;
  std::size_t word_ = 0;
  BitmapWord bits_ = 0;
};

}  // namespace gpsa
