// Block-partitioned parallel loop for the baseline engines (which the
// paper describes as thread-based, in contrast to GPSA's actors).
//
// Spawns worker-1 threads plus the calling thread, each handling one
// contiguous block. Coarse-grained by design: callers invoke it once per
// phase, not per element.
#pragma once

#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace gpsa {

/// Calls fn(block_begin, block_end, block_index) for `threads` contiguous
/// blocks covering [begin, end). fn must be safe to run concurrently on
/// disjoint blocks. If blocks throw, the first block's exception is
/// rethrown once every block has finished.
template <typename Fn>
void parallel_for_blocks(std::uint64_t begin, std::uint64_t end,
                         unsigned threads, Fn&& fn) {
  GPSA_CHECK(threads >= 1);
  const std::uint64_t total = end > begin ? end - begin : 0;
  if (total == 0) {
    return;
  }
  const unsigned blocks =
      static_cast<unsigned>(std::min<std::uint64_t>(threads, total));
  if (blocks == 1) {
    fn(begin, end, 0U);
    return;
  }
  std::vector<std::exception_ptr> errors(blocks);
  auto run_block = [&fn, &errors](std::uint64_t lo, std::uint64_t hi,
                                  unsigned b) {
    try {
      fn(lo, hi, b);
    } catch (...) {
      errors[b] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(blocks - 1);
  for (unsigned b = 0; b < blocks; ++b) {
    const std::uint64_t lo = begin + total * b / blocks;
    const std::uint64_t hi = begin + total * (b + 1) / blocks;
    if (b + 1 == blocks) {
      run_block(lo, hi, b);  // run the last block inline
    } else {
      pool.emplace_back([&run_block, lo, hi, b] { run_block(lo, hi, b); });
    }
  }
  for (auto& t : pool) {
    t.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace gpsa
