#include "core/dispatcher.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/computer.hpp"
#include "core/manager.hpp"
#include "core/peer_links.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gpsa {

DispatcherActor::DispatcherActor(std::uint32_t id, Interval interval,
                                 VertexId base, const CsrFileReader& csr,
                                 CsrEntryStream& stream,
                                 ReadaheadScheduler& readahead,
                                 ValueFile& values, const Program& program,
                                 const OwnerMap& owners,
                                 MessageBatchPool& pool,
                                 std::size_t batch_size, Behavior behavior,
                                 ActiveBitmap& worklist,
                                 std::vector<Payload>* last_sent,
                                 const VertexId* orig_ids)
    : id_(id),
      interval_(interval),
      base_(base),
      csr_(csr),
      stream_(stream),
      readahead_(readahead),
      values_(values),
      program_(program),
      owners_(owners),
      pool_(pool),
      batch_size_(batch_size),
      behavior_(behavior),
      worklist_(worklist),
      last_sent_(last_sent),
      orig_ids_(orig_ids) {
  GPSA_CHECK(batch_size_ > 0);
  has_degree_ = csr_.has_degree();
}

void DispatcherActor::connect(std::vector<ComputerActor*> computers,
                              ManagerActor* manager, PeerLinks* peers) {
  GPSA_CHECK(!computers.empty() && manager != nullptr);
  GPSA_CHECK(computers.size() == owners_.parts());
  computers_ = std::move(computers);
  manager_ = manager;
  peers_ = peers;
  // One-time setup: the flat per-owner bin vectors. They grow to their
  // working set during warm-up and keep that capacity for the rest of the
  // run.
  bins_.resize(  // gpsa-lint: allow(msg-buffer-alloc)
      computers_.size() * kRadixBins);
  staged_count_.assign(computers_.size(), 0);
  radix_shift_.assign(computers_.size(), 0);
  flush_at_.assign(computers_.size(), 0);
  std::size_t widest = 0;  // of a peer's bins
  for (std::size_t owner = 0; owner < computers_.size(); ++owner) {
    const VertexId local =
        owners_.local_size(static_cast<unsigned>(owner));
    unsigned shift = 0;
    while (local > 0 &&
           (static_cast<std::uint64_t>(local - 1) >> shift) >= kRadixBins) {
      ++shift;
    }
    radix_shift_[owner] = shift;
    const bool peer = computers_[owner] == nullptr;
    flush_at_[owner] = behavior_.overlap && !peer
                           ? batch_size_
                           : std::numeric_limits<std::size_t>::max();
    if (peer) {
      widest = std::max(widest, std::size_t{1} << shift);
    }
  }
  partial_.assign(widest, 0);
  partial_count_.assign(widest, 0);
  partial_set_.assign((widest + 63) / 64, 0);
  if (widest > 0) {
    partials_per_send_ = peers_->max_partials();
  }
  uniform_message_ = program_.uniform_gen_msg();
}

void DispatcherActor::on_message(DispatcherMsg msg) {
  switch (msg.kind) {
    case DispatcherMsg::Kind::kIterationStart:
      try {
        run_iteration(msg.superstep);
      } catch (const std::exception& e) {
        // A user gen_msg or compute hook threw, or a combined sum left the
        // exact fold's range: report instead of wedging the
        // superstep barrier (§V.C exception handling).
        clear_staging();
        ManagerMsg failed;
        failed.kind = ManagerMsg::Kind::kWorkerFailed;
        failed.superstep = msg.superstep;
        failed.worker_id = id_;
        failed.error = std::string("dispatcher: ") + e.what();
        manager_->send(std::move(failed));
      }
      break;
    case DispatcherMsg::Kind::kSystemOver:
      break;  // nothing to tear down; the engine owns all resources
  }
}

void DispatcherActor::run_iteration(std::uint64_t superstep) {
  {
    // Booked before DISPATCH_OVER goes out: the last one can end the job,
    // and run_job reads busy_seconds() then.
    const ScopedAccumulator busy(busy_seconds_);
    messages_this_superstep_ = 0;
    dispatched_this_superstep_ = 0;
    entries_this_superstep_ = 0;
    checks_this_superstep_ = 0;
    const unsigned dispatch_col = ValueFile::dispatch_column(superstep);

    readahead_.begin_superstep();

    run_worklist(superstep, dispatch_col);
    flush_all(superstep);
    vertex_checks_total_ += checks_this_superstep_;
    entries_read_total_ += entries_this_superstep_;
  }

  ManagerMsg done;
  done.kind = ManagerMsg::Kind::kDispatchOver;
  done.superstep = superstep;
  done.worker_id = id_;
  done.count = messages_this_superstep_;
  done.active = dispatched_this_superstep_;
  done.edges = entries_this_superstep_ + checks_this_superstep_;
  manager_->send(done);
}

void DispatcherActor::run_worklist(std::uint64_t superstep,
                                   unsigned dispatch_col) {
  if (interval_.begin_vertex >= interval_.end_vertex) {
    return;
  }
  if (behavior_.dispatch_inactive) {
    // The skip-flag ablation: every vertex of the interval is active.
    worklist_.set_range(dispatch_col, interval_.begin_vertex,
                        interval_.end_vertex);
  }
  const auto offsets = csr_.record_offsets();
  // Word-scan the interval's slice of the dispatch generation: countr_zero
  // walks each word's set bits in ascending vertex order, popcount sizes
  // the batch for the counters.
  const std::size_t first = ActiveBitmap::word_index(interval_.begin_vertex);
  const std::size_t last = ActiveBitmap::word_index(interval_.end_vertex - 1);
  for (std::size_t w = first; w <= last; ++w) {
    BitmapWord bits =
        worklist_.word(dispatch_col, w) &
        ActiveBitmap::range_mask(w, interval_.begin_vertex,
                                 interval_.end_vertex);
    checks_this_superstep_ += static_cast<std::uint64_t>(std::popcount(bits));
    while (bits != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      const auto v =
          static_cast<VertexId>(w * kBitmapWordBits + bit);
      const std::uint64_t cursor = offsets[base_ + v];
      readahead_.advance(cursor, v);
      const Slot slot = values_.load(v, dispatch_col);
      // Bitmap/stale-flag equivalence (DESIGN.md §12): a set bit means the
      // owning computer stored this column non-stale last superstep —
      // unless the ablation seeded it.
      GPSA_DCHECK(behavior_.dispatch_inactive || !slot_is_stale(slot));
      dispatch_vertex(v, slot_payload(slot), cursor, offsets[base_ + v + 1],
                      superstep);
      values_.consume(v, dispatch_col);
    }
  }
  // Retire the consumed generation before the next superstep's computers
  // re-publish into it (the manager barrier orders the two); boundary
  // words are mask-cleared, so the neighbouring dispatcher keeps its bits.
  worklist_.clear_range(dispatch_col, interval_.begin_vertex,
                        interval_.end_vertex);
}

void DispatcherActor::dispatch_vertex(VertexId v, Payload value,
                                      std::uint64_t begin_entry,
                                      std::uint64_t end_entry,
                                      std::uint64_t superstep) {
  const std::uint64_t record_entries = end_entry - begin_entry;
  entries_this_superstep_ += record_entries;
  ++dispatched_this_superstep_;
  const std::int32_t* record =
      stream_.fetch_record(begin_entry, record_entries);
  if (last_sent_ != nullptr) {
    // Delta programming: the message carries the change since this
    // vertex's previous dispatch, and the plane records what was sent.
    const Payload current = value;
    value = program_.delta(current, (*last_sent_)[v]);
    (*last_sent_)[v] = current;
  }
  std::uint64_t i = 0;
  std::uint32_t degree;
  if (has_degree_) {
    degree = static_cast<std::uint32_t>(record[i++]);
  } else {
    degree = static_cast<std::uint32_t>(record_entries - 1);
  }
  // Program hooks see *original* vertex ids (identity unless the file is
  // renumbered); everything downstream of gen_msg stays in internal ids.
  const VertexId src = base_ + v;
  const VertexId src_ext = orig_ids_ == nullptr ? src : orig_ids_[src];
  // Uniform-message programs (PageRank, BFS, CC) pay gen_msg's virtual
  // call and arithmetic once per vertex, not once per out-edge; the
  // first destination is passed only for interface symmetry.
  Payload uniform_value = 0;
  if (uniform_message_ && record[i] != kCsrEndOfList) {
    const auto dst0 = static_cast<VertexId>(record[i]);
    uniform_value = program_.gen_msg(
        src_ext, orig_ids_ == nullptr ? dst0 : orig_ids_[dst0], value,
        degree);
  }
  while (record[i] != kCsrEndOfList) {
    const VertexId dst = static_cast<VertexId>(record[i]);
    ++i;
    const Payload message =
        uniform_message_
            ? uniform_value
            : program_.gen_msg(src_ext,
                               orig_ids_ == nullptr ? dst : orig_ids_[dst],
                               value, degree);
    // Bin-bucketed staging: land the message directly in its radix bin
    // while dst is in registers; the flush then only needs sequential
    // copies to emit an ascending-dst batch.
    const unsigned owner = owners_.owner_of(dst);
    const VertexId local = owners_.local_index(dst, owner);
    bins_[owner * kRadixBins + (local >> radix_shift_[owner])].push_back(
        VertexMessage{dst, message});
    ++staged_count_[owner];
    ++messages_this_superstep_;
    if (staged_count_[owner] >= flush_at_[owner]) {
      flush_batch(owner, superstep);
    }
  }
}

void DispatcherActor::flush_batch(std::size_t computer_index,
                                  std::uint64_t superstep) {
  if (staged_count_[computer_index] == 0) {
    return;
  }
  ComputerMsg msg;
  msg.kind = ComputerMsg::Kind::kBatch;
  msg.superstep = superstep;
  // Concatenate the radix bins into a leased buffer; the bins keep their
  // capacity for the next window.
  msg.batch = pool_.lease();
  gather_bins(computer_index, msg.batch);
  staged_count_[computer_index] = 0;
  computers_[computer_index]->send(std::move(msg));
}

void DispatcherActor::flush_partials(std::size_t owner,
                                     std::uint64_t superstep) {
  if (staged_count_[owner] == 0) {
    return;
  }
  staged_count_[owner] = 0;
  const unsigned shift = radix_shift_[owner];
  const std::size_t words = ((std::size_t{1} << shift) + 63) / 64;
  // Chosen once per flush: the sum fold's loop stays branch-free.
  const bool sum_fold = program_.sum_fold();
  std::vector<Partial> partials;
  partials.reserve(partials_per_send_);
  std::uint64_t messages = 0;  // that `partials` fold
  for (std::size_t b = 0; b < kRadixBins; ++b) {
    std::vector<VertexMessage>& bin = bins_[owner * kRadixBins + b];
    if (bin.empty()) {
      continue;
    }
    // The bin holds destinations [first, first + 2^shift).
    const VertexId first = owners_.range_begin(static_cast<unsigned>(owner)) +
                           (static_cast<VertexId>(b) << shift);
    if (sum_fold) {
      for (const VertexMessage& m : bin) {
        const VertexId i = m.dst - first;
        partial_[i] = fixed_add(partial_[i], payload_to_fixed(m.value));
        ++partial_count_[i];
        partial_set_[i / 64] |= std::uint64_t{1} << (i % 64);
      }
    } else {
      for (const VertexMessage& m : bin) {
        const VertexId i = m.dst - first;
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        partial_[i] = (partial_set_[i / 64] & bit) != 0
                          ? program_.compute(
                                static_cast<Payload>(partial_[i]), m.value)
                          : m.value;
        ++partial_count_[i];
        partial_set_[i / 64] |= bit;
      }
    }
    bin.clear();
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = partial_set_[w]; bits != 0;
           bits &= bits - 1) {
        const std::size_t i = w * 64 + std::countr_zero(bits);
        partials.push_back(
            Partial{first + static_cast<VertexId>(i), partial_[i]});
        messages += partial_count_[i];
        partial_[i] = 0;
        partial_count_[i] = 0;
        if (partials.size() == partials_per_send_) {
          peers_->send_partials(static_cast<unsigned>(owner), superstep,
                                messages, std::move(partials));
          partials = {};
          partials.reserve(partials_per_send_);
          messages = 0;
        }
      }
      partial_set_[w] = 0;
    }
  }
  if (!partials.empty()) {
    peers_->send_partials(static_cast<unsigned>(owner), superstep, messages,
                          std::move(partials));
  }
}

void DispatcherActor::flush_all(std::uint64_t superstep) {
  for (std::size_t i = 0; i < computers_.size(); ++i) {
    if (computers_[i] == nullptr) {
      flush_partials(i, superstep);
    } else {
      flush_batch(i, superstep);
    }
  }
}

void DispatcherActor::clear_staging() {
  for (auto& bin : bins_) {
    bin.clear();
  }
  std::fill(staged_count_.begin(), staged_count_.end(), 0);
  std::fill(partial_.begin(), partial_.end(), 0);
  std::fill(partial_count_.begin(), partial_count_.end(), 0);
  std::fill(partial_set_.begin(), partial_set_.end(), 0);
}

void DispatcherActor::gather_bins(std::size_t owner,
                                  std::vector<VertexMessage>& out) {
  // The leased buffer already carries message_batch capacity; this grows
  // it only when a batch exceeds that (the non-overlap ablation holds
  // whole intervals back). VertexMessage's no-op default constructor
  // keeps the resize from clearing elements the copies fully overwrite.
  out.resize(staged_count_[owner]);  // gpsa-lint: allow(msg-buffer-alloc)
  VertexMessage* cursor = out.data();
  const std::size_t base = owner * kRadixBins;
  // Ascending bins, arrival order within a bin: per-vertex fold order is
  // the dispatch order, exactly as if the batch were never bucketed.
  for (std::size_t b = 0; b < kRadixBins; ++b) {
    std::vector<VertexMessage>& bin = bins_[base + b];
    cursor = std::copy(bin.begin(), bin.end(), cursor);
    bin.clear();
  }
  GPSA_DCHECK(cursor == out.data() + out.size());
}

}  // namespace gpsa
