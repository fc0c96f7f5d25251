#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>

namespace drs::sim {

// ---------------------------------------------------------------------------
// OrderingJournal
// ---------------------------------------------------------------------------

OrderingJournal::Meta OrderingJournal::make_child_meta() {
  Meta meta;
  if (in_setup_) {
    meta.parent = kSetupParent;
    if (forced_setup_idx_.has_value()) {
      meta.idx = *forced_setup_idx_;
      forced_setup_idx_.reset();
    } else {
      assert(setup_counter_ != nullptr);
      meta.idx = ++*setup_counter_;
    }
    meta.window_ref = false;
    return meta;
  }
  // Outside setup, every push/claim must happen while some event executes —
  // that event is the lineage parent. External mid-run pushes have no legacy
  // rank to reproduce and are excluded by contract (docs/SHARDING.md).
  assert(in_event_ &&
         "sharded pushes must originate from setup or an executing event");
  meta.parent = cur_entry_;
  meta.idx = cur_child_idx_++;
  meta.window_ref = true;
  return meta;
}

void OrderingJournal::on_claim(std::uint64_t rank) {
  claims_[rank] = make_child_meta();
  // drs-lint: hotpath-purity-ok(amortized: per-window scratch, cleared not shrunk by finish_window, capacity reused)
  new_claim_ranks_.push_back(rank);
}

void OrderingJournal::on_push(std::uint32_t slot, std::uint64_t rank) {
  // drs-lint: hotpath-purity-ok(amortized: grows to the queue's slot high-water once; slots recycle thereafter)
  if (slot >= metas_.size()) metas_.resize(slot + 1);
  if (auto it = claims_.find(rank); it != claims_.end()) {
    metas_[slot] = it->second;
    claims_.erase(it);
  } else {
    metas_[slot] = make_child_meta();
  }
  // drs-lint: hotpath-purity-ok(amortized: per-window scratch, cleared not shrunk by finish_window, capacity reused)
  new_meta_slots_.push_back(slot);
}

void OrderingJournal::begin_event(std::int64_t t_ns, std::uint32_t slot) {
  assert(!in_event_);
  assert(slot < metas_.size());
  const Meta& meta = metas_[slot];
  cur_entry_ = log_.size();
  cur_child_idx_ = 0;
  in_event_ = true;
  // drs-lint: hotpath-purity-ok(amortized: window log is cleared, not shrunk, at every merge; capacity reused)
  log_.push_back(LogEntry{t_ns, meta.parent, meta.idx, meta.window_ref,
                          tracer_ != nullptr ? tracer_->emitted() : 0, 0,
                          kUnranked});
}

void OrderingJournal::begin_foreign(std::int64_t t_ns, const PushKey& key) {
  assert(!in_event_);
  cur_entry_ = log_.size();
  cur_child_idx_ = 0;
  in_event_ = true;
  // drs-lint: hotpath-purity-ok(amortized: same window log as begin_event, cleared not shrunk at every merge)
  log_.push_back(LogEntry{t_ns, key.parent, key.idx, /*window_ref=*/false,
                          tracer_ != nullptr ? tracer_->emitted() : 0, 0,
                          kUnranked});
}

void OrderingJournal::end_event() {
  assert(in_event_);
  log_[cur_entry_].trace_end = tracer_ != nullptr ? tracer_->emitted() : 0;
  in_event_ = false;
}

void OrderingJournal::finish_window() {
  // Patch every meta minted this window to its parent's final gseq before the
  // window log (which the window-local refs index) is discarded. Visiting a
  // slot twice (pushed, executed, slot recycled and pushed again within one
  // window) is harmless: each visit resolves whatever the slot holds NOW, and
  // resolution is idempotent once window_ref clears.
  for (const std::uint32_t slot : new_meta_slots_) {
    Meta& meta = metas_[slot];
    if (meta.window_ref) {
      assert(log_[meta.parent].gseq != kUnranked);
      meta.parent = log_[meta.parent].gseq;
      meta.window_ref = false;
    }
  }
  new_meta_slots_.clear();
  // Ranks claimed this window but not yet pushed (a hub stream entry whose
  // armed event is still pending) finalize the same way. A claimed rank whose
  // event never materializes (the stream was cleared by a failure) stays
  // behind as a finalized, never-consumed entry — bounded by lost frames.
  for (const std::uint64_t rank : new_claim_ranks_) {
    if (auto it = claims_.find(rank); it != claims_.end()) {
      Meta& meta = it->second;
      if (meta.window_ref) {
        assert(log_[meta.parent].gseq != kUnranked);
        meta.parent = log_[meta.parent].gseq;
        meta.window_ref = false;
      }
    }
  }
  new_claim_ranks_.clear();
  log_.clear();  // capacity retained: steady-state windows do not allocate
}

// ---------------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------------

ShardedEngine::ShardedEngine(Options options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.lookahead_ns < 1) options_.lookahead_ns = 1;
  shards_.reserve(options_.shards);
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>(traced() ? options_.trace_capacity : 0);
    if (traced()) {
      shard->journal.set_tracer(&shard->tracer);
      shard->sim.set_tracer(&shard->tracer);
    }
    // The counter-equal lane elides the journal entirely: no lineage
    // recording on push/claim, no per-event log, no window merge. Ordering
    // of same-time cross-shard traffic is then the caller's contract (the
    // fleet oracle replays offers in (time, cluster, capture) order, which
    // provably matches legacy rank order for the gateway mesh).
    if (certified()) shard->sim.set_journal(&shard->journal);
    shards_.push_back(std::move(shard));
  }
}

ShardedEngine::~ShardedEngine() { stop_workers(); }

void ShardedEngine::begin_setup() {
  assert(!in_setup_);
  in_setup_ = true;
  for (auto& shard : shards_) shard->journal.begin_setup(&setup_counter_);
}

void ShardedEngine::begin_setup_segment(std::uint32_t shard) {
  assert(in_setup_);
  assert(!open_segment_.has_value());
  open_segment_ = shard;
}

void ShardedEngine::end_setup_segment() {
  assert(open_segment_.has_value());
  drain_setup_segment(*open_segment_);
  open_segment_.reset();
}

void ShardedEngine::drain_setup_segment(std::uint32_t shard_index) {
  // Eager per-segment drains keep multi-shard setup emissions in the merged
  // trace at exactly the position the legacy serialized build produced them.
  Shard& sh = *shards_[shard_index];
  const std::uint64_t base = sh.journal.trace_drained;
  const std::uint64_t total = sh.tracer.emitted();
  if (total == base) return;
  assert(base >= sh.tracer.evicted() &&
         "tracer evicted undrained setup events; raise Options::trace_capacity");
  std::uint64_t index = sh.tracer.evicted();
  sh.tracer.for_each([&](const obs::TraceEvent& event) {
    if (index++ >= base) merged_.push_back(event);
  });
  sh.journal.trace_drained = total;
  sh.tracer.clear();
}

void ShardedEngine::end_setup() {
  assert(!open_segment_.has_value());
  in_setup_ = false;
  for (auto& shard : shards_) shard->journal.end_setup();
}

void ShardedEngine::add_foreign(std::uint32_t shard, ForeignEvent event) {
  Shard& sh = *shards_[shard];
  const std::int64_t margin = event.at_ns - foreign_floor_ns_;
  if (margin < min_foreign_margin_ns_) min_foreign_margin_ns_ = margin;
  sh.inbox.push_back(std::move(event));
  ++sh.inbox_added;
}

void ShardedEngine::add_foreign_batch(std::uint32_t shard,
                                      std::vector<ForeignEvent>& staged) {
  if (staged.empty()) return;
  Shard& sh = *shards_[shard];
  for (ForeignEvent& event : staged) {
    const std::int64_t margin = event.at_ns - foreign_floor_ns_;
    if (margin < min_foreign_margin_ns_) min_foreign_margin_ns_ = margin;
    // drs-lint: hotpath-purity-ok(amortized: inbox grows to its high-water once; the consumed prefix is compacted by sort_inboxes)
    sh.inbox.push_back(std::move(event));
  }
  sh.inbox_added += staged.size();
  staged.clear();  // capacity retained for the oracle's next window
}

void ShardedEngine::sort_inboxes() {
  for (auto& sp : shards_) {
    Shard& sh = *sp;
    if (sh.inbox_added == 0) continue;
    // Bound the consumed prefix before sorting the live suffix (amortized
    // O(1) per event, same policy as the hub delivery ring).
    if (sh.inbox_cursor >= 1024 && sh.inbox_cursor * 2 >= sh.inbox.size()) {
      sh.inbox.erase(sh.inbox.begin(),
                     sh.inbox.begin() +
                         static_cast<std::ptrdiff_t>(sh.inbox_cursor));
      sh.inbox_cursor = 0;
    }
    // Oracle restores can emit at earlier arrivals than stale queued records,
    // so the unconsumed suffix must be re-ordered by (time, key). stable_sort
    // keeps equal keys (impossible within one shard, but cheap insurance) in
    // insertion order.
    std::stable_sort(
        sh.inbox.begin() + static_cast<std::ptrdiff_t>(sh.inbox_cursor),
        sh.inbox.end(), [](const ForeignEvent& a, const ForeignEvent& b) {
          if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
          return a.key < b.key;
        });
    sh.inbox_added = 0;
  }
}

std::int64_t ShardedEngine::next_pending_ns(const Shard& shard) const {
  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  const util::SimTime t = shard.sim.next_event_time();
  if (t < util::SimTime::max()) next = t.ns();
  if (shard.inbox_cursor < shard.inbox.size()) {
    next = std::min(next, shard.inbox[shard.inbox_cursor].at_ns);
  }
  return next;
}

std::int64_t ShardedEngine::next_boundary_bound_ns() const {
  // Earliest sim-time any shard could next execute an event able to emit
  // cross-shard traffic: the earliest boundary-tagged queue event, or the
  // earliest undelivered inbox entry (foreign deliveries execute under the
  // boundary scope, so anything they trigger counts too). Oracle-held state
  // (pending deliveries, the serialization clock) is folded in by the EOT
  // hook, which receives this bound.
  std::int64_t bound = std::numeric_limits<std::int64_t>::max();
  for (const auto& shard : shards_) {
    bound = std::min(bound, shard->sim.next_boundary_ns());
    if (shard->inbox_cursor < shard->inbox.size()) {
      bound = std::min(bound, shard->inbox[shard->inbox_cursor].at_ns);
    }
  }
  return bound;
}

void ShardedEngine::execute_window(Shard& shard, std::int64_t start_ns,
                                   std::int64_t end_ns) {
  const bool journaled = certified();
  const std::uint64_t executed_before = shard.sim.executed_events();
  for (;;) {
    std::int64_t local_t = 0;
    std::uint32_t local_slot = 0;
    const bool has_local = shard.sim.peek_next(local_t, local_slot);
    ForeignEvent* foreign = shard.inbox_cursor < shard.inbox.size()
                                ? &shard.inbox[shard.inbox_cursor]
                                : nullptr;
    bool take_foreign = false;
    if (foreign != nullptr && foreign->at_ns < end_ns) {
      if (!has_local || local_t >= end_ns || foreign->at_ns < local_t) {
        take_foreign = true;
      } else if (foreign->at_ns != local_t) {
        // local first
      } else if (!journaled) {
        // Counter-equal lane: a delivery's legacy rank was claimed at its
        // transmit instant, before any same-time local push this window
        // could produce — and the fleet's hub arrivals never collide with
        // pre-scheduled local events (serialization offsets are never
        // multiples of the probe cadence).
        take_foreign = true;
      } else {
        const OrderingJournal::Meta& meta =
            shard.journal.meta_for_slot(local_slot);
        if (meta.window_ref) {
          // The local event's parent executes THIS window, so its gseq will
          // exceed every previously-assigned one — including the foreign
          // event's parent, which executed in an earlier window.
          take_foreign = true;
        } else {
          take_foreign = foreign->key < PushKey{meta.parent, meta.idx};
        }
      }
    }
    if (take_foreign) {
      if (options_.check_windows && foreign->at_ns < start_ns) {
        ++shard.violations;
      }
      if (journaled) {
        shard.journal.begin_foreign(foreign->at_ns, foreign->key);
        shard.sim.execute_foreign(util::SimTime::from_ns(foreign->at_ns),
                                  foreign->fn);
        shard.journal.end_event();
      } else {
        shard.sim.execute_foreign(util::SimTime::from_ns(foreign->at_ns),
                                  foreign->fn);
      }
      ++shard.inbox_cursor;
      continue;
    }
    if (has_local && local_t < end_ns) {
      if (options_.check_windows && local_t < start_ns) ++shard.violations;
      shard.sim.step();
      continue;
    }
    shard.window_events_count += shard.sim.executed_events() - executed_before;
    return;
  }
}

void ShardedEngine::merge_window(std::int64_t start_ns, std::int64_t end_ns) {
  // Counter-equal lane: no journal, no logs, no gseqs — the merge *is* the
  // shared-medium replay. The hook orders same-time offers by its own
  // contract (see Ordering::kCounterEqual).
  if (!certified()) {
    if (merge_hook_) {
      foreign_floor_ns_ = end_ns;
      merge_hook_(start_ns, end_ns);
    }
    return;
  }

  // 1. K-way merge of the per-shard execution logs under (time, key, shard),
  //    assigning dense global sequence numbers. A window-local parent ref is
  //    always resolvable when its child reaches a stream head: the parent is
  //    an earlier entry of the same shard's log, already merged.
  const std::uint32_t n = shard_count();
  merge_order_.clear();
  merge_pos_.assign(n, 0);
  for (;;) {
    int best = -1;
    std::int64_t best_t = 0;
    PushKey best_key{};
    for (std::uint32_t s = 0; s < n; ++s) {
      const auto& log = shards_[s]->journal.log();
      if (merge_pos_[s] >= log.size()) continue;
      const OrderingJournal::LogEntry& e = log[merge_pos_[s]];
      const PushKey key{e.window_ref ? log[e.parent].gseq : e.parent, e.idx};
      if (best < 0 || e.t_ns < best_t ||
          (e.t_ns == best_t && key < best_key)) {
        best = static_cast<int>(s);
        best_t = e.t_ns;
        best_key = key;
      }
    }
    if (best < 0) break;
    const auto s = static_cast<std::uint32_t>(best);
    shards_[s]->journal.log()[merge_pos_[s]].gseq = next_gseq_++;
    // drs-lint: hotpath-purity-ok(amortized: merge scratch is cleared, not shrunk, every window; capacity reused)
    merge_order_.emplace_back(s, merge_pos_[s]);
    ++merge_pos_[s];
  }

  // 2. Interleave the shards' trace emissions in gseq order: each log entry
  //    owns the [trace_begin, trace_end) span it emitted, and the spans tile
  //    the window's drained range exactly (everything emitted during a window
  //    happens inside some executing event). Untraced runs
  //    (trace_capacity == 0) skip the staging entirely.
  for (std::uint32_t s = 0; traced() && s < n; ++s) {
    Shard& sh = *shards_[s];
    sh.window_trace_base = sh.journal.trace_drained;
    const std::uint64_t total = sh.tracer.emitted();
    assert(sh.window_trace_base >= sh.tracer.evicted() &&
           "tracer evicted undrained events; raise Options::trace_capacity");
    sh.window_events.clear();
    if (total > sh.window_trace_base) {
      std::uint64_t index = sh.tracer.evicted();
      sh.tracer.for_each([&](const obs::TraceEvent& event) {
        // drs-lint: hotpath-purity-ok(amortized: per-window staging buffer, cleared above, grows to the busiest window once)
        if (index++ >= sh.window_trace_base) sh.window_events.push_back(event);
      });
    }
    sh.journal.trace_drained = total;
    sh.tracer.clear();
  }
  if (traced()) {
    for (const auto& [s, entry_index] : merge_order_) {
      Shard& sh = *shards_[s];
      const OrderingJournal::LogEntry& e = sh.journal.log()[entry_index];
      assert(e.trace_begin >= sh.window_trace_base &&
             e.trace_end - sh.window_trace_base <= sh.window_events.size());
      for (std::uint64_t i = e.trace_begin; i < e.trace_end; ++i) {
        // drs-lint: hotpath-purity-ok(output: the merged canonical trace is the engine's deliverable, the sharded analogue of the Tracer ring)
        merged_.push_back(sh.window_events[static_cast<std::size_t>(
            i - sh.window_trace_base)]);
      }
    }
  }

  // 3. Shared-medium replay: offers captured at shard boundaries resolve to
  //    final keys now and turn into future foreign deliveries.
  if (merge_hook_) {
    foreign_floor_ns_ = end_ns;
    merge_hook_(start_ns, end_ns);
  }

  // 4. Finalize pending metas against this window's gseqs, then drop the log.
  for (auto& shard : shards_) shard->journal.finish_window();
}

void ShardedEngine::run_until(util::SimTime deadline) {
  if (in_setup_) end_setup();
  const std::int64_t deadline_ns = deadline.ns();
  for (;;) {
    std::int64_t next = std::numeric_limits<std::int64_t>::max();
    for (const auto& shard : shards_) {
      next = std::min(next, next_pending_ns(*shard));
    }
    if (next_pending_hook_) next = std::min(next, next_pending_hook_());
    if (next > deadline_ns) break;

    const std::int64_t w_start = next;
    // The conservative floor is one lookahead; the final window is
    // deadline-inclusive (end = deadline + 1), matching
    // Simulator::run_until's `<= deadline`.
    std::int64_t w_end = (deadline_ns - w_start >= options_.lookahead_ns)
                             ? w_start + options_.lookahead_ns
                             : deadline_ns + 1;
    // Earliest-output-time widening: no cross-shard delivery can occur
    // before `eot`, so the window may safely extend to it (up to
    // Options::max_window_ns). The
    // boundary bound covers every in-shard cause; the hook refines it with
    // shared-medium state (pending deliveries, serialization clock,
    // minimum frame time). Without a hook, only the generic guarantee
    // holds: a delivery lags its cause by at least the lookahead.
    const std::int64_t max_ns = std::numeric_limits<std::int64_t>::max();
    const std::int64_t bound = next_boundary_bound_ns();
    std::int64_t eot;
    if (eot_hook_) {
      eot = eot_hook_(bound);
    } else {
      eot = bound == max_ns ? max_ns : bound + options_.lookahead_ns;
    }
    if (eot > w_end) {
      w_end = std::min(eot, deadline_ns == max_ns ? max_ns : deadline_ns + 1);
      if (options_.max_window_ns > 0 &&
          w_end - w_start > options_.max_window_ns) {
        w_end = w_start + options_.max_window_ns;
      }
      if (w_end > w_start + options_.lookahead_ns) ++windows_coalesced_;
    }

    foreign_floor_ns_ = w_start;
    if (flush_hook_) flush_hook_(w_start, w_end);
    sort_inboxes();

    // Single-active fast path: fixed-lookahead runs fragment bursts (hub
    // serialization spaces deliveries wider than one window), so many
    // windows touch exactly one shard. Executing that shard inline skips the
    // whole wakeup round-trip; execution and merge results are identical
    // either way, so this is invisible to the determinism contract. Workers
    // only spin up lazily at the first genuinely concurrent window.
    std::uint32_t active = 0;
    Shard* only = nullptr;
    for (const auto& shard : shards_) {
      if (next_pending_ns(*shard) < w_end) {
        ++active;
        only = shard.get();
      }
    }
    const std::uint64_t executed_before =
        options_.record_window_spans ? events_executed() : 0;
    if (active <= 1) {
      if (only != nullptr) execute_window(*only, w_start, w_end);
    } else {
      start_workers();
      // Release barrier: publish window params, reset the arrival counter,
      // then bump the generation (the release edge workers acquire).
      window_start_ns_ = w_start;
      window_end_ns_ = w_end;
      workers_arrived_.store(0, std::memory_order_relaxed);
      window_generation_.fetch_add(1, std::memory_order_release);
      window_generation_.notify_all();
      // Arrival barrier: spin briefly (windows are short at fleet scale),
      // then park on the futex. The last worker's fetch_add is the release
      // edge that hands all shard state back to the coordinator.
      const std::uint32_t n_shards = shard_count();
      for (int spin = 0; spin < 4096; ++spin) {
        if (workers_arrived_.load(std::memory_order_acquire) == n_shards) break;
      }
      std::uint32_t arrived;
      while ((arrived = workers_arrived_.load(std::memory_order_acquire)) !=
             n_shards) {
        workers_arrived_.wait(arrived, std::memory_order_acquire);
      }
    }

    merge_window(w_start, w_end);
    ++windows_run_;
    if (options_.record_window_spans) {
      // drs-lint: hotpath-purity-ok(output: one span per window, the deliverable of Options::record_window_spans)
      spans_.push_back(obs::WindowSpan{w_start, w_end, active,
                                       events_executed() - executed_before});
    }
  }
  for (auto& shard : shards_) shard->sim.advance_clock(deadline);
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.executed_events();
  return total;
}

std::uint64_t ShardedEngine::window_violations() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->violations;
  return total;
}

void ShardedEngine::worker_loop(std::uint32_t shard) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    // Sense-reversing wait: the generation value is the sense. A bounded
    // spin covers the common back-to-back-window case without a syscall;
    // the futex fallback parks the thread across long merges and between
    // run_until calls. The acquire load pairs with the coordinator's
    // release bump and publishes window params + inbox state.
    const std::int64_t wait_begin = util::wall_clock_ns();
    std::uint64_t generation = seen_generation;
    for (int spin = 0; spin < 4096; ++spin) {
      generation = window_generation_.load(std::memory_order_acquire);
      if (generation != seen_generation) break;
    }
    while (generation == seen_generation) {
      window_generation_.wait(seen_generation, std::memory_order_acquire);
      generation = window_generation_.load(std::memory_order_acquire);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    seen_generation = generation;
    Shard& sh = *shards_[shard];
    sh.barrier_wait_ns +=
        static_cast<std::uint64_t>(util::wall_clock_ns() - wait_begin);
    // All shard state this touches is handed back and forth through the two
    // barrier edges: the coordinator last released it at the generation
    // bump, and reads it only after acquiring arrived == shard_count().
    execute_window(sh, window_start_ns_, window_end_ns_);
    if (workers_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        shard_count()) {
      workers_arrived_.notify_one();
    }
  }
}

void ShardedEngine::start_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_.size());
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

void ShardedEngine::stop_workers() {
  if (workers_.empty()) return;
  stopping_.store(true, std::memory_order_release);
  window_generation_.fetch_add(1, std::memory_order_release);
  window_generation_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  stopping_.store(false, std::memory_order_relaxed);
}

}  // namespace drs::sim
