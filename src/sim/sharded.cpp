#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace drs::sim {

ShardedEngine::ShardedEngine(Options options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.lookahead_ns < 1) options_.lookahead_ns = 1;
  shards_.reserve(options_.shards);
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>(options_.trace_capacity);
    if (traced()) shard->sim.set_tracer(&shard->tracer);
    shards_.push_back(std::move(shard));
  }
}

ShardedEngine::~ShardedEngine() { stop_workers(); }

void ShardedEngine::begin_setup_segment(std::uint32_t shard) {
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
  const std::uint64_t base = sh.trace_drained;
  const std::uint64_t total = sh.tracer.emitted();
  if (total == base) return;
  check_trace_loss(shard_index);
  std::uint64_t index = sh.tracer.evicted();
  sh.tracer.for_each([&](const obs::TraceEvent& event) {
    if (index++ >= base) merged_.push_back(event);
  });
  sh.trace_drained = total;
  sh.tracer.clear();
}

void ShardedEngine::check_trace_loss(std::uint32_t shard) const {
  const Shard& sh = *shards_[shard];
  if (sh.tracer.evicted() <= sh.trace_drained) return;
  throw TraceLossError(
      "ShardedEngine: shard " + std::to_string(shard) + "'s tracer evicted " +
      std::to_string(sh.tracer.evicted() - sh.trace_drained) +
      " trace events before they were merged; raise trace_capacity (now " +
      std::to_string(options_.trace_capacity) +
      ") or cap the window with max_window_ns");
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
    // keeps equal keys (impossible within one shard: a split broadcast puts
    // one piece per shard) in insertion order.
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
  const std::uint64_t executed_before = shard.sim.executed_events();
  std::uint64_t trace_mark = shard.tracer.emitted();
  for (;;) {
    std::int64_t local_t = 0;
    std::uint64_t local_key = 0;
    const bool has_local =
        shard.sim.peek_next(local_t, local_key) && local_t < end_ns;
    ForeignEvent* foreign = nullptr;
    if (shard.inbox_cursor < shard.inbox.size() &&
        shard.inbox[shard.inbox_cursor].at_ns < end_ns) {
      foreign = &shard.inbox[shard.inbox_cursor];
    }
    if (!has_local && foreign == nullptr) break;
    // Plain (time, key) order: both sides' keys were fixed at schedule time.
    const bool take_foreign =
        foreign != nullptr &&
        (!has_local || foreign->at_ns < local_t ||
         (foreign->at_ns == local_t && foreign->key < local_key));
    const std::int64_t t = take_foreign ? foreign->at_ns : local_t;
    const std::uint64_t key = take_foreign ? foreign->key : local_key;
    if (t < start_ns || t < shard.exec_t_ns ||
        (t == shard.exec_t_ns && key < shard.exec_key)) {
      ++shard.violations;
    }
    shard.exec_t_ns = t;
    shard.exec_key = key;
    if (take_foreign) {
      shard.sim.execute_foreign(util::SimTime::from_ns(t), key, foreign->fn);
      ++shard.inbox_cursor;
    } else {
      shard.sim.step();
    }
    // Untraced shards never emit, so this logs nothing for them.
    const std::uint64_t emitted = shard.tracer.emitted();
    if (emitted != trace_mark) {
      // drs-lint: hotpath-purity-ok(amortized: per-window emission log, cleared not shrunk at every merge, grows to the busiest window once)
      shard.emissions.push_back(Emission{t, key, emitted});
      trace_mark = emitted;
    }
  }
  shard.window_events_count += shard.sim.executed_events() - executed_before;
}

void ShardedEngine::merge_window(std::int64_t start_ns, std::int64_t end_ns) {
  if (traced()) {
    // 1. Stage each shard's window emissions. Everything emitted during a
    //    window happens inside some executed event, so the per-event spans
    //    tile the staged range exactly.
    const std::uint32_t n = shard_count();
    merge_pos_.assign(n, 0);
    merge_begin_.assign(n, 0);
    for (std::uint32_t s = 0; s < n; ++s) {
      // drs-lint: hotpath-purity-ok(cold: check_trace_loss allocates only to throw, which ends the run)
      check_trace_loss(s);
    }
    for (std::uint32_t s = 0; s < n; ++s) {
      Shard& sh = *shards_[s];
      merge_begin_[s] = sh.trace_drained;
      const std::uint64_t total = sh.tracer.emitted();
      sh.window_events.clear();
      if (total > sh.trace_drained) {
        std::uint64_t index = sh.tracer.evicted();
        sh.tracer.for_each([&](const obs::TraceEvent& event) {
          // drs-lint: hotpath-purity-ok(amortized: per-window staging buffer, cleared above, grows to the busiest window once)
          if (index++ >= sh.trace_drained) sh.window_events.push_back(event);
        });
      }
      sh.tracer.clear();
    }
    // 2. K-way merge of the per-shard emission logs, each already sorted by
    //    (time, key). Equal (time, key) across shards are the split pieces of
    //    one broadcast delivery: the lowest shard holds the earliest-attached
    //    receivers, so the strict comparison below keeps shard order.
    for (;;) {
      std::uint32_t s = 0;
      const Emission* best_entry = nullptr;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::vector<Emission>& log = shards_[i]->emissions;
        if (merge_pos_[i] >= log.size()) continue;
        const Emission& e = log[merge_pos_[i]];
        if (best_entry == nullptr || e.t_ns < best_entry->t_ns ||
            (e.t_ns == best_entry->t_ns && e.key < best_entry->key)) {
          s = i;
          best_entry = &e;
        }
      }
      if (best_entry == nullptr) break;
      Shard& sh = *shards_[s];
      for (std::uint64_t i = merge_begin_[s]; i < best_entry->trace_end; ++i) {
        // drs-lint: hotpath-purity-ok(output: the merged canonical trace is the engine's deliverable, the sharded analogue of the Tracer ring)
        merged_.push_back(sh.window_events[static_cast<std::size_t>(
            i - sh.trace_drained)]);
      }
      merge_begin_[s] = best_entry->trace_end;
      ++merge_pos_[s];
    }
    for (std::uint32_t s = 0; s < n; ++s) {
      Shard& sh = *shards_[s];
      sh.trace_drained += sh.window_events.size();
      assert(merge_begin_[s] == sh.trace_drained);
      sh.emissions.clear();  // capacity retained
    }
  }

  // 3. Shared-medium replay: captures turn into future foreign deliveries.
  if (merge_hook_) {
    foreign_floor_ns_ = end_ns;
    merge_hook_(start_ns, end_ns);
  }
}

void ShardedEngine::run_until(util::SimTime deadline) {
  assert(!open_segment_.has_value());
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
