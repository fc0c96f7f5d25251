// Sharded discrete-event execution with conservative time-window sync.
//
// A ShardedEngine runs S independent Simulators (one per shard, each with its
// own EventQueue, arena and tracer ring) in lockstep windows of
// at least `lookahead` nanoseconds. The lookahead is the minimum cross-shard
// latency (for the fleet: the relay backplane's propagation delay), so an
// event executing anywhere inside window [W, W+L) can only affect another
// shard at time >= W+L — the classic conservative-synchronization argument.
// Within a window every shard executes its own queue with no locks and no
// cross-thread traffic; shards meet at a barrier where a single coordinator
// merges the window's trace logs, releases cross-shard events into the
// per-shard inboxes, and picks the next window (skipping idle gaps).
//
// Determinism contract — the reason this file exists (docs/SHARDING.md):
// a sharded run must be *byte-identical* to the single-queue run, at any
// shard count. Every queue orders same-time events by a key fixed at
// schedule time, (entity, per-entity counter) — see sim/event_queue.hpp. A
// caller that gives all of one entity's events to one shard (the fleet makes
// each cluster an entity, and keeps the relay hub's counter on its oracle)
// makes every counter advance in the same order on every engine, so every
// engine computes the same key for the same event, locally. Each shard then
// executes a sorted subsequence of the single-queue (time, key) order;
// cross-shard events carry their key and interleave with the local queue by
// plain (time, key) comparison. The merged trace is a k-way merge of the
// shards' already-sorted per-event logs.
//
// Everything here is generic over "what crosses shards": the engine moves
// opaque callbacks with (time, key) coordinates. The fleet's relay-hub
// oracle (cluster/partition.*) decides what those callbacks do.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/event.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace drs::sim {

/// Event identity across shards: the 64-bit local id (generation << 32 |
/// slot) qualified by its shard. Local ids recycle slots and generations
/// per-queue, so only the pair is unique fleet-wide.
struct GlobalEventId {
  std::uint32_t shard = 0;
  EventId local = kInvalidEventId;

  friend constexpr bool operator==(const GlobalEventId&,
                                   const GlobalEventId&) = default;
  friend constexpr auto operator<=>(const GlobalEventId&,
                                    const GlobalEventId&) = default;
};

/// A shard's tracer ring evicted events before the engine merged them, so
/// the merged trace would silently lose or misplace them. Raised before
/// anything the shard emitted since its last merge reaches the merged trace;
/// the engine cannot continue a run after it. The message names the shard
/// and Options::trace_capacity.
class TraceLossError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// S shards in conservative lockstep. See the file comment.
class ShardedEngine {
 public:
  struct Options {
    std::uint32_t shards = 1;
    /// Window length floor = minimum cross-shard latency, in ns. For the
    /// fleet this is the relay backplane's propagation delay.
    std::int64_t lookahead_ns = 5000;
    /// 0 skips tracer attachment entirely (no per-shard rings, no merged
    /// trace) — the fair configuration for benchmarking against an untraced
    /// single-queue run. A shard that emits more than this between two
    /// merges throws TraceLossError.
    std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
    /// Upper bound on window length (safety lever for small trace rings);
    /// 0 = unlimited. Windows are adaptive: each one widens past the
    /// lookahead to the announced bound on the next possible cross-shard
    /// hand-off (boundary-tagged events + inbox heads, refined by the EOT
    /// hook). That relies on the boundary-tagging contract: every event that
    /// can emit cross-shard traffic executes under the boundary scope (see
    /// Simulator::set_boundary_scope and docs/SHARDING.md). Setting this to
    /// lookahead_ns gives fixed-lookahead windows.
    std::int64_t max_window_ns = 0;
    /// Record per-window occupancy spans for the Chrome-trace export.
    bool record_window_spans = false;
  };

  /// A cross-shard event: executes at `at_ns` on the destination shard,
  /// ordered against local events by its schedule-time `key` (see the file
  /// comment). The pieces of one split broadcast share a key; they land on
  /// different shards and merge in shard order.
  // Inline storage sized for the fleet's hub deliveries (a Frame with its
  // payload pooled out-of-line, a destination NIC and the sender MAC): the
  // per-delivery heap allocation the std::function closure used to pay is
  // gone. Oversized captures fail to compile instead of silently allocating.
  using ForeignFn = util::InlineFunction<void(), 96>;
  struct ForeignEvent {
    std::int64_t at_ns = 0;
    std::uint64_t key = 0;
    ForeignFn fn;
  };


  explicit ShardedEngine(Options options);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  Simulator& simulator(std::uint32_t shard) { return shards_[shard]->sim; }
  const Simulator& simulator(std::uint32_t shard) const {
    return shards_[shard]->sim;
  }
  obs::Tracer& tracer(std::uint32_t shard) { return shards_[shard]->tracer; }
  std::int64_t lookahead_ns() const { return options_.lookahead_ns; }

  /// Ordering key of the event `shard` is executing right now (worker
  /// thread of that shard only). A boundary capture records it so the
  /// coordinator can replay captures in single-queue order.
  std::uint64_t executing_key(std::uint32_t shard) const {
    return shards_[shard]->exec_key;
  }

  /// Qualified id of an event scheduled on `shard` (uniqueness across the
  /// whole engine; see GlobalEventId).
  GlobalEventId global_id(std::uint32_t shard, EventId local) const {
    return GlobalEventId{shard, local};
  }

  // -- serialized setup ------------------------------------------------------
  // Construction and start() of the sharded system run on the caller's
  // thread, interleaved across shards in the order the single-simulator
  // build would use. Wrap every step that touches a shard in a segment so
  // its trace emissions land in the merged trace at the same position.
  void begin_setup_segment(std::uint32_t shard);
  void end_setup_segment();

  // -- cross-shard traffic ---------------------------------------------------
  /// Coordinator-side only (call from the merge hook): moves every staged
  /// foreign event into the shard's inbox in one call. No event may land
  /// inside the window being merged — the conservative bound guarantees
  /// arrivals fall at or after the next window's start, and
  /// min_foreign_margin_ns() records each event's margin. The staging vector
  /// is cleared but keeps its capacity, so an oracle can reuse it window
  /// after window without allocating.
  void add_foreign_batch(std::uint32_t shard, std::vector<ForeignEvent>& staged);

  /// Runs on the coordinator at every window barrier, after the window's
  /// traces are merged: replay the boundary captures of the window over the
  /// shared-medium state, and add_foreign_batch the resulting deliveries.
  using MergeHook = std::function<void(std::int64_t window_start_ns,
                                       std::int64_t window_end_ns)>;
  void set_merge_hook(MergeHook hook) { merge_hook_ = std::move(hook); }

  /// Earliest pending time held OUTSIDE the shards (a shared-medium oracle's
  /// queued deliveries); consulted when picking the next window so time-skip
  /// never jumps over an oracle-held delivery. int64 max = nothing pending.
  using NextPendingHook = std::function<std::int64_t()>;
  void set_next_pending_hook(NextPendingHook hook) {
    next_pending_hook_ = std::move(hook);
  }

  /// Runs on the coordinator right before each window [start, end) is
  /// released to the workers: flush oracle-held deliveries landing inside the
  /// window into the inboxes (they were created by earlier merges).
  using FlushHook = std::function<void(std::int64_t window_start_ns,
                                       std::int64_t window_end_ns)>;
  void set_flush_hook(FlushHook hook) { flush_hook_ = std::move(hook); }

  /// Adaptive-window refinement (see Options::max_window_ns). The engine
  /// computes `bound_ns` = the earliest sim-time any shard could next execute
  /// a boundary-tagged or foreign event; the hook returns the earliest
  /// sim-time a cross-shard *delivery* could occur, folding in shared-medium
  /// state (pending deliveries, the serialization clock, minimum frame time,
  /// propagation). Without a hook the engine assumes only that deliveries lag
  /// their cause by the lookahead: bound + lookahead_ns. Returned values are
  /// clamped to at least window_start + lookahead_ns, so a hook can never
  /// narrow a window below the fixed-lookahead floor. INT64_MAX = no
  /// cross-shard traffic possible until new causes appear.
  using EotHook = std::function<std::int64_t(std::int64_t bound_ns)>;
  void set_eot_hook(EotHook hook) { eot_hook_ = std::move(hook); }

  // -- run -------------------------------------------------------------------
  /// Executes every event with time <= deadline across all shards (windowed,
  /// one worker thread per shard), then advances every shard clock to the
  /// deadline — the sharded equivalent of Simulator::run_until.
  void run_until(util::SimTime deadline);

  /// The merged trace: every shard's emissions interleaved in global
  /// (time, key) execution order — byte-identical to the single-tracer
  /// stream. Grows across run_until calls.
  const std::vector<obs::TraceEvent>& merged_trace() const { return merged_; }

  std::uint64_t windows_run() const { return windows_run_; }
  std::uint64_t events_executed() const;
  /// Events that executed before their window's start or out of (time, key)
  /// order on their shard — always counted, and always 0 when the lookahead
  /// and keying contracts hold. In-order execution is the precondition of
  /// the plain trace merge.
  std::uint64_t window_violations() const;
  /// Min over foreign events of (arrival - start of the earliest window that
  /// could still execute when the event was enqueued). Conservative sync
  /// demands >= 0: no foreign event may land in sim-time a shard has already
  /// executed past. int64 max until the first foreign event.
  std::int64_t min_foreign_margin_ns() const { return min_foreign_margin_ns_; }
  /// Windows whose adaptive end exceeded the fixed-lookahead end — the
  /// windows the EOT protocol merged away relative to the fixed protocol.
  std::uint64_t windows_coalesced() const { return windows_coalesced_; }
  /// Events executed inside sync windows on `shard` (setup excluded).
  std::uint64_t shard_window_events(std::uint32_t shard) const {
    return shards_[shard]->window_events_count;
  }
  /// Wall-clock ns `shard`'s worker spent parked at the release barrier
  /// (0 until the concurrent path first runs; the inline single-active path
  /// never waits).
  std::uint64_t shard_barrier_wait_ns(std::uint32_t shard) const {
    return shards_[shard]->barrier_wait_ns;
  }
  /// Recorded window spans (empty unless Options::record_window_spans).
  const std::vector<obs::WindowSpan>& window_spans() const { return spans_; }

 private:
  /// One executed event that emitted trace events: its span of the shard's
  /// tracer ends at `trace_end` and begins where the previous entry (or the
  /// window's drained offset) ended.
  struct Emission {
    std::int64_t t_ns = 0;
    std::uint64_t key = 0;
    std::uint64_t trace_end = 0;
  };

  struct Shard {
    Simulator sim;
    obs::Tracer tracer;
    std::vector<ForeignEvent> inbox;  // sorted by (at_ns, key) past cursor
    std::size_t inbox_cursor = 0;
    std::uint64_t inbox_added = 0;  // appended since last sort
    // (time, key) of the event executing now, or executed last: boundary
    // captures read the key, and the in-order check compares against both.
    std::int64_t exec_t_ns = std::numeric_limits<std::int64_t>::min();
    std::uint64_t exec_key = 0;
    std::vector<Emission> emissions;  // this window's, in execution order
    std::uint64_t trace_drained = 0;  // tracer emitted() already merged
    std::vector<obs::TraceEvent> window_events;  // drain scratch
    std::uint64_t violations = 0;  // out-of-window or out-of-order executions
    std::uint64_t window_events_count = 0;  // events executed inside windows
    // Written by this shard's worker between the release and arrival
    // barriers (coordinator-owned while workers are parked, like all shard
    // state); read by metric collection after run_until returns.
    std::uint64_t barrier_wait_ns = 0;

    explicit Shard(std::size_t trace_capacity) : tracer(trace_capacity) {}
  };

  std::int64_t next_pending_ns(const Shard& shard) const;
  std::int64_t next_boundary_bound_ns() const;
  void execute_window(Shard& shard, std::int64_t start_ns, std::int64_t end_ns);
  void merge_window(std::int64_t start_ns, std::int64_t end_ns);
  void drain_setup_segment(std::uint32_t shard);
  /// Throws TraceLossError if `shard`'s ring evicted undrained events.
  void check_trace_loss(std::uint32_t shard) const;
  void sort_inboxes();
  void worker_loop(std::uint32_t shard);
  void start_workers();
  void stop_workers();
  bool traced() const { return options_.trace_capacity > 0; }

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  MergeHook merge_hook_;
  NextPendingHook next_pending_hook_;
  FlushHook flush_hook_;
  EotHook eot_hook_;

  // Setup state (single-threaded phase).
  std::optional<std::uint32_t> open_segment_;

  // Merge state.
  std::vector<obs::TraceEvent> merged_;
  std::vector<std::size_t> merge_pos_;         // scratch: next emission
  std::vector<std::uint64_t> merge_begin_;     // scratch: next span begin
  std::uint64_t windows_run_ = 0;
  std::uint64_t windows_coalesced_ = 0;
  std::vector<obs::WindowSpan> spans_;
  std::int64_t min_foreign_margin_ns_ =
      std::numeric_limits<std::int64_t>::max();
  /// Earliest sim-time a foreign event enqueued right now may legally carry:
  /// the upcoming window's start during the flush phase, the merged window's
  /// end during the merge phase. add_foreign_batch scores margins against it.
  std::int64_t foreign_floor_ns_ = 0;

  // Worker pool: created on the first run_until, parked between windows at a
  // sense-reversing barrier. The release side is the window generation (the
  // generation value IS the sense); the arrival side is a fetch_add counter.
  // Workers spin a bounded number of iterations before falling back to
  // std::atomic::wait (futex on Linux). All shard state is handed back and
  // forth through the two release/acquire edges: the coordinator's
  // generation bump publishes window params + inboxes to workers, and the
  // last worker's arrival increment publishes shard state back (TSan-clean).
  std::vector<std::thread> workers_;
  alignas(64) std::atomic<std::uint64_t> window_generation_{0};
  alignas(64) std::atomic<std::uint32_t> workers_arrived_{0};
  std::atomic<bool> stopping_{false};
  std::int64_t window_start_ns_ = 0;  // published by the generation bump
  std::int64_t window_end_ns_ = 0;
};

}  // namespace drs::sim
