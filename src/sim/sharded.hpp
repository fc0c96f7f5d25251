// Sharded discrete-event execution with conservative time-window sync.
//
// A ShardedEngine runs S independent Simulators (one per shard, each with its
// own timing-wheel EventQueue, arena and tracer ring) in lockstep windows of
// at most `lookahead` nanoseconds. The lookahead is the minimum cross-shard
// latency (for the fleet: the relay backplane's propagation delay), so an
// event executing anywhere inside window [W, W+L) can only affect another
// shard at time >= W+L — the classic conservative-synchronization argument.
// Within a window every shard executes its own queue with no locks and no
// cross-thread traffic; shards meet at a barrier where a single coordinator
// merges the window's execution logs, releases cross-shard events into the
// per-shard inboxes, and picks the next window (skipping idle gaps).
//
// Determinism contract — the reason this file exists (docs/SHARDING.md):
// a sharded run must be *byte-identical* to the legacy single-queue run, at
// any shard count. The legacy queue orders events by (time, rank) where the
// rank is the global push/claim sequence number. That global counter cannot
// be reproduced online across threads, but its *order* can: a rank is claimed
// either during setup (single-threaded, serialized across shards in legacy
// construction order) or during the execution of some parent event. Ordering
// events by the lexicographic key
//
//     (time, parent's execution order, push index within the parent)
//
// therefore reproduces (time, rank) order exactly: parents execute in rank
// order by induction, and within one parent, ranks are claimed in push-index
// order. The OrderingJournal records that lineage key for every push; the
// window merge assigns every executed event a dense global sequence number
// ("gseq") by k-way merging the per-shard logs under that key, which in turn
// resolves the keys of the next window's events. Cross-shard events arrive
// with a fully resolved key (their parent executed at least one window
// earlier) and interleave with the local queue through the same comparison.
//
// Everything here is generic over "what crosses shards": the engine moves
// opaque callbacks with (time, key) coordinates. The fleet's relay-hub
// oracle (cluster/partition.*) decides what those callbacks do.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
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

/// Fully resolved ordering key of one event relative to its timestamp:
/// `parent` is kSetupParent for events pushed during serialized setup (idx is
/// then the global setup counter), or the parent event's gseq; `idx` is the
/// push index within that parent. Lexicographic (parent, idx) reproduces the
/// legacy queue's same-time rank order (see the file comment).
struct PushKey {
  std::uint64_t parent = 0;
  std::uint64_t idx = 0;

  friend constexpr bool operator==(const PushKey&, const PushKey&) = default;
  friend constexpr auto operator<=>(const PushKey&, const PushKey&) = default;
};

/// Parent value for setup-band pushes. Every setup push sorts before every
/// runtime push at the same timestamp, exactly as the legacy counter orders
/// them (setup ranks are claimed before the run starts).
inline constexpr std::uint64_t kSetupParent = 0;
/// First gseq handed to an executed event. Setup counters stay far below
/// this, so a resolved parent field orders setup-band keys first.
inline constexpr std::uint64_t kGseqBase = std::uint64_t{1} << 32;
/// gseq value meaning "not assigned yet" (parent still executing in the
/// current window).
inline constexpr std::uint64_t kUnranked = 0;

/// Per-shard lineage recorder. Hooked into the shard's EventQueue (push and
/// rank-claim) and Simulator (event begin/end); null hooks cost one branch,
/// which is what the single-threaded paths pay for this file's existence.
class OrderingJournal {
 public:
  /// Where an event's ordering key comes from until the window merge
  /// finalizes it.
  struct Meta {
    std::uint64_t parent = kSetupParent;  // final key, or window-local log index
    std::uint64_t idx = 0;
    bool window_ref = false;  // parent is an index into the current window log
  };

  /// One executed event in the current window.
  struct LogEntry {
    std::int64_t t_ns = 0;
    std::uint64_t parent = kSetupParent;
    std::uint64_t idx = 0;
    bool window_ref = false;
    std::uint64_t trace_begin = 0;  // tracer emitted() span of this event
    std::uint64_t trace_end = 0;
    std::uint64_t gseq = kUnranked;  // assigned by the window merge
  };

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // -- serialized setup ------------------------------------------------------
  /// Enters setup mode: pushes record {kSetupParent, ++*counter}. The counter
  /// is shared by every shard and bumped on the single setup thread, so setup
  /// ranks are identical at any shard count.
  void begin_setup(std::uint64_t* counter) {
    setup_counter_ = counter;
    in_setup_ = true;
  }
  void end_setup() { in_setup_ = false; }
  bool in_setup() const { return in_setup_; }
  /// The next setup push consumes `idx` instead of bumping the shared
  /// counter. Used for actions mirrored into every shard (a relay failure
  /// epoch bump): legacy schedules ONE event, so all mirrors share its rank.
  void force_next_setup_idx(std::uint64_t idx) { forced_setup_idx_ = idx; }

  // -- queue hooks (EventQueue::push_ranked / claim_rank) --------------------
  void on_push(std::uint32_t slot, std::uint64_t rank);
  void on_claim(std::uint64_t rank);

  // -- simulator hooks -------------------------------------------------------
  void begin_event(std::int64_t t_ns, std::uint32_t slot);
  void begin_foreign(std::int64_t t_ns, const PushKey& key);
  void end_event();

  /// Consumes the next child slot of the current context — what on_push does
  /// internally, exposed for shard-boundary capture (the relay stub records
  /// the offer's key instead of pushing a local event). The consumed index
  /// keeps later same-parent pushes ordered exactly as legacy ranks would be,
  /// whether or not legacy would have claimed a rank for this offer.
  Meta make_child_meta();

  /// Pending-event meta for the foreign-lane comparison (the slot must hold a
  /// live event of this shard's queue).
  const Meta& meta_for_slot(std::uint32_t slot) const { return metas_[slot]; }

  /// Resolves a meta against the current window's (merged) log. Returns
  /// kUnranked as parent while the parent has not been assigned a gseq.
  PushKey resolve(const Meta& meta) const {
    if (!meta.window_ref) return PushKey{meta.parent, meta.idx};
    return PushKey{log_[meta.parent].gseq, meta.idx};
  }

  /// Ordering key of an executed window-log entry (valid once the merge has
  /// assigned gseqs). A child meta's `parent` field indexes the log while
  /// window_ref is set, so a boundary capture can recover the key of the
  /// event that produced it.
  PushKey entry_key(std::size_t entry) const {
    const LogEntry& e = log_[entry];
    return PushKey{e.window_ref ? log_[e.parent].gseq : e.parent, e.idx};
  }

  std::vector<LogEntry>& log() { return log_; }
  const std::vector<LogEntry>& log() const { return log_; }

  /// After the merge assigned gseqs (and the merge hook resolved its offers):
  /// finalizes every meta recorded this window to its parent's gseq and
  /// clears the window log. Capacity is retained — steady-state windows do
  /// not allocate.
  void finish_window();

  /// Trace events already consumed by the engine's merge (cumulative
  /// emitted() offset).
  std::uint64_t trace_drained = 0;

 private:
  obs::Tracer* tracer_ = nullptr;
  bool in_setup_ = false;
  std::uint64_t* setup_counter_ = nullptr;
  std::optional<std::uint64_t> forced_setup_idx_;

  std::vector<Meta> metas_;             // by queue slot
  std::vector<std::uint32_t> new_meta_slots_;  // slots written this window
  // Ranks claimed but not yet pushed. Ordered map: cold path (claims resolve
  // to pushes within the same tick almost always) and deterministic to walk.
  std::map<std::uint64_t, Meta> claims_;
  std::vector<std::uint64_t> new_claim_ranks_;  // claimed this window

  std::vector<LogEntry> log_;
  bool in_event_ = false;
  std::size_t cur_entry_ = 0;
  std::uint64_t cur_child_idx_ = 0;
};

/// What the engine promises about a run's observable output.
enum class Ordering {
  /// Byte-identical traces and metric snapshots vs. the legacy single queue
  /// (the OrderingJournal + window-merge machinery; the default).
  kCertified,
  /// Contract-equal fast lane: elides the journal, the k-way merge and all
  /// trace bookkeeping. Guarantees only what the benches assert — event
  /// counts, metric totals and invariant outcomes equal to legacy. No merged
  /// trace is produced. For ceiling measurements and Monte-Carlo campaigns
  /// that never read traces.
  kCounterEqual,
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
    /// legacy run.
    std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
    /// Property-test hook: record window-containment violations and the
    /// minimum cross-shard arrival margin instead of trusting the proof.
    bool check_windows = false;
    /// Output contract (see Ordering).
    Ordering ordering = Ordering::kCertified;
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
  /// ordered against local events by `key` (fully resolved — the sending
  /// parent executed in an earlier window).
  // Inline storage sized for the fleet's hub deliveries (a Frame with its
  // payload pooled out-of-line, a destination NIC and the sender MAC): the
  // per-delivery heap allocation the std::function closure used to pay is
  // gone. Oversized captures fail to compile instead of silently allocating.
  using ForeignFn = util::InlineFunction<void(), 96>;
  struct ForeignEvent {
    std::int64_t at_ns = 0;
    PushKey key;
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
  OrderingJournal& journal(std::uint32_t shard) {
    return shards_[shard]->journal;
  }
  std::int64_t lookahead_ns() const { return options_.lookahead_ns; }

  /// Qualified id of an event scheduled on `shard` (uniqueness across the
  /// whole engine; see GlobalEventId).
  GlobalEventId global_id(std::uint32_t shard, EventId local) const {
    return GlobalEventId{shard, local};
  }

  // -- serialized setup ------------------------------------------------------
  // Construction and start() of the sharded system run on the caller's
  // thread, interleaved across shards in the exact order the legacy
  // single-simulator build would have used. Wrap every step that touches a
  // shard in a segment so its trace emissions land in the merged trace at
  // the legacy position.
  void begin_setup();
  void begin_setup_segment(std::uint32_t shard);
  void end_setup_segment();
  /// One shared setup rank (for actions mirrored into several shards).
  std::uint64_t consume_setup_rank() { return ++setup_counter_; }
  void force_setup_idx(std::uint32_t shard, std::uint64_t idx) {
    shards_[shard]->journal.force_next_setup_idx(idx);
  }
  void end_setup();

  // -- cross-shard traffic ---------------------------------------------------
  /// Coordinator-side only (call from the merge hook): enqueues a foreign
  /// event. Must not land inside the window being merged — the conservative
  /// bound guarantees arrivals fall at or after the next window's start, and
  /// check_windows records the margin.
  void add_foreign(std::uint32_t shard, ForeignEvent event);

  /// Batched hand-off: moves every staged event into the shard's inbox in one
  /// call (margins are scored per event, as add_foreign would). The staging
  /// vector is cleared but keeps its capacity, so an oracle can reuse it
  /// window after window without allocating.
  void add_foreign_batch(std::uint32_t shard, std::vector<ForeignEvent>& staged);

  /// Runs on the coordinator at every window barrier, after gseqs are
  /// assigned and traces merged, before window state is cleared: resolve
  /// boundary offers (journal(s).resolve), replay shared-medium state, and
  /// add_foreign the resulting deliveries.
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
  /// window into the inboxes (they were created by earlier merges, so their
  /// keys are final).
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
  /// execution (gseq) order — byte-identical to the legacy single-tracer
  /// stream. Grows across run_until calls.
  const std::vector<obs::TraceEvent>& merged_trace() const { return merged_; }

  std::uint64_t windows_run() const { return windows_run_; }
  std::uint64_t events_executed() const;
  /// check_windows results: events observed executing outside their window.
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
  struct Shard {
    Simulator sim;
    obs::Tracer tracer;
    OrderingJournal journal;
    std::vector<ForeignEvent> inbox;  // sorted by (at_ns, key) past cursor
    std::size_t inbox_cursor = 0;
    std::uint64_t inbox_added = 0;  // appended since last sort
    std::vector<obs::TraceEvent> window_events;  // drain scratch
    std::uint64_t window_trace_base = 0;         // drained offset at merge
    std::uint64_t violations = 0;  // check_windows: out-of-window executions
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
  void sort_inboxes();
  void worker_loop(std::uint32_t shard);
  void start_workers();
  void stop_workers();
  bool traced() const {
    return options_.ordering == Ordering::kCertified &&
           options_.trace_capacity > 0;
  }
  bool certified() const { return options_.ordering == Ordering::kCertified; }

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  MergeHook merge_hook_;
  NextPendingHook next_pending_hook_;
  FlushHook flush_hook_;
  EotHook eot_hook_;

  // Setup state (single-threaded phase).
  bool in_setup_ = false;
  std::uint64_t setup_counter_ = 0;
  std::optional<std::uint32_t> open_segment_;

  // Merge state.
  std::uint64_t next_gseq_ = kGseqBase;
  std::vector<obs::TraceEvent> merged_;
  std::vector<std::pair<std::uint32_t, std::size_t>> merge_order_;  // scratch
  std::vector<std::size_t> merge_pos_;                              // scratch
  std::uint64_t windows_run_ = 0;
  std::uint64_t windows_coalesced_ = 0;
  std::vector<obs::WindowSpan> spans_;
  std::int64_t min_foreign_margin_ns_ =
      std::numeric_limits<std::int64_t>::max();
  /// Earliest sim-time a foreign event enqueued right now may legally carry:
  /// the upcoming window's start during the flush phase, the merged window's
  /// end during the merge phase. add_foreign scores margins against it.
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
