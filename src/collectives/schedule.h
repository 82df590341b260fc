// Unified collective-schedule engine.
//
// Every collective in this repo — ring, double-binary tree, hierarchical,
// 2D-torus, parameter server, and HiTopKComm's dense legs — is at heart a
// *schedule* of point-to-point transfers (Sergeev & Del Balso 2018; Cho et
// al. 2019): step s moves range R from rank a to rank b, either copying or
// reducing.  Deriving that schedule inline and interleaving it with
// port-clock timing would weld the timing model to the data movement and
// make every new topology a new simulator.
//
// The Schedule class separates the two concerns as two passes over one
// recorded schedule:
//
//   timing pass (run_timing) — serial replay of the recorded sends against
//     the Cluster port clocks, in recorded issue order, with snapshot
//     ("next = ready") semantics at step boundaries.  Issue order and
//     readiness slots are recorded explicitly, so the pass reproduces the
//     hop-by-hop port clocks of the protocol the builder recorded.
//
//   data pass (run_data) — the functional movement, freed from the clock.
//     Within a step, moves are grouped into buckets (by destination buffer
//     unless the builder overrides — see move()): buckets run concurrently
//     on the parallel_for pool, moves inside a bucket apply in recorded
//     order.  Element-wise float adds commute across *disjoint*
//     destinations and stay ordered within one, so the pass is bitwise
//     independent of the thread count (the same argument as
//     core/parallel.h; pinned by schedule_equivalence_test's digests).
//
// Because the data pass no longer has to mirror the wire protocol, builders
// may *resolve* pure-forwarding chains: a ring All-Gather records G-1
// timed hops per chunk but a single origin->destination copy per receiver,
// and an All-Reduce reuses the Reduce-Scatter result in place, feeding the
// resolved gather from each chunk's final owner.
//
// Readiness model: `slots` are data-readiness clocks (one per group rank,
// or per (node, chunk) for pipelined trees — builders allocate what they
// need).  A send starts no earlier than its src slot and max-combines its
// completion into its dst slot.  Slot updates within a step become visible
// at the next step boundary (a double-buffered `ready`/`next` swap);
// chained dependencies are expressed by putting the dependent send
// in a later step.  sync() records a labelled phase boundary: it closes the
// phase that ran since the previous boundary at the running clock maximum
// (the PhaseReport every collective returns) and optionally collapses every
// slot to that maximum (the scalar hand-off between phases, e.g.
// Reduce-Scatter "mid" -> All-Gather start).
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "collectives/common.h"

namespace hitopk::coll {

// kCopy / kReduce act pairwise: dst[range] = / += src[range].
//
// kChain* runs one destination chunk's whole reduction as a chain through a
// worker-local scratch accumulator: kChainFirst loads src into the
// accumulator, kChainMid adds further sources, kChainLast adds the
// accumulator into the destination (the destination's own contribution is
// the chain's last addition, in ring hop order).  The float-add sequence
// per element matches a step-by-step reduce-scatter, so results are
// bitwise identical for any non-NaN input, but the partial
// sums never touch the intermediate buffers — (G-1) chunk reads and one
// chunk write instead of (G-1) read-modify-writes.  Builders use chains
// only where the partials are dead (an All-Reduce's scatter leg, or a
// phase whose non-owned chunks a later resolved gather overwrites);
// standalone Reduce-Scatter keeps pairwise moves so the documented
// partial-sum layout stays bit-exact.
enum class TransferOp : uint8_t {
  kCopy,
  kReduce,
  kChainFirst,
  kChainMid,
  kChainLast,
};

// Outcome of an abortable timed replay (run_timing_abortable).
//
//   kCompleted — every recorded send delivered at full health.
//   kDegraded  — completed, but some sends paid degradation windows or
//                transient retries (finish reflects the slowdown).
//   kAborted   — a send touched a preempted rank: the replay stopped at
//                that schedule step, charged the fault plan's detection
//                timeout on top of all in-flight work, and never ran the
//                data pass (buffers keep their pre-collective contents, so
//                a rebuilt schedule on the surviving world starts clean).
enum class ScheduleStatus : uint8_t { kCompleted, kDegraded, kAborted };

// The clock report of one collective call: where it started, where it
// finished, and the labelled phases in between.  Phases are contiguous —
// each starts where the previous one ended, the first at `start` — so
// their seconds sum to finish - start.  A label may repeat (BlueConnect
// closes one "reduce_scatter" phase per ring stage); seconds(label) sums
// all of them.  Labels are string literals owned by the recording code:
// never allocated, copied or freed.
struct PhaseReport {
  struct Phase {
    const char* label;
    double seconds;
  };

  double start = 0.0;
  double finish = 0.0;  // completion, or abort-detected time
  double total = 0.0;   // finish - start
  std::vector<Phase> phases;

  PhaseReport() = default;
  explicit PhaseReport(double at) : start(at), finish(at) {}

  // Appends the phase [finish, t) under `label` and advances finish to t.
  void close(const char* label, double t) {
    phases.push_back({label, t - finish});
    finish = t;
    total = finish - start;
  }

  // Seconds spent in phases labelled `label` (0 when there are none).
  double seconds(std::string_view label) const {
    double sum = 0.0;
    for (const Phase& phase : phases) {
      if (label == phase.label) sum += phase.seconds;
    }
    return sum;
  }
};

// A timed replay's report plus how it ended.  The phases cover the syncs
// reached; sends issued after the last one (or an abort's drain and
// detection timeout) form a final unlabelled ("") phase.
struct ScheduleOutcome : PhaseReport {
  ScheduleStatus status = ScheduleStatus::kCompleted;
  int abort_step = -1;              // schedule step of the fatal send
  int dead_rank = -1;               // the preempted endpoint
  int retries = 0;                  // transient retries across delivered sends
  bool aborted() const { return status == ScheduleStatus::kAborted; }
  bool completed() const { return status != ScheduleStatus::kAborted; }
};

class Schedule {
 public:
  // Recorded primitives, exposed read-only through sends()/moves()/syncs()
  // so static checkers (collectives/validator.h) can audit a schedule
  // without replaying it.
  struct Send {
    uint32_t step;
    int src;
    int dst;
    uint32_t src_slot;
    uint32_t dst_slot;
    size_t bytes;
    double extra_seconds;
  };
  struct Move {
    uint32_t step;
    TransferOp op;
    uint32_t src_buf;
    uint32_t dst_buf;
    uint32_t bucket;
    size_t begin;
    size_t count;
  };
  struct Sync {
    uint32_t step;
    bool collapse;
    const char* phase;
  };

  // ---- recording ------------------------------------------------------
  // Allocates `n` readiness slots, returns the first id.  Slots start at
  // the run_timing start time.
  uint32_t add_slots(uint32_t n = 1);

  // Registers a functional buffer for the data pass, returns its id.  The
  // wire dtype is the representation the buffer's chunks travel in: every
  // move whose destination is this buffer rounds the transferred range
  // through the codec (compress/wire_codec.h) exactly where a hop-by-hop
  // transfer would — see run_data.  kFp32 is the identity and keeps
  // the data pass bitwise-unchanged.  Chained transfers must agree on the
  // wire dtype end to end (collectives/validator.h enforces it).
  uint32_t add_buffer(RankSpan span,
                      WireDtype wire = WireDtype::kFp32);

  // Records one timed message of `bytes` from world rank src to dst.
  // extra_seconds is the per-message protocol overhead forwarded to
  // Cluster::submit (Flow::extra_seconds).
  void send(int src, int dst, size_t bytes, uint32_t src_slot,
            uint32_t dst_slot, double extra_seconds = 0.0);

  // Records one data movement: dst_buf[begin, begin+count) op=
  // src_buf[begin, begin+count) (ranges coincide — all converted
  // collectives move chunks in place).
  //
  // `bucket` keys the data pass's execution units: within a step, moves
  // sharing a bucket run serially in recorded order on one worker, and
  // distinct buckets run concurrently.  It defaults to the destination
  // buffer (ordered reductions).  Builders may override it — a resolved
  // gather buckets by *source* so each owner chunk is read once and stays
  // cache-hot across its fan-out (measurably faster than destination-major
  // even single-threaded).  Buckets of one step must write disjoint
  // (buffer, range) destinations, and nothing a concurrent bucket reads.
  static constexpr uint32_t kBucketDst = UINT32_MAX;
  void move(TransferOp op, uint32_t src_buf, uint32_t dst_buf, size_t begin,
            size_t count, uint32_t bucket = kBucketDst);
  void copy(uint32_t src_buf, uint32_t dst_buf, size_t begin, size_t count,
            uint32_t bucket = kBucketDst) {
    move(TransferOp::kCopy, src_buf, dst_buf, begin, count, bucket);
  }
  void reduce(uint32_t src_buf, uint32_t dst_buf, size_t begin, size_t count) {
    move(TransferOp::kReduce, src_buf, dst_buf, begin, count);
  }

  // Closes the current step: sends recorded after this see the slot updates
  // of sends before it, and the data pass inserts a bucket boundary.
  void end_step();

  // Records a phase boundary at the current step.  The timing pass closes
  // the report phase `phase` (a string literal; see PhaseReport) at the
  // running clock maximum; with collapse=true it also sets every slot to
  // that maximum — the scalar "phase done, next phase starts for everyone"
  // hand-off.  A sync recorded after a builder's last end_step() closes the
  // final phase without changing any clock.
  void sync(bool collapse, const char* phase);

  // Records a callable data-pass step at the current step: run_data invokes
  // it once per run, after that step's moves, in record order with the
  // step's other callables.  The timing passes never invoke it, so an
  // aborted replay leaves whatever it would touch untouched.  For work
  // that is not a range move (gTop-k's sparse selection and merges); the
  // validator cannot see inside it.
  void call(std::function<void()> fn);

  // ---- execution ------------------------------------------------------
  // Fault-aware serial timing replay via Cluster::submit.  Does not touch
  // data buffers.  `job` is the tenant context the recorded sends are
  // submitted under: on a shared multi-tenant cluster the replay's flows
  // processor-share contended ports with other jobs' reservations, while on
  // an idle cluster every job id replays to identical clocks (the
  // single-tenant compatibility pin).  On a dead-rank hit it stops issuing,
  // charges the fault plan's detection timeout, and reports the abort step
  // — it never throws for faults scripted in the plan.  Callers skip
  // run_data when the outcome is aborted.
  ScheduleOutcome run_timing_abortable(simnet::Cluster& cluster, double start,
                                       int job = simnet::kDefaultJob) const;

  // The same replay for runs that cannot be preempted: throws CheckError
  // when a send touches a preempted rank, otherwise returns the report
  // bit-for-bit as run_timing_abortable does.
  PhaseReport run_timing(simnet::Cluster& cluster, double start,
                         int job = simnet::kDefaultJob) const;

  // Functional data pass (no clocks): per step, the moves, then the
  // callables.  No-op for timing-only schedules.
  void run_data() const;

  // Both passes of a fault-free call: run_timing, then run_data.
  PhaseReport run(simnet::Cluster& cluster, double start) const {
    PhaseReport report = run_timing(cluster, start);
    run_data();
    return report;
  }

  bool empty() const {
    return sends_.empty() && moves_.empty() && calls_.empty();
  }
  size_t num_sends() const { return sends_.size(); }
  size_t num_moves() const { return moves_.size(); }

  // ---- introspection (read-only, for validators / planners) -----------
  const std::vector<Send>& sends() const { return sends_; }
  const std::vector<Move>& moves() const { return moves_; }
  const std::vector<Sync>& syncs() const { return syncs_; }
  const std::vector<RankSpan>& buffers() const { return buffers_; }
  const std::vector<WireDtype>& buffer_wires() const { return buffer_wires_; }
  uint32_t num_slots() const { return num_slots_; }

 private:
  uint32_t step_ = 0;
  uint32_t num_slots_ = 0;
  std::vector<RankSpan> buffers_;
  std::vector<WireDtype> buffer_wires_;
  std::vector<Send> sends_;
  std::vector<Move> moves_;
  std::vector<Sync> syncs_;
  struct Call {
    uint32_t step;
    std::function<void()> fn;
  };
  std::vector<Call> calls_;
};

}  // namespace hitopk::coll
