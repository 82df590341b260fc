#include "collectives/schedule.h"

#include <algorithm>

#include "core/parallel.h"
#include "core/tensor.h"
#include "core/workspace.h"

namespace hitopk::coll {

namespace {

// Worker-local chain-reduction accumulator (see TransferOp::kChain*).
std::vector<float>& chain_acc() {
  thread_local std::vector<float> acc;
  return acc;
}

// Worker-local staging buffer for quantized kReduce moves: the wire carries
// the codec-rounded source chunk, so the destination adds rt(src), never src.
std::vector<float>& reduce_staging() {
  thread_local std::vector<float> tmp;
  return tmp;
}

// Single-pass execution of a whole fp32 reduction chain: per element the
// partial sum lives in a register from the first source to the final
// destination add, replacing the accumulator's (N+1) memory passes with one.
// The float-add order is identical to the kChainFirst/Mid/Last sequence
// (s0 + s1 + ... left-associated, destination last), so the result is
// bitwise the same — this is purely a memory-traffic optimization, which is
// why run_data may pick either form per chain.
template <int N>
void fused_chain_kernel(float* dst, const float* const* srcs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    float t = srcs[0][i];
    for (int k = 1; k < N; ++k) t += srcs[k][i];
    dst[i] += t;
  }
}

using FusedChainFn = void (*)(float*, const float* const*, size_t);

// Chains longer than this fall back to the accumulator (the register
// pressure and dispatch table stop paying off; the accumulator's relative
// overhead also shrinks as chains grow).
constexpr int kMaxFusedChain = 8;

constexpr FusedChainFn kFusedChain[kMaxFusedChain + 1] = {
    nullptr,
    fused_chain_kernel<1>, fused_chain_kernel<2>, fused_chain_kernel<3>,
    fused_chain_kernel<4>, fused_chain_kernel<5>, fused_chain_kernel<6>,
    fused_chain_kernel<7>, fused_chain_kernel<8>,
};

}  // namespace

uint32_t Schedule::add_slots(uint32_t n) {
  const uint32_t first = num_slots_;
  num_slots_ += n;
  return first;
}

uint32_t Schedule::add_buffer(RankSpan span, WireDtype wire) {
  buffers_.push_back(span);
  buffer_wires_.push_back(wire);
  return static_cast<uint32_t>(buffers_.size() - 1);
}

void Schedule::send(int src, int dst, size_t bytes, uint32_t src_slot,
                    uint32_t dst_slot, double extra_seconds) {
  HITOPK_CHECK_LT(src_slot, num_slots_);
  HITOPK_CHECK_LT(dst_slot, num_slots_);
  sends_.push_back({step_, src, dst, src_slot, dst_slot, bytes, extra_seconds});
}

void Schedule::move(TransferOp op, uint32_t src_buf, uint32_t dst_buf,
                    size_t begin, size_t count, uint32_t bucket) {
  HITOPK_CHECK_LT(src_buf, buffers_.size());
  HITOPK_CHECK_LT(dst_buf, buffers_.size());
  if (bucket == kBucketDst) bucket = dst_buf;
  HITOPK_CHECK_LT(bucket, buffers_.size());
  if (count == 0) return;
  moves_.push_back({step_, op, src_buf, dst_buf, bucket, begin, count});
}

void Schedule::end_step() { ++step_; }

void Schedule::sync(bool collapse, const char* phase) {
  syncs_.push_back({step_, collapse, phase});
}

void Schedule::call(std::function<void()> fn) {
  calls_.push_back({step_, std::move(fn)});
}

ScheduleOutcome Schedule::run_timing_abortable(simnet::Cluster& cluster,
                                               double start, int job) const {
  ScheduleOutcome out;
  out.start = out.finish = start;
  out.phases.reserve(syncs_.size() + 1);
  // clock = slot readiness at the last step boundary; next = in-progress
  // updates, committed at the next boundary (the ready/next swap).
  Scratch<double> clock_buf(num_slots_);
  Scratch<double> next_buf(num_slots_);
  auto clock = clock_buf.span();
  auto next = next_buf.span();
  std::fill(clock.begin(), clock.end(), start);

  auto running_max = [&](std::span<double> slots) {
    double best = start;
    for (double t : slots) best = std::max(best, t);
    return best;
  };

  bool degraded = false;
  bool phase_open = false;  // sends issued since the last boundary
  size_t sync_cursor = 0;
  size_t i = 0;
  while (i < sends_.size() || sync_cursor < syncs_.size()) {
    // Next step boundary: the smaller of the next send's and next sync's
    // step (syncs at a step apply before its sends).
    uint32_t step;
    if (i < sends_.size() && sync_cursor < syncs_.size()) {
      step = std::min(sends_[i].step, syncs_[sync_cursor].step);
    } else if (i < sends_.size()) {
      step = sends_[i].step;
    } else {
      step = syncs_[sync_cursor].step;
    }
    while (sync_cursor < syncs_.size() && syncs_[sync_cursor].step <= step) {
      const double t = running_max(clock);
      out.close(syncs_[sync_cursor].phase, t);
      phase_open = false;
      if (syncs_[sync_cursor].collapse) {
        std::fill(clock.begin(), clock.end(), t);
      }
      ++sync_cursor;
    }
    if (i >= sends_.size()) break;
    std::copy(clock.begin(), clock.end(), next.begin());
    phase_open = true;
    for (; i < sends_.size() && sends_[i].step == step; ++i) {
      const Send& t = sends_[i];
      const simnet::FlowOutcome sent = cluster.submit(
          {job, t.src, t.dst, t.bytes, clock[t.src_slot], t.extra_seconds});
      if (!sent.delivered) {
        // Abort: everything already in flight this step (the partials in
        // `next`, which started >= the step-boundary clock) drains, the
        // failure surfaces at sent.time, and the runtime waits out its
        // detection timeout before declaring the rank dead.
        const double detect =
            cluster.fault_plan() ? cluster.fault_plan()->detection_timeout()
                                 : 0.0;
        out.status = ScheduleStatus::kAborted;
        out.abort_step = static_cast<int>(step);
        out.dead_rank = sent.dead_rank;
        out.close("", std::max(running_max(next), sent.time) + detect);
        return out;
      }
      out.retries += sent.retries;
      degraded = degraded || sent.degraded;
      next[t.dst_slot] = std::max(next[t.dst_slot], sent.time);
    }
    std::swap(clock, next);
  }
  if (phase_open) out.close("", running_max(clock));
  if (degraded) out.status = ScheduleStatus::kDegraded;
  return out;
}

PhaseReport Schedule::run_timing(simnet::Cluster& cluster, double start,
                                 int job) const {
  ScheduleOutcome out = run_timing_abortable(cluster, start, job);
  HITOPK_CHECK(out.completed())
      << "run_timing touched preempted rank" << out.dead_rank << "at step"
      << out.abort_step << "(use run_timing_abortable on fault-injected runs)";
  return std::move(static_cast<PhaseReport&>(out));
}

void Schedule::run_data() const {
  if (moves_.empty() && calls_.empty()) return;
  // Per step: group moves by bucket key (destination buffer by default).
  // Buckets write disjoint (buffer, range) sets, so they run concurrently;
  // a bucket's moves apply in recorded order, so reductions into one
  // buffer keep the recorded float-add order.  The step's callables run
  // after its moves, serially in record order.
  Scratch<uint32_t> bucket_of_buf(buffers_.size());
  auto bucket_of = bucket_of_buf.span();
  const uint32_t kNone = UINT32_MAX;
  std::vector<std::vector<uint32_t>> buckets;  // move indices, issue order
  size_t i = 0;
  size_t c = 0;
  while (i < moves_.size() || c < calls_.size()) {
    const uint32_t step =
        i < moves_.size() &&
                (c == calls_.size() || moves_[i].step <= calls_[c].step)
            ? moves_[i].step
            : calls_[c].step;
    size_t end = i;
    while (end < moves_.size() && moves_[end].step == step) ++end;
    std::fill(bucket_of.begin(), bucket_of.end(), kNone);
    size_t n_buckets = 0;
    for (size_t m = i; m < end; ++m) {
      const uint32_t key = moves_[m].bucket;
      if (bucket_of[key] == kNone) {
        bucket_of[key] = static_cast<uint32_t>(n_buckets++);
        if (buckets.size() < n_buckets) buckets.emplace_back();
        buckets[n_buckets - 1].clear();
      }
      buckets[bucket_of[key]].push_back(static_cast<uint32_t>(m));
    }
    // Recognizes a whole fp32 chain recorded contiguously in this bucket
    // (kChainFirst, kChainMid*, kChainLast over one range) and returns the
    // number of moves it consumed after running it through the single-pass
    // fused kernel; 0 means "not fusable, execute move-by-move".  Quantized
    // chains always take the accumulator path: the codec needs the whole
    // partial-sum shard (int8 derives its scale from the shard max) between
    // links, which a per-element register pass cannot provide.
    auto try_fused_chain = [&](const std::vector<uint32_t>& list,
                               size_t pos) -> size_t {
      const Move& first = moves_[list[pos]];
      if (buffer_wires_[first.dst_buf] != WireDtype::kFp32) return 0;
      const float* srcs[kMaxFusedChain];
      srcs[0] = buffers_[first.src_buf].data() + first.begin;
      int n = 1;
      for (size_t j = pos + 1; j < list.size(); ++j) {
        const Move& link = moves_[list[j]];
        if (link.dst_buf != first.dst_buf || link.begin != first.begin ||
            link.count != first.count) {
          return 0;
        }
        if (link.op == TransferOp::kChainMid) {
          if (n == kMaxFusedChain) return 0;
          srcs[n++] = buffers_[link.src_buf].data() + link.begin;
          continue;
        }
        if (link.op != TransferOp::kChainLast) return 0;
        kFusedChain[n](buffers_[first.dst_buf].data() + first.begin, srcs,
                       first.count);
        return j - pos + 1;
      }
      return 0;
    };
    parallel_for(0, n_buckets, [&](size_t b) {
      const std::vector<uint32_t>& list = buckets[b];
      for (size_t pos = 0; pos < list.size(); ++pos) {
        const Move& mv = moves_[list[pos]];
        if (mv.op == TransferOp::kChainFirst) {
          const size_t consumed = try_fused_chain(list, pos);
          if (consumed != 0) {
            pos += consumed - 1;
            continue;
          }
        }
        auto src = buffers_[mv.src_buf].subspan(mv.begin, mv.count);
        auto dst = buffers_[mv.dst_buf].subspan(mv.begin, mv.count);
        // The destination buffer's wire dtype governs the transfer (the
        // validator pins src and dst to the same dtype): every value that
        // crosses the wire is rounded through the codec exactly where a
        // hop-by-hop transfer rounds it.  kFp32 round trips are no-ops
        // and keep this pass bitwise identical to the untyped engine.
        const WireDtype wire = buffer_wires_[mv.dst_buf];
        switch (mv.op) {
          case TransferOp::kCopy:
            std::copy(src.begin(), src.end(), dst.begin());
            wire_round_trip(wire, dst);
            break;
          case TransferOp::kReduce:
            if (wire == WireDtype::kFp32) {
              tensor_ops::add_into(dst, src);
            } else {
              auto& tmp = reduce_staging();
              tmp.assign(src.begin(), src.end());
              std::span<float> staged(tmp.data(), mv.count);
              wire_round_trip(wire, staged);
              tensor_ops::add_into(dst, staged);
            }
            break;
          case TransferOp::kChainFirst:
            // The chain's remaining links run on this same worker (a chain
            // is recorded contiguously within its destination bucket), so
            // the accumulator is thread-local and keeps its capacity
            // across chains and calls.  Quantized chains round the
            // accumulator after every link that the wire would forward:
            // the next hop receives rt(partial), as on the wire.
            chain_acc().assign(src.begin(), src.end());
            wire_round_trip(wire,
                            std::span<float>(chain_acc().data(), mv.count));
            break;
          case TransferOp::kChainMid:
            tensor_ops::add_into(
                std::span<float>(chain_acc().data(), mv.count), src);
            wire_round_trip(wire,
                            std::span<float>(chain_acc().data(), mv.count));
            break;
          case TransferOp::kChainLast:
            // The accumulator already carries the last hop's rounded
            // payload; the owner adds its own (local, never-transferred)
            // contribution at full precision.
            tensor_ops::add_into(
                dst, std::span<const float>(chain_acc().data(), mv.count));
            break;
        }
      }
    });
    for (; c < calls_.size() && calls_[c].step == step; ++c) calls_[c].fn();
    i = end;
  }
}

}  // namespace hitopk::coll
