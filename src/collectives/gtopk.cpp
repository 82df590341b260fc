#include "collectives/gtopk.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "collectives/schedule.h"
#include "compress/exact_topk.h"
#include "core/parallel.h"
#include "core/workspace.h"

namespace hitopk::coll {
namespace {

int floor_pow2(int v) {
  int q = 1;
  while (q * 2 <= v) q *= 2;
  return q;
}

// Sum two sparse tensors and keep the top-k of the result.  The dense
// accumulator comes from the thread-local workspace pool (no allocation at
// steady state) and the two scatter-adds run as one fused accumulate_into
// (a's value first, then b's, per element).
compress::SparseTensor merge_topk_fused(const compress::SparseTensor& a,
                                        const compress::SparseTensor& b,
                                        size_t k) {
  HITOPK_CHECK_EQ(a.dense_size, b.dense_size);
  Scratch<float> dense(a.dense_size);
  const compress::SparseTensor* parts[2] = {&a, &b};
  compress::accumulate_into(parts, dense.span());
  return compress::exact_topk(dense.span(), k);
}

// The data pass's working set, shared by the recorded steps of one
// schedule: each rank's running selection, the next hypercube round's
// merges, and the per-rank EF keys.
struct GtopkState {
  RankData data;
  compress::ErrorFeedback* error_feedback = nullptr;
  std::vector<std::string> ef_keys;
  size_t elems = 0;
  size_t k = 0;
  size_t q = 0;    // hypercube size: largest power of two <= world size
  size_t rem = 0;  // ranks folded in before / out after the hypercube
  std::vector<compress::SparseTensor> selected;  // per rank
  std::vector<compress::SparseTensor> merged;    // per hypercube rank
};

}  // namespace

// One schedule: fold step, log2(q) hypercube steps, unfold step, each
// closing its report phase, with per-rank snapshot slots (a round's sends
// see the previous round's clocks).  The functional merges are the rounds'
// callable steps and run on the parallel_for pool: each rank's merge reads
// the previous round's state and writes its own slot, so the rounds are
// bitwise-identical to a serial loop.
void build_gtopk(Schedule& sched, const simnet::Topology& topo,
                 const RankData& data, size_t elems,
                 const GtopkOptions& options) {
  const int p = topo.world_size();
  const int q = floor_pow2(p);
  const int rem = p - q;
  check_data(world_group(topo), data, elems);

  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options.density *
                                          static_cast<double>(elems))));
  const size_t payload = k * (options.value_wire_bytes + 4);

  std::shared_ptr<GtopkState> st;
  if (!data.empty()) {
    st = std::make_shared<GtopkState>();
    st->data = data;
    st->error_feedback = options.error_feedback;
    st->elems = elems;
    st->k = k;
    st->q = static_cast<size_t>(q);
    st->rem = static_cast<size_t>(rem);
    st->selected.resize(static_cast<size_t>(p));
    st->merged.resize(st->q);
    if (st->error_feedback != nullptr) {
      for (int r = 0; r < p; ++r) {
        st->ef_keys.push_back(options.ef_key_prefix + ":" + std::to_string(r));
      }
    }
    // Local selection (with optional error feedback).  Ranks are
    // independent — per-rank EF entries are pre-created so the pool
    // workers only look them up — and each iteration is deterministic, so
    // the parallel run is bitwise identical to the serial loop (same
    // argument as HiTopKComm's selection step).
    sched.call([st] {
      compress::ErrorFeedback* ef = st->error_feedback;
      if (ef != nullptr) {
        for (const std::string& key : st->ef_keys) ef->ensure(key, st->elems);
      }
      parallel_for(0, st->data.size(), [&](size_t r) {
        auto grad = st->data[r];
        // Fused EF exchange (grad untouched between compensation and
        // absorption; see ErrorFeedback::apply_priming).
        if (ef != nullptr) ef->apply_priming(st->ef_keys[r], grad);
        st->selected[r] = compress::exact_topk(grad, st->k);
        if (ef != nullptr) ef->absorb_primed(st->ef_keys[r], st->selected[r]);
      });
    });
  }

  const uint32_t slot0 = sched.add_slots(static_cast<uint32_t>(p));
  auto slot = [&](int r) { return slot0 + static_cast<uint32_t>(r); };

  if (rem > 0) {
    for (int r = 0; r < rem; ++r) {
      sched.send(q + r, r, payload, slot(q + r), slot(r));
    }
    if (st) {
      sched.call([st] {
        parallel_for(0, st->rem, [&](size_t r) {
          st->selected[r] = merge_topk_fused(st->selected[r],
                                             st->selected[st->q + r], st->k);
        });
      });
    }
    sched.end_step();
    sched.sync(/*collapse=*/false, "fold");
  }
  for (int gap = 1; gap < q; gap <<= 1) {
    for (int r = 0; r < q; ++r) {
      sched.send(r, r ^ gap, payload, slot(r), slot(r ^ gap));
    }
    if (st) {
      sched.call([st, peer = static_cast<size_t>(gap)] {
        parallel_for(0, st->q, [&](size_t r) {
          st->merged[r] =
              merge_topk_fused(st->selected[r], st->selected[r ^ peer], st->k);
        });
        for (size_t r = 0; r < st->q; ++r) {
          std::swap(st->selected[r], st->merged[r]);
        }
      });
    }
    sched.end_step();
    sched.sync(/*collapse=*/false, "hypercube");
  }
  if (rem > 0) {
    for (int r = 0; r < rem; ++r) {
      sched.send(r, q + r, payload, slot(r), slot(q + r));
    }
    if (st) {
      sched.call([st] {
        parallel_for(0, st->rem, [&](size_t r) {
          st->selected[st->q + r] = st->selected[r];
        });
      });
    }
    sched.end_step();
    sched.sync(/*collapse=*/false, "unfold");
  }
  if (st) {
    // Every rank's buffer becomes the shared global top-k.
    sched.call([st] {
      parallel_for(0, st->data.size(), [&](size_t r) {
        auto dst = st->data[r];
        std::fill(dst.begin(), dst.end(), 0.0f);
        st->selected[r].scatter_add_into(dst);
      });
    });
  }
}

PhaseReport gtopk_comm(simnet::Cluster& cluster, const RankData& data,
                       size_t elems, const GtopkOptions& options,
                       double start) {
  Schedule sched;
  build_gtopk(sched, cluster.topology(), data, elems, options);
  return sched.run(cluster, start);
}

}  // namespace hitopk::coll
