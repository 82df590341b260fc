#include "collectives/ring.h"

namespace hitopk::coll {
namespace {

// Send-chunk schedules.  Reduce-scatter: at step s, group rank i sends chunk
// (i - s - 1) mod G and receives chunk (i - s - 2) mod G; after G-1 steps
// rank i owns chunk i fully reduced.  All-gather: rank i starts owning chunk
// i, sends chunk (i - s) mod G, receives (i - s - 1) mod G.
size_t rs_send_chunk(size_t i, size_t s, size_t g) { return (i + 2 * g - s - 1) % g; }
size_t ag_send_chunk(size_t i, size_t s, size_t g) { return (i + 2 * g - s) % g; }

// Wraps a single group (+ optional data) for the multi builders.
std::vector<RankData> single_data(const RankData& data) {
  std::vector<RankData> out;
  if (!data.empty()) out.push_back(data);
  return out;
}

}  // namespace

RingGrid ring_grid(Schedule& sched, const std::vector<Group>& groups,
                   const std::vector<RankData>& data, WireDtype wire) {
  RingGrid grid;
  grid.nq = groups.size();
  grid.g = groups.empty() ? 0 : groups[0].size();
  grid.slot0 = sched.add_slots(static_cast<uint32_t>(grid.nq * grid.g));
  if (!data.empty()) {
    grid.bufs.assign(grid.nq * grid.g, RingGrid::kNoBuf);
    for (size_t q = 0; q < grid.nq; ++q) {
      if (data[q].empty()) continue;  // timing-only group
      for (size_t i = 0; i < grid.g; ++i) {
        grid.bufs[q * grid.g + i] = sched.add_buffer(data[q][i], wire);
      }
    }
  }
  return grid;
}

void build_ring_reduce_scatter(Schedule& sched,
                               const std::vector<Group>& groups,
                               const RingGrid& grid,
                               const std::vector<ChunkRange>& extents,
                               WireDtype wire, bool fused_chains) {
  const size_t g = grid.g;
  if (g <= 1) return;
  HITOPK_CHECK_EQ(extents.size(), grid.nq);
  // Chunk c of group q, inside that group's extent.
  auto chunk_of = [&](size_t q, size_t c) {
    ChunkRange range = chunk_range(extents[q].count, g, c);
    range.begin += extents[q].begin;
    return range;
  };
  // Fused chains: all data movement sits in the first step (each chunk's
  // chain is independent — chain c writes only owner c's chunk c and reads
  // chunk c of the others, ranges disjoint across chains).  Per chunk the
  // reduction order is the hop order b[c+1], then b[c+2] ... b[c+g-1], with
  // the owner's own contribution last.
  if (fused_chains && !grid.bufs.empty()) {
    for (size_t q = 0; q < grid.nq; ++q) {
      if (grid.buf(q, 0) == RingGrid::kNoBuf) continue;
      for (size_t c = 0; c < g; ++c) {
        const ChunkRange range = chunk_of(q, c);
        const uint32_t owner = grid.buf(q, c);
        sched.move(TransferOp::kChainFirst, grid.buf(q, (c + 1) % g), owner,
                   range.begin, range.count);
        for (size_t j = 2; j < g; ++j) {
          sched.move(TransferOp::kChainMid, grid.buf(q, (c + j) % g), owner,
                     range.begin, range.count);
        }
        sched.move(TransferOp::kChainLast, owner, owner, range.begin,
                   range.count);
      }
    }
  }
  for (size_t s = 0; s + 1 < g; ++s) {
    for (size_t i = 0; i < g; ++i) {
      for (size_t q = 0; q < grid.nq; ++q) {
        const size_t peer = (i + 1) % g;
        const size_t chunk = rs_send_chunk(i, s, g);
        const ChunkRange range = chunk_of(q, chunk);
        sched.send(groups[q][i], groups[q][peer],
                   wire_payload_bytes(wire, range.count), grid.slot(q, i),
                   grid.slot(q, peer));
        if (!fused_chains && !grid.bufs.empty() &&
            grid.buf(q, i) != RingGrid::kNoBuf) {
          sched.reduce(grid.buf(q, i), grid.buf(q, peer), range.begin,
                       range.count);
        }
      }
    }
    sched.end_step();
  }
}

void build_ring_reduce_scatter(Schedule& sched,
                               const std::vector<Group>& groups,
                               const RingGrid& grid, size_t elems,
                               WireDtype wire, bool fused_chains) {
  build_ring_reduce_scatter(sched, groups, grid,
                            std::vector<ChunkRange>(grid.nq, {0, elems}),
                            wire, fused_chains);
}

void build_ring_allgather(Schedule& sched, const std::vector<Group>& groups,
                          const RingGrid& grid,
                          const std::vector<ChunkRange>& extents,
                          WireDtype wire) {
  const size_t g = grid.g;
  if (g <= 1) return;
  HITOPK_CHECK_EQ(extents.size(), grid.nq);
  auto chunk_of = [&](size_t q, size_t c) {
    ChunkRange range = chunk_range(extents[q].count, g, c);
    range.begin += extents[q].begin;
    return range;
  };
  // Resolved data movement: the wire forwards chunk c hop by hop, but every
  // forwarded value *is* group rank c's chunk c, so each destination gets
  // one direct copy from the origin (recorded in the first gather step —
  // origins are never overwritten during the gather, so intra-step reads
  // and writes are disjoint).  Source-major buckets: owner c's chunk is
  // read once and streams cache-hot to its g-1 destinations.
  if (!grid.bufs.empty()) {
    for (size_t q = 0; q < grid.nq; ++q) {
      if (grid.buf(q, 0) == RingGrid::kNoBuf) continue;
      for (size_t c = 0; c < g; ++c) {
        const ChunkRange owned = chunk_of(q, c);
        for (size_t i = 0; i < g; ++i) {
          if (i == c) continue;
          sched.copy(grid.buf(q, c), grid.buf(q, i), owned.begin, owned.count,
                     /*bucket=*/grid.buf(q, c));
        }
      }
    }
  }
  for (size_t s = 0; s + 1 < g; ++s) {
    for (size_t i = 0; i < g; ++i) {
      for (size_t q = 0; q < grid.nq; ++q) {
        const size_t peer = (i + 1) % g;
        const size_t chunk = ag_send_chunk(i, s, g);
        const ChunkRange range = chunk_of(q, chunk);
        sched.send(groups[q][i], groups[q][peer],
                   wire_payload_bytes(wire, range.count), grid.slot(q, i),
                   grid.slot(q, peer));
      }
    }
    sched.end_step();
  }
}

void build_ring_allgather(Schedule& sched, const std::vector<Group>& groups,
                          const RingGrid& grid, size_t elems, WireDtype wire) {
  build_ring_allgather(sched, groups, grid,
                       std::vector<ChunkRange>(grid.nq, {0, elems}), wire);
}

void build_ring_allreduce(Schedule& sched, const Group& group,
                          const RankData& data, size_t elems, WireDtype wire) {
  if (group.size() <= 1) return;
  const std::vector<Group> groups{group};
  const RingGrid grid = ring_grid(sched, groups, single_data(data), wire);
  build_ring_reduce_scatter(sched, groups, grid, elems, wire,
                            /*fused_chains=*/true);
  // The gather starts for everyone at the RS completion maximum, then
  // reuses the reduce-scatter result in place (owner chunks feed the
  // resolved copies).
  sched.sync(/*collapse=*/true, "reduce_scatter");
  build_ring_allgather(sched, groups, grid, elems, wire);
}

void build_ring_allgather_bytes(
    Schedule& sched, const std::vector<Group>& groups, const RingGrid& grid,
    const std::vector<std::vector<size_t>>& payload_bytes,
    double step_overhead) {
  const size_t g = grid.g;
  if (g <= 1) return;
  for (size_t s = 0; s + 1 < g; ++s) {
    for (size_t i = 0; i < g; ++i) {
      for (size_t q = 0; q < grid.nq; ++q) {
        const size_t peer = (i + 1) % g;
        const size_t origin = (i + 2 * g - s) % g;
        sched.send(groups[q][i], groups[q][peer], payload_bytes[q][origin],
                   grid.slot(q, i), grid.slot(q, peer), step_overhead);
      }
    }
    sched.end_step();
  }
}

// ========================== public entry points ==========================

double ring_reduce_scatter(simnet::Cluster& cluster, const Group& group,
                           const RankData& data, size_t elems, WireDtype wire,
                           double start) {
  check_data(group, data, elems);
  if (group.size() <= 1) return start;
  std::vector<Group> groups{group};
  std::vector<RankData> group_data = single_data(data);
  Schedule sched;
  const RingGrid grid = ring_grid(sched, groups, group_data, wire);
  build_ring_reduce_scatter(sched, groups, grid, elems, wire);
  return sched.run(cluster, start).finish;
}

double ring_allgather(simnet::Cluster& cluster, const Group& group,
                      const RankData& data, size_t elems, WireDtype wire,
                      double start) {
  check_data(group, data, elems);
  if (group.size() <= 1) return start;
  std::vector<Group> groups{group};
  std::vector<RankData> group_data = single_data(data);
  Schedule sched;
  const RingGrid grid = ring_grid(sched, groups, group_data, wire);
  build_ring_allgather(sched, groups, grid, elems, wire);
  return sched.run(cluster, start).finish;
}

double ring_allreduce(simnet::Cluster& cluster, const Group& group,
                      const RankData& data, size_t elems, WireDtype wire,
                      double start) {
  check_data(group, data, elems);
  if (group.size() <= 1) return start;
  Schedule sched;
  build_ring_allreduce(sched, group, data, elems, wire);
  return sched.run(cluster, start).finish;
}

double ring_allgather_bytes(simnet::Cluster& cluster, const Group& group,
                            const std::vector<size_t>& payload_bytes,
                            double start, double step_overhead) {
  return ring_allgather_bytes_multi(cluster, {group}, {payload_bytes}, start,
                                    step_overhead);
}

double ring_allgather_bytes_multi(
    simnet::Cluster& cluster, const std::vector<Group>& groups,
    const std::vector<std::vector<size_t>>& payload_bytes, double start,
    double step_overhead) {
  HITOPK_VALIDATE(!groups.empty()) << "allgather needs a group";
  HITOPK_VALIDATE(payload_bytes.size() == groups.size())
      << "got" << payload_bytes.size() << "payload vectors for"
      << groups.size() << "groups";
  const size_t g = groups[0].size();
  // Zero-size groups carry no blocks and no steps: return before the
  // per-group validation below would index payload_bytes[q][origin] with
  // origin computed modulo g == 0.
  if (g == 0) return start;
  for (size_t q = 0; q < groups.size(); ++q) {
    HITOPK_VALIDATE(groups[q].size() == g)
        << "group" << q << "has" << groups[q].size() << "ranks, expected" << g;
    HITOPK_VALIDATE(payload_bytes[q].size() == g)
        << "payload vector" << q << "has" << payload_bytes[q].size()
        << "entries, expected" << g;
  }
  if (g == 1) return start;
  Schedule sched;
  const RingGrid grid = ring_grid(sched, groups, {});
  build_ring_allgather_bytes(sched, groups, grid, payload_bytes,
                             step_overhead);
  return sched.run_timing(cluster, start).finish;
}

}  // namespace hitopk::coll
