#include "collectives/hitopkcomm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "collectives/ring.h"
#include "compress/mstopk.h"
#include "core/parallel.h"

namespace hitopk::coll {
namespace {

size_t shard_k(double density, size_t shard_elems) {
  if (shard_elems == 0) return 0;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(density * static_cast<double>(shard_elems))));
}

// Wire bytes of one sparse (values, indices) block: values at the value
// wire dtype (plus its per-block scale record), 4-byte indices.
size_t sparse_payload_bytes(WireDtype wire, size_t nnz) {
  return wire_payload_bytes(wire, nnz) + nnz * 4;
}

// One stream's aggregated sparse result: globally-indexed, ascending,
// compact (exact zeros already dropped).  The inter-node all-gather legs
// quote indices.size() as the stream's nonzero count, and step 4's rebuild
// scatters the pairs directly — no dense accumulation buffer is ever
// materialised.
struct CompactStream {
  std::vector<uint32_t> indices;
  std::vector<float> values;
};

// Stable index-sort of a block whose indices arrive out of order.  MSTopK
// always emits ascending indices, so this is cold; it exists so
// merge_accumulate stays correct for arbitrary SparseTensor inputs
// (duplicates within a block keep their storage order, matching the
// scatter-add sequence).
const compress::SparseTensor* sorted_block(
    const compress::SparseTensor* sp,
    std::vector<compress::SparseTensor>& storage) {
  std::vector<uint32_t> perm(sp->nnz());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return sp->indices[a] < sp->indices[b];
  });
  compress::SparseTensor sorted;
  sorted.dense_size = sp->dense_size;
  sorted.indices.reserve(perm.size());
  sorted.values.reserve(perm.size());
  for (const uint32_t i : perm) {
    sorted.indices.push_back(sp->indices[i]);
    sorted.values.push_back(sp->values[i]);
  }
  storage.push_back(std::move(sorted));
  return &storage.back();
}

// Merge-accumulates one stream's m sorted sparse blocks into a compact
// (index, value) stream.  Each output index sums its occurrences in block
// order starting from a literal 0.0f, which is float-for-float what a
// scatter-add into a zeroed dense buffer performs — including signed-zero
// and NaN propagation.  Touching only the k-way frontier costs O(nnz * m)
// instead of a dense memset plus a full-shard nonzero rescan.
void merge_accumulate(std::span<const compress::SparseTensor* const> blocks,
                      size_t shard_begin, CompactStream& out) {
  struct Cursor {
    const uint32_t* idx;
    const uint32_t* end;
    const float* val;
  };
  std::vector<compress::SparseTensor> sorted_storage;
  sorted_storage.reserve(blocks.size());
  std::vector<Cursor> cursors;
  cursors.reserve(blocks.size());
  size_t total = 0;
  for (const compress::SparseTensor* sp : blocks) {
    const compress::SparseTensor* use = sp;
    if (!std::is_sorted(sp->indices.begin(), sp->indices.end())) {
      use = sorted_block(sp, sorted_storage);
    }
    if (!use->indices.empty()) {
      cursors.push_back({use->indices.data(),
                         use->indices.data() + use->indices.size(),
                         use->values.data()});
      total += use->indices.size();
    }
  }
  out.indices.clear();
  out.values.clear();
  out.indices.reserve(total);
  out.values.reserve(total);
  while (!cursors.empty()) {
    uint32_t lo = *cursors.front().idx;
    for (size_t c = 1; c < cursors.size(); ++c) {
      lo = std::min(lo, *cursors[c].idx);
    }
    // Blocks stay in storage order, so duplicate indices accumulate in the
    // order a scatter-add would apply them.
    float sum = 0.0f;
    for (Cursor& cur : cursors) {
      while (cur.idx != cur.end && *cur.idx == lo) {
        sum += *cur.val;
        ++cur.idx;
        ++cur.val;
      }
    }
    cursors.erase(std::remove_if(cursors.begin(), cursors.end(),
                                 [](const Cursor& c) { return c.idx == c.end; }),
                  cursors.end());
    if (sum != 0.0f) {
      out.indices.push_back(static_cast<uint32_t>(shard_begin + lo));
      out.values.push_back(sum);
    }
  }
}

// Rebuilds the full aggregated gradient on every rank from the compact
// streams.  The streams are in shard order and each is ascending, so the
// concatenation is globally sorted: one forward pass per rank zero-fills
// L1-sized tiles with memset and scatters the tile's survivors while its
// lines are still cache-resident.  That writes each output element exactly
// once at streaming-store speed, where a full-buffer copy would also
// *read* every element — roughly halving step 4's memory traffic.
void rebuild_from_compact(const RankData& data,
                          const std::vector<CompactStream>& streams) {
  constexpr size_t kTileElems = 8 * 1024;  // 32 KiB of floats.
  parallel_for(0, data.size(), [&](size_t r) {
    float* out = data[r].data();
    const size_t elems = data[r].size();
    size_t s = 0;
    size_t cur = 0;
    for (size_t begin = 0; begin < elems; begin += kTileElems) {
      const size_t end = std::min(elems, begin + kTileElems);
      std::memset(out + begin, 0, (end - begin) * sizeof(float));
      while (s < streams.size()) {
        const CompactStream& st = streams[s];
        while (cur < st.indices.size() && st.indices[cur] < end) {
          out[st.indices[cur]] = st.values[cur];
          ++cur;
        }
        if (cur < st.indices.size()) break;
        ++s;
        cur = 0;
      }
    }
  });
}

// Step 1 on a uniform fleet: the m per-node ring Reduce-Scatters as one
// multi-group schedule (intra-node ports are disjoint across nodes, so each
// step's reduces across all nodes batch into one parallel_for).  GPU j of
// every node ends up owning shard j summed over its node.
void build_node_reduce_scatter(Schedule& sched, const simnet::Topology& topo,
                               const RankData& data, size_t elems,
                               WireDtype wire) {
  std::vector<Group> node_groups;
  std::vector<RankData> node_data;
  for (int node = 0; node < topo.nodes(); ++node) {
    node_groups.push_back(node_group(topo, node));
    if (!data.empty()) {
      RankData nd;
      for (int rank : node_groups.back()) {
        nd.push_back(data[static_cast<size_t>(rank)]);
      }
      node_data.push_back(std::move(nd));
    }
  }
  const RingGrid grid = ring_grid(sched, node_groups, node_data, wire);
  build_ring_reduce_scatter(sched, node_groups, grid, elems, wire,
                            /*fused_chains=*/true);
}

// Step 1 on an uneven fleet: a per-node ring Reduce-Scatter needs one chunk
// per member, which the L-shard grid of a small node does not provide, so
// every (node, shard) pair fans its peers' slices in to the shard's owner
// directly — one step, all sends ready at the start, reduces applied in
// local-rank order per owner.
void build_fan_in(Schedule& sched, const simnet::Topology& topo,
                  const RankData& data, const std::vector<ChunkRange>& shards,
                  WireDtype wire) {
  const uint32_t slot0 =
      sched.add_slots(static_cast<uint32_t>(topo.world_size()));
  std::vector<uint32_t> bufs;
  for (const auto& span : data) bufs.push_back(sched.add_buffer(span, wire));
  for (int node = 0; node < topo.nodes(); ++node) {
    const int g = topo.gpus_on_node(node);
    for (size_t s = 0; s < shards.size(); ++s) {
      const ChunkRange& shard = shards[s];
      if (shard.count == 0) continue;
      const int owner = topo.rank_of(node, static_cast<int>(s) % g);
      for (int local = 0; local < g; ++local) {
        const int rank = topo.rank_of(node, local);
        if (rank == owner) continue;
        sched.send(rank, owner, wire_payload_bytes(wire, shard.count),
                   slot0 + static_cast<uint32_t>(rank),
                   slot0 + static_cast<uint32_t>(owner));
        if (!bufs.empty()) {
          sched.reduce(bufs[static_cast<size_t>(rank)],
                       bufs[static_cast<size_t>(owner)], shard.begin,
                       shard.count);
        }
      }
    }
  }
  sched.end_step();
}

}  // namespace

// L = max gpus-per-node shards tile the gradient; on a node with g GPUs,
// GPU j owns every shard s with s % g == j (on a uniform fleet: shard j).
// Steps 2-4 run per (shard, node) unit, so a small node's GPU that owns
// several shards selects, sends and rebuilds each of them.
PhaseReport hitopk_comm(simnet::Cluster& cluster, const RankData& data,
                        size_t elems, const HiTopKOptions& options,
                        double start) {
  const simnet::Topology& topo = cluster.topology();
  check_data(world_group(topo), data, elems);
  const int m = topo.nodes();
  const bool uniform = topo.uniform();
  const bool functional = !data.empty();
  const WireDtype wire = options.value_wire;

  int L = 0;
  for (int node = 0; node < m; ++node) {
    L = std::max(L, topo.gpus_on_node(node));
  }
  HITOPK_CHECK_GT(L, 0);
  std::vector<ChunkRange> shards(static_cast<size_t>(L));
  for (int s = 0; s < L; ++s) {
    shards[static_cast<size_t>(s)] =
        chunk_range(elems, static_cast<size_t>(L), static_cast<size_t>(s));
  }

  // ---- Step 1: dense intra-node aggregation onto the shard owners (Alg. 2
  // lines 2-4).
  Schedule sched;
  if (uniform) {
    build_node_reduce_scatter(sched, topo, data, elems, wire);
  } else {
    build_fan_in(sched, topo, data, shards, wire);
  }
  sched.sync(/*collapse=*/false, "reduce_scatter");
  PhaseReport report = sched.run(cluster, start);

  // ---- Step 2: MSTopK per (shard, node) unit (Alg. 2 lines 5-8).  Units
  // are shard-major, so unit s * m + node is node `node`'s block of shard
  // s's stream.
  struct Unit {
    int s;
    int rank;  // the shard's owner on this node
  };
  std::vector<Unit> units;
  units.reserve(static_cast<size_t>(L * m));
  size_t max_k = 0;
  double mstopk_seconds = 0.0;
  for (int s = 0; s < L; ++s) {
    const ChunkRange& shard = shards[static_cast<size_t>(s)];
    const size_t k = shard_k(options.density, shard.count);
    max_k = std::max(max_k, k);
    if (options.gpu != nullptr) {
      mstopk_seconds = std::max(
          mstopk_seconds, options.gpu->mstopk_seconds(shard.count, k,
                                                      options.mstopk_samplings));
    }
    for (int node = 0; node < m; ++node) {
      units.push_back({s, topo.rank_of(node, s % topo.gpus_on_node(node))});
    }
  }
  std::vector<compress::SparseTensor> sel(units.size());
  if (functional) {
    // A uniform fleet's GPU owns one shard, so its rank alone names the
    // error-feedback entry ("<prefix>:<rank>") and seeds the selection; an
    // uneven fleet's GPU may own several, so both carry the shard too
    // ("<prefix>:<rank>:s<shard>").  The keys are built once and the
    // residual entries pre-created, so the parallel workers below only
    // ever look them up (inserts would race).
    std::vector<std::string> ef_keys;
    if (options.error_feedback != nullptr) {
      ef_keys.resize(units.size());
      for (size_t u = 0; u < units.size(); ++u) {
        ef_keys[u] = options.ef_key_prefix + ":" +
                     std::to_string(units[u].rank);
        if (!uniform) ef_keys[u] += ":s" + std::to_string(units[u].s);
        options.error_feedback->ensure(
            ef_keys[u], shards[static_cast<size_t>(units[u].s)].count);
      }
    }
    const compress::MsTopKMode mode = options.mstopk_histogram
                                          ? compress::MsTopKMode::kHistogram
                                          : compress::MsTopKMode::kMultiPass;
    // Every unit simulates an independent selection: disjoint shard
    // buffers, its own seeded RNG and residual entry.  The iterations
    // commute, so the parallel execution is bitwise identical to a serial
    // loop.
    parallel_for(0, units.size(), [&](size_t u) {
      const Unit& unit = units[u];
      const ChunkRange& shard = shards[static_cast<size_t>(unit.s)];
      auto shard_span = data[static_cast<size_t>(unit.rank)].subspan(
          shard.begin, shard.count);
      const uint64_t rank = static_cast<uint64_t>(unit.rank);
      const uint64_t seed =
          uniform ? options.seed + rank
                  : options.seed + rank * static_cast<uint64_t>(L) +
                        static_cast<uint64_t>(unit.s);
      compress::MsTopK mstopk(options.mstopk_samplings, seed, mode);
      // Fused EF exchange: the shard is untouched between compensation and
      // absorption, so priming the residual during apply saves absorb's
      // full-shard copy.
      if (options.error_feedback != nullptr) {
        options.error_feedback->apply_priming(ef_keys[u], shard_span);
      }
      sel[u] = mstopk.compress(shard_span, shard_k(options.density,
                                                   shard.count));
      // Typed payloads: the values cross the wire in the selected dtype, so
      // round them through the codec *before* error feedback absorbs the
      // send — the residual then keeps the quantization error alongside the
      // unselected coordinates.  A no-op for fp32.
      wire_round_trip(wire, std::span<float>(sel[u].values));
      if (options.error_feedback != nullptr) {
        options.error_feedback->absorb_primed(ef_keys[u], sel[u]);
      }
    });
  }
  report.close("mstopk", simnet::Cluster::compute(report.finish,
                                                  mstopk_seconds));

  // ---- Step 3: one inter-node All-Gather per shard among the shard's
  // per-node owners, all concurrent (Alg. 2 line 11: "for j in [n] in
  // parallel"), sharing each node's NIC; plus local accumulation with
  // duplicate-index adds (lines 15-20).  Every member of a stream computes
  // the identical accumulation of its m sparse blocks, so it is computed
  // once per stream: the sorted blocks merge-accumulate into a compact
  // stream (see merge_accumulate) — no dense buffer, no memset, no
  // full-shard rescan.  The shards tile [0, elems), so the streams together
  // ARE the aggregated gradient and feed step 4's tiled scatter rebuild.
  std::vector<CompactStream> streams(functional ? static_cast<size_t>(L) : 0);
  std::vector<size_t> stream_nnz(static_cast<size_t>(L), 0);
  std::vector<Group> stream_groups;
  std::vector<std::vector<size_t>> stream_payloads;
  std::vector<int> stream_shards;
  for (int s = 0; s < L; ++s) {
    const ChunkRange& shard = shards[static_cast<size_t>(s)];
    if (shard.count == 0) continue;
    Group group;
    std::vector<size_t> payload;
    for (int node = 0; node < m; ++node) {
      const size_t u = static_cast<size_t>(s * m + node);
      group.push_back(units[u].rank);
      const size_t nnz = functional ? sel[u].nnz()
                                    : shard_k(options.density, shard.count);
      payload.push_back(sparse_payload_bytes(wire, nnz));
    }
    stream_groups.push_back(std::move(group));
    stream_payloads.push_back(std::move(payload));
    stream_shards.push_back(s);
  }
  if (functional) {
    // Every worker owns its own stream: race-free, and bitwise identical
    // to a serial loop.
    parallel_for(0, stream_shards.size(), [&](size_t i) {
      const int s = stream_shards[i];
      std::vector<const compress::SparseTensor*> blocks;
      blocks.reserve(static_cast<size_t>(m));
      for (int node = 0; node < m; ++node) {
        blocks.push_back(&sel[static_cast<size_t>(s * m + node)]);
      }
      CompactStream& stream = streams[static_cast<size_t>(s)];
      merge_accumulate(blocks, shards[static_cast<size_t>(s)].begin, stream);
      stream_nnz[static_cast<size_t>(s)] = stream.indices.size();
    });
  }
  double t3_comm = report.finish;
  if (!stream_groups.empty()) {
    t3_comm = ring_allgather_bytes_multi(cluster, stream_groups,
                                         stream_payloads, report.finish);
  }
  double accumulate_seconds = 0.0;
  if (options.gpu != nullptr) {
    accumulate_seconds = options.gpu->scatter_add_seconds(
        static_cast<size_t>(m) * max_k);
  }
  report.close("inter_allgather",
               simnet::Cluster::compute(t3_comm, accumulate_seconds));

  // ---- Step 4: intra-node All-Gather of the accumulated sparse shards
  // (Alg. 2 lines 21-23); each GPU contributes every shard it owns, at
  // most m*k~ nonzeros per shard.
  const double t3 = report.finish;
  double t4_comm = t3;
  for (int node = 0; node < m; ++node) {
    const Group group = node_group(topo, node);
    const int g = topo.gpus_on_node(node);
    std::vector<size_t> payload(group.size(), 0);
    for (int s = 0; s < L; ++s) {
      const ChunkRange& shard = shards[static_cast<size_t>(s)];
      const size_t nnz =
          functional ? stream_nnz[static_cast<size_t>(s)]
                     : std::min(static_cast<size_t>(m) *
                                    shard_k(options.density, shard.count),
                                shard.count);
      payload[static_cast<size_t>(s % g)] += sparse_payload_bytes(wire, nnz);
    }
    t4_comm = std::max(t4_comm,
                       ring_allgather_bytes(cluster, group, payload, t3));
  }
  double rebuild_seconds = 0.0;
  if (options.gpu != nullptr) {
    rebuild_seconds = options.gpu->scatter_add_seconds(
        std::min(static_cast<size_t>(m) * max_k * static_cast<size_t>(L),
                 elems));
  }
  report.close("intra_allgather",
               simnet::Cluster::compute(t4_comm, rebuild_seconds));

  // Rebuild the full aggregated gradient on every rank from the
  // concatenated compact streams.
  if (functional) rebuild_from_compact(data, streams);
  return report;
}

}  // namespace hitopk::coll
