// Fig. 8: HiTopKComm per-step time breakdown (ReduceScatter / MSTopK /
// inter-node AllGather / intra-node AllGather) at densities
// {0.001, 0.002, 0.01, 0.02}, for (a) ResNet-50 (25 M parameters) and
// (b) Transformer (110 M parameters), FP32 values.
//
// Expected shape: the inter-node All-Gather dominates; MSTopK is
// negligible; both intra-node steps are small (NVLink).
//
// Every number is a port-clock simulation, so the whole JSON output sits
// under the "sim" subtree and the CI perf gate pins it to 1e-6 relative
// (bench/refs/BENCH_fig08.json; schema in docs/REPRODUCING.md).
//
// Flags: --json=PATH (default BENCH_fig08.json; empty disables)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "collectives/hitopkcomm.h"
#include "core/flags.h"
#include "core/table.h"
#include "simgpu/gpu_model.h"

namespace {

using namespace hitopk::coll;

struct Workload {
  const char* label;
  const char* model;
  size_t params;
};

constexpr Workload kWorkloads[] = {
    {"(a) ResNet-50", "resnet50", 25'000'000},
    {"(b) Transformer", "transformer", 110'000'000},
};

// HiTopKComm's four steps, in order.
constexpr const char* kPhases[] = {"reduce_scatter", "mstopk",
                                   "inter_allgather", "intra_allgather"};

struct Row {
  const char* panel;
  const Workload* workload;
  double density;
  WireDtype wire;
  double phases[4];
  double total;
};

Row run(const char* panel, const Workload& w, double density, WireDtype wire,
        const hitopk::simgpu::GpuCostModel& gpu) {
  hitopk::simnet::Cluster cluster(
      hitopk::simnet::Topology::tencent_cloud(16, 8));
  HiTopKOptions options;
  options.density = density;
  options.value_wire = wire;
  options.gpu = &gpu;
  const PhaseReport report = hitopk_comm(cluster, {}, w.params, options, 0.0);
  Row row{panel, &w, density, wire, {}, report.total};
  for (size_t p = 0; p < 4; ++p) row.phases[p] = report.seconds(kPhases[p]);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using hitopk::TablePrinter;
  const hitopk::Flags flags(argc, argv);
  const std::string json_path = flags.get("json", "BENCH_fig08.json");

  std::cout << "=== Fig. 8: HiTopKComm step breakdown (16x8 cluster, FP32 "
               "values) ===\n\n";
  const hitopk::simgpu::GpuCostModel gpu;
  auto add_row = [](TablePrinter& table, const std::string& second,
                    const Row& r) {
    table.add_row({r.workload->label, second,
                   TablePrinter::fmt(r.phases[0], 4),
                   TablePrinter::fmt(r.phases[1], 4),
                   TablePrinter::fmt(r.phases[2], 4),
                   TablePrinter::fmt(r.phases[3], 4),
                   TablePrinter::fmt(r.total, 4)});
  };

  std::vector<Row> rows;
  TablePrinter table({"Model", "Density", "ReduceScatter", "MSTopK",
                      "Inter-AllGather", "Intra-AllGather", "Total (s)"});
  for (const Workload& w : kWorkloads) {
    for (const double density : {0.001, 0.002, 0.01, 0.02}) {
      rows.push_back(run("density", w, density, WireDtype::kFp32, gpu));
      add_row(table, TablePrinter::fmt(density, 3), rows.back());
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: Inter-AllGather dominates and grows with "
               "density; MSTopK stays negligible.\n";

  // Quantized wire panel: the same breakdown at density 0.01 with the
  // selected values crossing fp16 / int8 wires.  The AllGather legs carry
  // (index, value) pairs, so shrinking the value payload compresses only
  // part of each pair — the step times shrink, but less than 2x / 4x.
  std::cout << "\n=== Quantized value wire (density 0.01) ===\n\n";
  TablePrinter qtable({"Model", "Wire", "ReduceScatter", "MSTopK",
                       "Inter-AllGather", "Intra-AllGather", "Total (s)"});
  for (const Workload& w : kWorkloads) {
    for (const WireDtype wire :
         {WireDtype::kFp32, WireDtype::kFp16, WireDtype::kInt8}) {
      rows.push_back(run("wire", w, 0.01, wire, gpu));
      add_row(qtable, wire_dtype_name(wire), rows.back());
    }
  }
  qtable.print(std::cout);
  std::cout << "\nValues are half the pair on the wire, so fp16 trims the "
               "AllGather legs by ~25%.\n";

  if (!json_path.empty()) {
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json != nullptr) {
      std::fprintf(json,
                   "{\n  \"bench\": \"fig08_hitopk_breakdown\",\n"
                   "  \"sim\": {\n    \"cluster\": \"16x8\",\n"
                   "    \"rows\": [\n");
      for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(json,
                     "      {\"panel\": \"%s\", \"model\": \"%s\", "
                     "\"params\": %zu, \"density\": %.9g, \"wire\": \"%s\"",
                     r.panel, r.workload->model, r.workload->params,
                     r.density, wire_dtype_name(r.wire));
        for (size_t p = 0; p < 4; ++p) {
          std::fprintf(json, ", \"%s\": %.9g", kPhases[p], r.phases[p]);
        }
        std::fprintf(json, ", \"total\": %.9g}%s\n", r.total,
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(json, "    ]\n  }\n}\n");
      std::fclose(json);
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  return 0;
}
