#include "train/tenant.h"

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "collectives/ring.h"
#include "models/perf_model.h"

namespace hitopk::train {

simnet::JobBody make_tenant_body(const TenantWorkload& workload) {
  // One recorded schedule per distinct gang: the recording depends only on
  // the (sorted) rank set and payload, not on the clock or the job id, so a
  // job replays the same schedule every iteration and jobs that happen to
  // get the same gang shape share nothing (gangs are disjoint while alive).
  struct State {
    TenantWorkload workload;
    std::map<std::pair<std::vector<int>, size_t>, coll::Schedule> schedules;
  };
  auto state = std::make_shared<State>();
  state->workload = workload;

  return [state](simnet::Cluster& cluster, const simnet::JobSpec& spec,
                 const std::vector<int>& ranks,
                 double start) -> simnet::JobIteration {
    const TenantWorkload& w = state->workload;
    const double compute = simnet::Cluster::compute(
        start, models::PerfModel::ffbp_seconds(w.model, w.resolution,
                                               w.local_batch));
    if (ranks.size() <= 1 || spec.bytes == 0) return {compute, false};

    // JobSpec::bytes counts the fp32 gradient; the wire dtype decides how
    // many bytes those elements occupy on the ports.
    const size_t elems = (spec.bytes + 3) / 4;
    coll::Schedule& sched = state->schedules[{ranks, spec.bytes}];
    if (sched.empty()) {
      coll::build_ring_allreduce(
          sched, coll::locality_sorted_group(cluster.topology(), ranks), {},
          elems, w.wire);
    }
    const coll::ScheduleOutcome out =
        sched.run_timing_abortable(cluster, compute, spec.id);
    return {out.finish, out.aborted()};
  };
}

}  // namespace hitopk::train
