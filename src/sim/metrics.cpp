#include "sim/metrics.h"

#include "obs/observer.h"
#include "obs/registry.h"
#include "util/table.h"

namespace fbf::sim {

std::string SimMetrics::summary_line() const {
  std::string out;
  out += "hit_ratio=" + util::fmt_percent(hit_ratio());
  out += " disk_reads=" + std::to_string(disk_reads);
  out += " avg_response_ms=" + util::fmt_double(response_ms.mean());
  out += " reconstruction_ms=" + util::fmt_double(reconstruction_ms, 1);
  out += " stripes=" + std::to_string(stripes_recovered);
  return out;
}

namespace {

using enum CounterGroup;

// Address of the SimMetrics field `expr` names, as a counter's accessor.
#define FIELD(expr) [](const SimMetrics& m) { return &m.expr; }

// The registry sorts counters on export; this order only groups them.
constexpr RunCounter kRunCounters[] = {
    {"run.count", Always, nullptr},
    {"run.cache_hits", Always, FIELD(cache.hits)},
    {"run.cache_misses", Always, FIELD(cache.misses)},
    {"run.cache_evictions", Always, FIELD(cache.evictions)},
    {"run.total_chunk_requests", Always, FIELD(total_chunk_requests)},
    {"run.disk_reads", Always, FIELD(disk_reads)},
    {"run.planned_disk_reads", Always, FIELD(planned_disk_reads)},
    {"run.disk_writes", Always, FIELD(disk_writes)},
    {"run.chunks_recovered", Always, FIELD(chunks_recovered)},
    {"run.stripes_recovered", Always, FIELD(stripes_recovered)},
    {"run.schemes_generated", Always, FIELD(schemes_generated)},
    {"run.scheme_cache_hits", Always, FIELD(scheme_cache_hits)},
    {"run.app_requests", Always, FIELD(app_requests)},
    {"run.app_degraded_reads", Always, FIELD(app_degraded_reads)},
    {"run.app.served", App, FIELD(app_served)},
    {"run.app.parked_drained", App, FIELD(app_parked_drained)},
    {"run.app.degraded_writes", App, FIELD(app_degraded_writes)},
    {"run.app.deadline_miss", App, FIELD(app_deadline_miss)},
    {"run.app.fault.sector_errors", AppFault, FIELD(app_fault.sector_errors)},
    {"run.app.fault.transient_failures", AppFault,
     FIELD(app_fault.transient_failures)},
    {"run.app.fault.retries", AppFault, FIELD(app_fault.retries)},
    {"run.app.fault.dead_disk_reads", AppFault,
     FIELD(app_fault.dead_disk_reads)},
    {"run.app.fault.reconstructed_reads", AppFault,
     FIELD(app_reconstructed_reads)},
    // The spare_writes field is live on every run, its counter is not.
    {"run.write.runs", Write, nullptr},
    {"run.write.spare_writes", Write, FIELD(write.spare_writes)},
    {"run.write.rmw_plans", Write, FIELD(write.rmw_plans)},
    {"run.write.rcw_plans", Write, FIELD(write.rcw_plans)},
    {"run.write.direct_plans", Write, FIELD(write.direct_plans)},
    {"run.write.degraded_plans", Write, FIELD(write.degraded_plans)},
    {"run.write.plan_disk_reads", Write, FIELD(write.plan_disk_reads)},
    {"run.write.plan_cache_reads", Write, FIELD(write.plan_cache_reads)},
    {"run.write.app_read_hits", Write, FIELD(write.app_read_hits)},
    {"run.write.parity_updates", Write, FIELD(write.parity_updates)},
    {"run.write.dirty_installed", Write, FIELD(write.dirty_installed)},
    {"run.write.flushed", Write, FIELD(write.flushed)},
    {"run.write.write_backs", Write, FIELD(write.write_backs)},
    {"run.write.lost_dirty", Write, FIELD(write.lost_dirty)},
    {"run.write.evicted_dirty", Write, FIELD(write.evicted_dirty)},
    {"run.write.retained_dirty", Write, FIELD(write.retained_dirty)},
    {"run.write.flush_ticks", Write, FIELD(write.flush_ticks)},
    {"run.write.write_hits", Write, FIELD(write.write_hits)},
    {"run.write.write_misses", Write, FIELD(write.write_misses)},
    {"run.fault.runs", Fault, nullptr},
    {"run.fault.sector_errors", Fault, FIELD(fault.sector_errors)},
    {"run.fault.transient_failures", Fault, FIELD(fault.transient_failures)},
    {"run.fault.retries", Fault, FIELD(fault.retries)},
    {"run.fault.dead_disk_reads", Fault, FIELD(fault.dead_disk_reads)},
    {"run.fault.replans", Fault, FIELD(fault.replans)},
    {"run.fault.gauss_fallbacks", Fault, FIELD(fault.gauss_fallbacks)},
    {"run.fault.disk_failures", Fault, FIELD(fault.disk_failures)},
    {"run.fault.escalated_stripes", Fault, FIELD(fault.escalated_stripes)},
    {"run.fault.extra_lost_chunks", Fault, FIELD(fault.extra_lost_chunks)},
    {"run.fault.respared", Fault, FIELD(fault.respared)},
    {"run.fault.straggler_disks", Fault, FIELD(fault.straggler_disks)},
};

#undef FIELD

bool exported(CounterGroup group, const SimMetrics& m) {
  const bool app = m.app_requests > 0;
  return group == Always || (group == App && app) ||
         (group == AppFault && app && m.app_fault.enabled) ||
         (group == Write && m.write.enabled) ||
         (group == Fault && m.fault.enabled);
}

}  // namespace

std::span<const RunCounter> run_counters() { return kRunCounters; }

void record_run(obs::RunObserver* obs, const std::string& label,
                const SimMetrics& m, const obs::Histogram* response_hist) {
#if !FBF_OBS_ENABLED
  (void)label;
  (void)m;
  (void)response_hist;
  obs = nullptr;
#endif
  if (obs == nullptr) {
    return;
  }
  auto& reg = obs->registry();
  for (const RunCounter& c : kRunCounters) {
    if (exported(c.group, m)) {
      reg.add_counter(std::string(c.name), c.value(m));
    }
  }

  reg.set_gauge(label + ".hit_ratio", m.hit_ratio());
  reg.set_gauge(label + ".avg_response_ms", m.response_ms.mean());
  reg.set_gauge(label + ".p99_response_ms",
                m.response_reservoir.percentile(0.99));
  reg.set_gauge(label + ".reconstruction_ms", m.reconstruction_ms);
  if (m.app_requests > 0) {
    reg.set_gauge(label + ".app_avg_response_ms", m.app_response_ms.mean());
    reg.set_gauge(label + ".app_p99_response_ms",
                  m.app_response_hist.percentile(0.99));
    reg.set_gauge(label + ".app_p999_response_ms",
                  m.app_response_hist.percentile(0.999));
    reg.merge_histogram(label + ".app_response_ms", m.app_response_hist);
  }
  if (response_hist != nullptr) {
    reg.merge_histogram(label + ".response_ms", *response_hist);
  }
  obs->add_wall(label + ".scheme_gen_wall_ms", m.scheme_gen_wall_ms);
}

}  // namespace fbf::sim
