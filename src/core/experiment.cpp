#include "core/experiment.h"

#include <algorithm>

#include "sim/dor_engine.h"
#include "util/table.h"

namespace fbf::core {

std::string ExperimentConfig::label() const {
  std::string out = codes::to_string(code);
  out += "(p=" + std::to_string(p) + ")";
  out += " " + std::string(cache::to_string(policy));
  out += " cache=" + util::fmt_bytes(cache_bytes);
  out += " scheme=" + std::string(recovery::to_string(scheme));
  return out;
}

std::string obs_run_label(const ExperimentConfig& config) {
  std::string out = "run.";
  out += codes::to_string(config.code);
  out += ".p" + std::to_string(config.p);
  out += ".";
  out += cache::to_string(config.policy);
  out += ".c" + std::to_string(config.cache_bytes);
  out += config.obs_suffix;
  return out;
}

sim::EngineConfig engine_config(const ExperimentConfig& config) {
  sim::EngineConfig ec;
  ec.scheme = config.scheme;
  ec.policy = config.policy;
  ec.cache_bytes = config.cache_bytes;
  ec.chunk_bytes = config.chunk_bytes;
  ec.cache_access_ms = config.cache_access_ms;
  ec.xor_ms_per_chunk = config.xor_ms_per_chunk;
  ec.disk.kind = config.disk_model;
  ec.disk.read_ms = config.disk_access_ms;
  ec.disk.write_ms = config.disk_access_ms;
  ec.seed = config.seed;
  ec.faults = config.faults;
  ec.throttle = config.recovery_throttle;
  ec.write.cache_chunks = config.write_cache_chunks;
  ec.write.flush_interval_ms = config.write_flush_ms;
  ec.write.retain_favorable = config.write_retain_favorable;
  ec.write.policy = config.policy;  // write cache mirrors the read policy
  ec.write.cache_access_ms = config.cache_access_ms;
  ec.verify_data = config.verify_data;
  if (config.obs != nullptr) {
    ec.observer = config.obs;
    ec.obs_label = obs_run_label(config);
  }
  return ec;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const codes::Layout layout = codes::make_layout(config.code, config.p);
  const sim::ArrayGeometry geometry(layout, config.num_stripes,
                                    config.layout_strategy, config.pool_disks,
                                    config.spare_placement);

  workload::ErrorTraceConfig trace_cfg;
  trace_cfg.num_stripes = config.num_stripes;
  trace_cfg.num_errors = config.num_errors;
  trace_cfg.target_col = config.error_col;
  trace_cfg.spatial_locality = config.spatial_locality;
  trace_cfg.seed = config.seed;
  const auto errors = workload::generate_error_trace(layout, trace_cfg);

  std::vector<workload::AppRequest> app_trace;
  if (config.app_requests > 0) {
    workload::AppTraceConfig app_cfg;
    app_cfg.num_stripes = config.num_stripes;
    app_cfg.num_requests = config.app_requests;
    app_cfg.mean_interarrival_ms = config.app_mean_interarrival_ms;
    app_cfg.read_fraction = config.app_read_fraction;
    app_cfg.deadline_ms = config.app_deadline_ms;
    app_cfg.rewrite_fraction = config.app_rewrite_fraction;
    app_cfg.seed = config.seed ^ 0xa99ull;
    app_trace = workload::generate_app_trace(layout, app_cfg);
  }

  sim::SimMetrics m;
  const sim::EngineConfig shared = engine_config(config);
  if (config.engine == EngineKind::Dor) {
    sim::DorEngine engine(layout, geometry, sim::DorConfig(shared));
    m = engine.run(errors, app_trace);
  } else {
    sim::ReconstructionConfig rc(shared);
    rc.workers = config.workers;
    rc.memoize_schemes = config.memoize_schemes;
    sim::ReconstructionEngine engine(layout, geometry, rc);
    m = engine.run(errors, app_trace);
  }

  ExperimentResult r;
  r.hit_ratio = m.hit_ratio();
  r.cache_hits = m.cache.hits;
  r.cache_misses = m.cache.misses;
  r.disk_reads = m.disk_reads;
  r.disk_writes = m.disk_writes;
  r.avg_response_ms = m.response_ms.mean();
  r.p99_response_ms = m.response_reservoir.percentile(0.99);
  r.reconstruction_ms = m.reconstruction_ms;
  r.scheme_gen_wall_ms = m.scheme_gen_wall_ms;
  r.schemes_generated = m.schemes_generated;
  r.stripes_recovered = m.stripes_recovered;
  r.chunks_recovered = m.chunks_recovered;
  r.total_chunk_requests = m.total_chunk_requests;
  r.app_avg_response_ms = m.app_response_ms.mean();
  r.app_p99_response_ms = m.app_response_hist.percentile(0.99);
  r.app_p999_response_ms = m.app_response_hist.percentile(0.999);
  r.app_degraded_reads = m.app_degraded_reads;
  r.app_degraded_writes = m.app_degraded_writes;
  r.app_served = m.app_served;
  r.app_parked_drained = m.app_parked_drained;
  r.app_deadline_miss = m.app_deadline_miss;
  r.disks_total = static_cast<int>(m.disk_ops.size());
  std::uint64_t total_ops = 0;
  for (const std::uint64_t ops : m.disk_ops) {
    total_ops += ops;
    r.disk_ops_max = std::max(r.disk_ops_max, ops);
    if (ops > 0) {
      ++r.disks_active;
    }
  }
  r.disk_ops_mean = m.disk_ops.empty()
                        ? 0.0
                        : static_cast<double>(total_ops) /
                              static_cast<double>(m.disk_ops.size());
  r.fault = m.fault;
  r.write = m.write;
  return r;
}

}  // namespace fbf::core
