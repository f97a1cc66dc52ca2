// fbfsim — general-purpose driver exposing the whole experiment surface
// from the command line. One run, full metric dump.
//
//   ./fbfsim --code=star --p=13 --policy=fbf --scheme=round-robin
//            --cache-mb=64 --workers=128 --errors=400 --verify
//
// Flags (defaults in parentheses):
//   --code        tip | hdd1 | triplestar | star        (tip)
//   --p           prime parameter                        (11)
//   --policy      fifo|lru|lfu|arc|lru-2|2q|lrfu|fbf|fbf-nodemote (fbf)
//   --scheme      horizontal | round-robin | greedy | exhaustive (round-robin)
//   --cache-mb    total buffer cache                     (64)
//   --chunk-kb    chunk size                             (32)
//   --workers     SOR worker processes                   (128)
//   --errors      damaged stripes                        (400)
//   --error-col   column with errors, -1 = random        (0)
//   --disk-ms     disk access time                       (10)
//   --cache-ms    buffer cache access time               (0.5)
//   --detailed-disk  seek/rotate/transfer model          (off)
//   --layout      naive | rotate | tdesign | d3          (rotate)
//   --pool-size   physical disk pool, 0 = stripe width   (0)
//   --no-rotate   shorthand for --layout=naive
//   --same-disk-sparing  spare writes to the failed disk
//   --app-*       foreground traffic knobs; see core/app_flags.h
//                 (count, interarrival, read mix, deadline, rewrite — off)
//   --recovery-throttle[-burst]  rebuild token bucket; core/app_flags.h
//   --write-*     partial-stripe write path; see core/app_flags.h
//                 (write-back cache chunks, flush period, FBF retention)
//   --verify      carry real bytes, verify every recovered chunk
//   --engine      sor | dor reconstruction engine        (sor)
//   --seed        workload seed                          (42)
//   --csv         machine-readable output
//   --metrics-out write run-level metrics JSON to this file
//   --trace-out   write Chrome trace-event JSON (load in Perfetto)
//   --trace-detail "phases" (default) or "fine" (per-read disk spans)
//   --fault-*     deterministic fault injection; see core/fault_flags.h
//                 (all off by default). A fault load beyond the 3DFT
//                 erasure budget exits 2 with the escalation diagnostic.
//
// Any other rejected input (a malformed flag value, an unsupported p, an
// inconsistent fault plan) exits 1 after one "fbfsim: <message>" line on
// stderr.
#include <iostream>
#include <memory>

#include "core/app_flags.h"
#include "core/experiment.h"
#include "core/fault_flags.h"
#include "obs/observer.h"
#include "sim/faults/faults.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

int run(int argc, char** argv) {
  using namespace fbf;
  const util::Flags flags(argc, argv);
  std::vector<std::string_view> known{
      "code",         "p",       "policy",       "scheme",
      "cache-mb",     "chunk-kb", "workers",     "errors",
      "error-col",    "disk-ms", "cache-ms",     "detailed-disk",
      "layout",       "pool-size",
      "no-rotate",    "same-disk-sparing",
      "verify",       "engine",  "seed",         "csv",
      "metrics-out",  "trace-out",               "trace-detail"};
  const auto& fault_names = core::fault_flag_names();
  known.insert(known.end(), fault_names.begin(), fault_names.end());
  const auto& app_names = core::app_flag_names();
  known.insert(known.end(), app_names.begin(), app_names.end());
  flags.check_known(known);

  core::ExperimentConfig cfg;
  cfg.code = codes::code_from_string(flags.get_string("code", "tip"));
  cfg.p = static_cast<int>(flags.get_int("p", 11));
  cfg.policy = cache::policy_from_string(flags.get_string("policy", "fbf"));
  cfg.scheme =
      recovery::scheme_from_string(flags.get_string("scheme", "round-robin"));
  cfg.cache_bytes =
      static_cast<std::size_t>(flags.get_int("cache-mb", 64)) << 20;
  cfg.chunk_bytes =
      static_cast<std::size_t>(flags.get_int("chunk-kb", 32)) << 10;
  cfg.workers = static_cast<int>(flags.get_int("workers", 128));
  cfg.num_errors = static_cast<int>(flags.get_int("errors", 400));
  cfg.error_col = static_cast<int>(flags.get_int("error-col", 0));
  cfg.disk_access_ms = flags.get_double("disk-ms", 10.0);
  cfg.cache_access_ms = flags.get_double("cache-ms", 0.5);
  if (flags.get_bool("detailed-disk", false)) {
    cfg.disk_model = sim::DiskModelKind::Detailed;
  }
  if (flags.get_bool("no-rotate", false)) {
    cfg.layout_strategy = sim::LayoutStrategy::Naive;
  }
  const std::string layout_name =
      flags.get_string("layout", sim::to_string(cfg.layout_strategy));
  FBF_CHECK(sim::layout_strategy_from_string(layout_name, cfg.layout_strategy),
            "--layout must be naive|rotate|tdesign|d3, got \"" + layout_name +
                "\"");
  cfg.pool_disks = static_cast<int>(flags.get_int("pool-size", 0));
  if (flags.get_bool("same-disk-sparing", false)) {
    cfg.spare_placement = sim::SparePlacement::SameDisk;
  }
  const core::AppFlagValues app = core::parse_app_flags(flags);
  core::apply_app_flags(app, cfg);
  cfg.verify_data = flags.get_bool("verify", false);
  const std::string engine = flags.get_string("engine", "sor");
  FBF_CHECK(engine == "sor" || engine == "dor",
            "--engine must be \"sor\" or \"dor\", got \"" + engine + "\"");
  cfg.engine = engine == "dor" ? core::EngineKind::Dor : core::EngineKind::Sor;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.faults = core::parse_fault_flags(flags);

  std::unique_ptr<obs::RunObserver> observer;
  const std::string metrics_out = flags.get_string("metrics-out", "");
  const std::string trace_out = flags.get_string("trace-out", "");
  const std::string detail = flags.get_string("trace-detail", "phases");
  FBF_CHECK(detail == "phases" || detail == "fine",
            "--trace-detail must be \"phases\" or \"fine\", got \"" + detail +
                "\"");
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::RunObserver::Options oo;
    oo.metrics_path = metrics_out;
    oo.trace_path = trace_out;
    oo.trace_level = trace_out.empty() ? obs::TraceLevel::Off
                     : detail == "fine" ? obs::TraceLevel::Fine
                                        : obs::TraceLevel::Phases;
    observer = std::make_unique<obs::RunObserver>(std::move(oo));
    cfg.obs = observer.get();
  }

  core::ExperimentResult r;
  try {
    r = core::run_experiment(cfg);
  } catch (const sim::EscalationError& e) {
    std::cerr << "escalation beyond the 3DFT budget: stripe " << e.stripe()
              << " has " << e.lost_cells().size()
              << " outstanding lost chunks with failed disks {";
    for (std::size_t i = 0; i < e.failed_disks().size(); ++i) {
      std::cerr << (i ? ", " : "") << e.failed_disks()[i];
    }
    std::cerr << "} — not decodable.\n" << e.what() << "\n";
    return 2;
  }

  util::Table table(cfg.label());
  table.headers({"metric", "value"});
  table.add_row({"hit ratio", util::fmt_percent(r.hit_ratio)});
  table.add_row({"cache hits", std::to_string(r.cache_hits)});
  table.add_row({"cache misses", std::to_string(r.cache_misses)});
  table.add_row({"disk reads", std::to_string(r.disk_reads)});
  table.add_row({"disk writes", std::to_string(r.disk_writes)});
  table.add_row({"avg response (ms)", util::fmt_double(r.avg_response_ms)});
  table.add_row({"p99 response (ms)", util::fmt_double(r.p99_response_ms)});
  table.add_row(
      {"reconstruction (ms)", util::fmt_double(r.reconstruction_ms, 1)});
  table.add_row({"stripes recovered", std::to_string(r.stripes_recovered)});
  table.add_row({"chunks recovered", std::to_string(r.chunks_recovered)});
  table.add_row({"chunk requests", std::to_string(r.total_chunk_requests)});
  table.add_row({"schemes generated", std::to_string(r.schemes_generated)});
  table.add_row(
      {"scheme gen wall (ms)", util::fmt_double(r.scheme_gen_wall_ms, 3)});
  // App rows only appear when foreground traffic is on, so recovery-only
  // output stays byte-identical to builds that predate the SLO engine.
  if (cfg.app_requests > 0) {
    table.add_row(
        {"app avg response (ms)", util::fmt_double(r.app_avg_response_ms)});
    table.add_row(
        {"app p99 response (ms)", util::fmt_double(r.app_p99_response_ms)});
    table.add_row(
        {"app p999 response (ms)", util::fmt_double(r.app_p999_response_ms)});
    table.add_row({"app served", std::to_string(r.app_served)});
    table.add_row(
        {"app degraded reads", std::to_string(r.app_degraded_reads)});
    table.add_row(
        {"app degraded writes", std::to_string(r.app_degraded_writes)});
    if (cfg.app_deadline_ms > 0.0) {
      table.add_row(
          {"app deadline misses", std::to_string(r.app_deadline_miss)});
    }
  }
  // Write-path rows only appear when the write-back cache is on, so
  // legacy-RMW output stays byte-identical to pre-write-path builds.
  if (r.write.enabled) {
    table.add_row({"write rmw plans", std::to_string(r.write.rmw_plans)});
    table.add_row({"write rcw plans", std::to_string(r.write.rcw_plans)});
    table.add_row(
        {"write degraded plans", std::to_string(r.write.degraded_plans)});
    table.add_row(
        {"write plan disk reads", std::to_string(r.write.plan_disk_reads)});
    table.add_row(
        {"write parity updates", std::to_string(r.write.parity_updates)});
    table.add_row({"write cache hits", std::to_string(r.write.write_hits)});
    table.add_row(
        {"write dirty installed", std::to_string(r.write.dirty_installed)});
    table.add_row({"write write-backs", std::to_string(r.write.write_backs)});
    table.add_row(
        {"write retained dirty", std::to_string(r.write.retained_dirty)});
    table.add_row({"write lost dirty", std::to_string(r.write.lost_dirty)});
  }
  if (cfg.verify_data) {
    table.add_row({"data verification", "PASSED (all recovered chunks)"});
  }
  // Fault rows only appear when injection is on, so fault-free output stays
  // byte-identical to builds that predate the fault layer.
  if (cfg.faults.enabled()) {
    table.add_row({"fault sector errors", std::to_string(r.fault.sector_errors)});
    table.add_row(
        {"fault transient fails", std::to_string(r.fault.transient_failures)});
    table.add_row({"fault retries", std::to_string(r.fault.retries)});
    table.add_row(
        {"fault dead-disk reads", std::to_string(r.fault.dead_disk_reads)});
    table.add_row({"fault replans", std::to_string(r.fault.replans)});
    table.add_row(
        {"fault gauss fallbacks", std::to_string(r.fault.gauss_fallbacks)});
    table.add_row({"fault disk failures", std::to_string(r.fault.disk_failures)});
    table.add_row(
        {"fault escalated stripes", std::to_string(r.fault.escalated_stripes)});
    table.add_row(
        {"fault extra lost chunks", std::to_string(r.fault.extra_lost_chunks)});
    table.add_row({"fault respared", std::to_string(r.fault.respared)});
    table.add_row(
        {"fault straggler disks", std::to_string(r.fault.straggler_disks)});
  }
  if (flags.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (observer != nullptr) {
    // Explicit flush so write errors surface as a CheckError, not a
    // destructor-time stderr note.
    observer->write_outputs();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const fbf::util::CheckError& e) {
    std::cerr << "fbfsim: " << e.what() << "\n";
    return 1;
  }
}
