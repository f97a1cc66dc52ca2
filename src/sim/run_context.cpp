#include "sim/run_context.h"

#include <algorithm>
#include <string>
#include <utility>

#include "codes/xor_kernels.h"
#include "util/check.h"

namespace fbf::sim {

VerifyImages::VerifyImages(const codes::Layout& layout,
                           std::size_t chunk_bytes)
    : truth_(layout, chunk_bytes), working_(layout, chunk_bytes) {}

void VerifyImages::reset(std::uint64_t stripe) {
  stripe_ = stripe;
  truth_.fill_random(0x5eedull ^ stripe);
  codes::encode(truth_);
  working_ = truth_;
}

void VerifyImages::restore(codes::Cell cell) {
  const auto truth = truth_.chunk(cell);
  std::copy(truth.begin(), truth.end(), working_.chunk(cell).begin());
}

void VerifyImages::fold_chain(int chain_id, codes::Cell target) {
  fold_srcs_.clear();
  for (const codes::Cell& c : truth_.layout().chain(chain_id).cells) {
    if (c != target) {
      fold_srcs_.push_back(working_.chunk(c));
    }
  }
  const auto out = working_.chunk(target);
  codes::xor_fold(out, fold_srcs_);
  const auto expected = std::as_const(truth_).chunk(target);
  FBF_CHECK(std::equal(out.begin(), out.end(), expected.begin()),
            "recovered chunk " + codes::to_string(target) +
                " does not match the original in stripe " +
                std::to_string(stripe_));
}

void VerifyImages::solve_gauss(const std::vector<codes::Cell>& cells) {
  const codes::DecodeResult res =
      codes::decode_erasures(working_, cells, codes::DecodeMethod::GaussOnly);
  FBF_CHECK(res.ok,
            "Gauss fallback could not solve stripe " + std::to_string(stripe_));
  for (const codes::Cell& c : cells) {
    const auto out = std::as_const(working_).chunk(c);
    const auto expected = std::as_const(truth_).chunk(c);
    FBF_CHECK(std::equal(out.begin(), out.end(), expected.begin()),
              "Gauss-recovered chunk " + codes::to_string(c) +
                  " does not match the original in stripe " +
                  std::to_string(stripe_));
  }
}

namespace {

std::optional<FaultPlan> make_fault_plan(const EngineConfig& config,
                                         int num_disks) {
  std::optional<FaultPlan> plan;
  if (config.faults.enabled()) {
    plan.emplace(config.faults, config.seed, config.obs_label, num_disks);
  }
  return plan;
}

std::vector<Disk> make_disks(const ArrayGeometry& geometry,
                             const EngineConfig& config,
                             std::uint64_t disk_seed,
                             const std::optional<FaultPlan>& plan) {
  DiskParams dp = config.disk;
  dp.chunk_bytes = config.chunk_bytes;
  dp.capacity_chunks = geometry.disk_capacity_chunks();
  std::vector<Disk> disks;
  disks.reserve(static_cast<std::size_t>(geometry.num_disks()));
  for (int d = 0; d < geometry.num_disks(); ++d) {
    DiskParams per_disk = dp;
    if (plan.has_value()) {
      per_disk.service_multiplier = plan->service_multiplier(d);
    }
    disks.emplace_back(d, per_disk,
                       config.seed * disk_seed + static_cast<std::uint64_t>(d));
  }
  return disks;
}

}  // namespace

RunContext::RunContext(const codes::Layout& layout,
                       const ArrayGeometry& geometry,
                       const EngineConfig& config, std::uint64_t disk_seed,
                       const std::vector<workload::StripeError>& errors,
                       const std::vector<workload::AppRequest>& app_trace,
                       std::function<int(std::uint64_t)> spare_disk_override)
    : fault_plan(make_fault_plan(config, geometry.num_disks())),
      disks(make_disks(geometry, config, disk_seed, fault_plan)),
      injector(fault_plan.has_value() ? std::make_optional<FaultInjector>(
                                            *fault_plan, metrics.fault)
                                      : std::nullopt),
      app_injector(fault_plan.has_value() && !app_trace.empty()
                       ? std::make_optional<FaultInjector>(*fault_plan,
                                                           metrics.app_fault)
                       : std::nullopt),
      foreground(layout, geometry, disks, errors, app_trace, metrics,
                 app_injector.has_value() ? &*app_injector : nullptr,
                 std::move(spare_disk_override), config.write),
      throttle(config.throttle.enabled()
                   ? std::make_optional<RebuildThrottle>(config.throttle)
                   : std::nullopt),
      flush_ticks_on(foreground.write_path_active() &&
                     config.write.flush_interval_ms > 0.0),
      schemes(layout),
      geometry_(&geometry),
      errors_(&errors),
      observer_(config.observer),
      obs_label_(config.obs_label),
      cells_per_stripe_(static_cast<std::uint64_t>(layout.num_cells())),
      column_map_(static_cast<std::size_t>(layout.cols())) {}

int RunContext::column_on(std::uint64_t stripe, int disk) {
  geometry_->stripe_disks(stripe, column_map_);
  const auto it = std::find(column_map_.begin(), column_map_.end(), disk);
  return it == column_map_.end()
             ? -1
             : static_cast<int>(it - column_map_.begin());
}

SimMetrics RunContext::finish(std::uint64_t queue_regrowths,
                              std::uint64_t queue_pushes,
                              double last_event_ms) {
  metrics.event_queue_regrowths = queue_regrowths;
  metrics.event_queue_pushes = queue_pushes;
  // Terminal flush: remaining dirty lines reach disk at the time of the
  // last event (app write-backs drain like app traffic — they do not
  // extend the reconstruction makespan).
  foreground.finalize(last_event_ms);
  foreground.assert_drained();
  for (const Disk& d : disks) {
    metrics.disk_busy_ms.push_back(d.stats().busy_ms);
    metrics.disk_ops.push_back(d.stats().reads + d.stats().writes);
  }
  if (validation_enabled()) {
    validate_run(metrics, *errors_);
  }
  record_run(observer_, obs_label_, metrics,
             observer_ != nullptr ? &response_hist_ : nullptr);
  return std::move(metrics);
}

}  // namespace fbf::sim
