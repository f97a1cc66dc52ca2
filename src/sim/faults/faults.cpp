#include "sim/faults/faults.h"

#include <algorithm>
#include <numeric>

namespace fbf::sim {

namespace {

/// splitmix64 finalizer: full-avalanche mix so structured inputs (chunk
/// keys, small disk ids) spread over the whole 64-bit space.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Probability -> threshold over the uniform 64-bit hash space.
std::uint64_t rate_threshold(double rate) {
  if (rate <= 0.0) {
    return 0;
  }
  if (rate >= 1.0) {
    return ~std::uint64_t{0};
  }
  return static_cast<std::uint64_t>(rate * 18446744073709551616.0);
}

std::string cells_to_string(const std::vector<codes::Cell>& cells) {
  std::string out;
  for (const codes::Cell& c : cells) {
    if (!out.empty()) {
      out += ", ";
    }
    out += codes::to_string(c);
  }
  return out;
}

}  // namespace

EscalationError::EscalationError(std::uint64_t stripe,
                                 std::vector<codes::Cell> lost,
                                 std::vector<int> failed_disks)
    : CheckError([&] {
        std::string msg = "escalation beyond the 3DFT erasure budget: stripe " +
                          std::to_string(stripe) + " lost cells {" +
                          cells_to_string(lost) + "} are not decodable";
        if (!failed_disks.empty()) {
          msg += " (failed disks:";
          for (int d : failed_disks) {
            msg += " " + std::to_string(d);
          }
          msg += ")";
        }
        return msg;
      }()),
      stripe_(stripe),
      lost_(std::move(lost)),
      failed_disks_(std::move(failed_disks)) {}

FaultPlan::FaultPlan(const FaultConfig& config, std::uint64_t run_seed,
                     std::string_view run_label, int num_disks)
    : config_(config), num_disks_(num_disks) {
  FBF_CHECK(num_disks > 0, "fault plan needs at least one disk");
  FBF_CHECK(config.ure_rate >= 0.0 && config.ure_rate <= 1.0,
            "ure_rate must be a probability");
  FBF_CHECK(config.transient_rate >= 0.0 && config.transient_rate <= 1.0,
            "transient_rate must be a probability");
  FBF_CHECK(config.max_retries >= 0, "max_retries must be non-negative");
  FBF_CHECK(config.retry_backoff_ms >= 0.0,
            "retry_backoff_ms must be non-negative");
  FBF_CHECK(config.stragglers >= 0 && config.stragglers <= num_disks,
            "straggler count out of range");
  FBF_CHECK(config.straggler_factor > 0.0,
            "straggler_factor must be positive");

  const std::uint64_t seed = config.seed != 0 ? config.seed : run_seed;
  key_ = mix64(mix64(seed) ^ hash_label(run_label));
  ure_threshold_ = rate_threshold(config.ure_rate);
  transient_threshold_ = rate_threshold(config.transient_rate);

  // Stragglers: the `stragglers` disks with the smallest per-disk hash.
  multipliers_.assign(static_cast<std::size_t>(num_disks), 1.0);
  if (config.stragglers > 0) {
    std::vector<int> order(static_cast<std::size_t>(num_disks));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto ha = mix64(key_ ^ 0x5752a6c1u ^ static_cast<std::uint64_t>(a));
      const auto hb = mix64(key_ ^ 0x5752a6c1u ^ static_cast<std::uint64_t>(b));
      return ha < hb || (ha == hb && a < b);
    });
    for (int i = 0; i < config.stragglers; ++i) {
      multipliers_[static_cast<std::size_t>(order[static_cast<std::size_t>(
          i)])] = config.straggler_factor;
    }
  }

  // Whole-disk failures: explicit ids first, then deterministic distinct
  // draws for the remainder; never repeating an already-failed disk.
  if (!config.disk_failure_times_ms.empty()) {
    FBF_CHECK(config.disk_failure_disks.size() <=
                  config.disk_failure_times_ms.size(),
              "more disk_failure_disks than failure times");
    std::vector<bool> used(static_cast<std::size_t>(num_disks), false);
    for (int d : config.disk_failure_disks) {
      FBF_CHECK(d >= 0 && d < num_disks, "disk_failure_disks id out of range");
      FBF_CHECK(!used[static_cast<std::size_t>(d)],
                "duplicate disk_failure_disks id");
      used[static_cast<std::size_t>(d)] = true;
    }
    std::vector<int> order(static_cast<std::size_t>(num_disks));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto ha = mix64(key_ ^ 0xd15cfa11u ^ static_cast<std::uint64_t>(a));
      const auto hb = mix64(key_ ^ 0xd15cfa11u ^ static_cast<std::uint64_t>(b));
      return ha < hb || (ha == hb && a < b);
    });
    std::size_t next_draw = 0;
    for (std::size_t i = 0; i < config.disk_failure_times_ms.size(); ++i) {
      FBF_CHECK(config.disk_failure_times_ms[i] >= 0.0,
                "disk failure times must be non-negative");
      int d;
      if (i < config.disk_failure_disks.size()) {
        d = config.disk_failure_disks[i];
      } else {
        while (next_draw < order.size() &&
               used[static_cast<std::size_t>(order[next_draw])]) {
          ++next_draw;
        }
        FBF_CHECK(next_draw < order.size(),
                  "more disk failures than disks in the array");
        d = order[next_draw];
        used[static_cast<std::size_t>(d)] = true;
      }
      disk_failures_.push_back(
          DiskFailure{config.disk_failure_times_ms[i], d});
    }
    std::sort(disk_failures_.begin(), disk_failures_.end(),
              [](const DiskFailure& a, const DiskFailure& b) {
                return a.at_ms < b.at_ms ||
                       (a.at_ms == b.at_ms && a.disk < b.disk);
              });
  }
}

bool FaultPlan::sector_error(std::uint64_t chunk_key) const {
  if (ure_threshold_ == 0) {
    return false;
  }
  return mix64(key_ ^ (chunk_key * 0x9e3779b97f4a7c15ull) ^ 0x55e1u) <
         ure_threshold_;
}

bool FaultPlan::transient(std::uint64_t nonce) const {
  if (transient_threshold_ == 0) {
    return false;
  }
  return mix64(key_ ^ (nonce * 0xbf58476d1ce4e5b9ull) ^ 0x7247u) <
         transient_threshold_;
}

double FaultPlan::service_multiplier(int disk) const {
  return multipliers_[static_cast<std::size_t>(disk)];
}

std::uint64_t FaultPlan::straggler_count() const {
  return static_cast<std::uint64_t>(std::count_if(
      multipliers_.begin(), multipliers_.end(),
      [](double m) { return m != 1.0; }));
}

bool FaultPlan::disk_failed(int disk, double now) const {
  for (const DiskFailure& f : disk_failures_) {
    if (f.at_ms > now) {
      return false;  // sorted by time: later entries cannot match either
    }
    if (f.disk == disk) {
      return true;
    }
  }
  return false;
}

std::vector<int> FaultPlan::failed_disks_at(double now) const {
  std::vector<int> failed;
  for (const DiskFailure& f : disk_failures_) {
    if (f.at_ms <= now) {
      failed.push_back(f.disk);
    }
  }
  return failed;
}

FaultInjector::ReadOutcome FaultInjector::read(Disk& disk, double now,
                                               std::uint64_t lba,
                                               std::uint64_t chunk_key,
                                               bool original_location) {
  ReadOutcome out;
  // A failed disk times out after one full service slot; the attempt still
  // occupies the controller path, so it is a real submission.
  if (plan_->disk_failed(disk.id(), now)) {
    out.done_ms = disk.submit_read(now, lba);
    out.attempts = 1;
    ++stats_->dead_disk_reads;
    return out;
  }
  // A latent sector error is permanent: one attempt, no retries.
  if (original_location && plan_->sector_error(chunk_key)) {
    out.done_ms = disk.submit_read(now, lba);
    out.attempts = 1;
    ++stats_->sector_errors;
    return out;
  }
  double submit_at = now;
  for (;;) {
    // The disk may die between the backoff and the retry submission.
    if (out.attempts > 0 && plan_->disk_failed(disk.id(), submit_at)) {
      out.done_ms = disk.submit_read(submit_at, lba);
      ++out.attempts;
      ++stats_->dead_disk_reads;
      return out;
    }
    out.done_ms = disk.submit_read(submit_at, lba);
    ++out.attempts;
    if (!plan_->transient(transient_nonce_++)) {
      out.ok = true;
      return out;
    }
    ++stats_->transient_failures;
    if (out.attempts > plan_->config().max_retries) {
      return out;  // retry budget exhausted: hard failure
    }
    ++stats_->retries;
    submit_at = out.done_ms + plan_->config().retry_backoff_ms;
  }
}

int FaultInjector::spare_disk(int preferred, int pool_disks,
                              double now) const {
  int d = preferred;
  for (int hops = 0; plan_->disk_failed(d, now); ++hops) {
    FBF_CHECK(hops < pool_disks, "no live disk for spare write");
    d = (d + 1) % pool_disks;
  }
  return d;
}

}  // namespace fbf::sim
