#include "core/sweep.h"

#include <algorithm>

#include "obs/observer.h"
#include "util/check.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace fbf::core {

std::vector<SweepPoint> run_sweep(const ExperimentConfig& base,
                                  const std::vector<std::size_t>& cache_sizes,
                                  const std::vector<cache::PolicyId>& policies,
                                  std::size_t threads) {
  std::vector<SweepPoint> points;
  points.reserve(cache_sizes.size() * policies.size());
  for (std::size_t size : cache_sizes) {
    for (cache::PolicyId policy : policies) {
      SweepPoint p;
      p.cache_bytes = size;
      p.policy = policy;
      points.push_back(p);
    }
  }
  util::ThreadPool pool(threads);
  util::parallel_for(pool, points.size(), [&](std::size_t i) {
    ExperimentConfig cfg = base;
    cfg.cache_bytes = points[i].cache_bytes;
    cfg.policy = points[i].policy;
    const bool tr = obs::tracing(base.obs, obs::TraceLevel::Phases);
    const double ts = tr ? base.obs->trace().wall_now_us() : 0.0;
    points[i].result = run_experiment(cfg);
    if (tr) {
      base.obs->trace().duration(
          obs::kPidWall, static_cast<std::uint32_t>(i),
          "sweep " + std::string(cache::to_string(cfg.policy)) + " " +
              util::fmt_bytes(cfg.cache_bytes),
          "sweep", ts, base.obs->trace().wall_now_us() - ts);
    }
  });
  return points;
}

std::vector<std::size_t> default_cache_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t mb = 2; mb <= 2048; mb *= 2) {
    sizes.push_back(mb << 20);
  }
  return sizes;
}

std::vector<std::size_t> small_cache_sizes() {
  return {2ull << 20, 8ull << 20, 32ull << 20, 128ull << 20, 512ull << 20,
          2048ull << 20};
}

const SweepPoint& find_point(const std::vector<SweepPoint>& points,
                             std::size_t cache_bytes,
                             cache::PolicyId policy) {
  const auto it = std::find_if(
      points.begin(), points.end(), [&](const SweepPoint& p) {
        return p.cache_bytes == cache_bytes && p.policy == policy;
      });
  FBF_CHECK(it != points.end(), "sweep point not found");
  return *it;
}

double max_improvement(const std::vector<SweepPoint>& points,
                       const std::vector<std::size_t>& cache_sizes,
                       cache::PolicyId baseline,
                       const std::function<double(const ExperimentResult&)>&
                           metric,
                       bool higher_is_better, double min_base) {
  FBF_CHECK(min_base >= 0.0, "max_improvement min_base must be non-negative");
  double best = 0.0;
  for (std::size_t size : cache_sizes) {
    const double fbf =
        metric(find_point(points, size, cache::PolicyId::Fbf).result);
    const double base = metric(find_point(points, size, baseline).result);
    // min_base >= 0 is checked above, so this single test also rejects
    // zero and negative baselines.
    if (base <= min_base) {
      continue;
    }
    const double improvement =
        higher_is_better ? fbf / base - 1.0 : 1.0 - fbf / base;
    best = std::max(best, improvement);
  }
  return best;
}

}  // namespace fbf::core
