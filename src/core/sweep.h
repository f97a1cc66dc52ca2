// Parameter sweeps over cache size x policy (the paper's figure axes),
// parallelized across a thread pool, plus the improvement arithmetic used
// by Table V.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/experiment.h"

namespace fbf::core {

/// One (cache size, policy) grid point of a figure.
struct SweepPoint {
  std::size_t cache_bytes = 0;
  cache::PolicyId policy = cache::PolicyId::Lru;
  ExperimentResult result;
};

/// Runs `base` at every cache size x policy combination. Deterministic:
/// results are ordered by (cache size, policy) regardless of scheduling.
std::vector<SweepPoint> run_sweep(const ExperimentConfig& base,
                                  const std::vector<std::size_t>& cache_sizes,
                                  const std::vector<cache::PolicyId>& policies,
                                  std::size_t threads = 0);

/// Default cache-size axis: powers of two from 2 MB to 2048 MB (the
/// paper's x-axis range).
std::vector<std::size_t> default_cache_sizes();

/// Coarser axis for quick runs.
std::vector<std::size_t> small_cache_sizes();

/// Selects the first grid point for (cache size, policy); aborts if
/// absent. A linear scan: a figure's grid holds at most a few dozen points.
const SweepPoint& find_point(const std::vector<SweepPoint>& points,
                             std::size_t cache_bytes,
                             cache::PolicyId policy);

/// Maximum relative improvement of FBF over `baseline` across cache sizes:
/// for "higher is better" metrics (hit ratio) returns max(fbf/base - 1);
/// for "lower is better" metrics (reads, times) returns max(1 - fbf/base).
/// Grid points whose baseline value is <= `min_base` are skipped so a
/// near-zero denominator cannot inflate the ratio. `min_base` must be
/// non-negative (checked); because metrics are non-negative, the single
/// `base <= min_base` test then also rejects zero baselines, and the
/// default of 0.0 skips exactly the degenerate zero-denominator points.
double max_improvement(const std::vector<SweepPoint>& points,
                       const std::vector<std::size_t>& cache_sizes,
                       cache::PolicyId baseline,
                       const std::function<double(const ExperimentResult&)>&
                           metric,
                       bool higher_is_better, double min_base = 0.0);

}  // namespace fbf::core
