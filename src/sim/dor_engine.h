// Disk-Oriented Reconstruction (paper §III-B): one reader process per
// disk streams the planned recovery reads in LBA order, a writer path
// persists recovered chunks, and a single shared buffer cache holds
// chunks until every chain that needs them has consumed them.
//
// Contrast with the SOR engine (reconstruction.h): there, workers own
// stripes and issue demand reads chain by chain; here, reads are
// *planned* per disk up front (each distinct chunk fetched once), and
// cache pressure shows up as chunks evicted before all their chains have
// consumed them, forcing re-reads. The same FBF priority dictionary
// governs which chunks survive. A chain consumes its freshly delivered
// member before re-checking the rest, so every wake-up makes progress
// even when the buffer is smaller than the chain (see attempt_completion
// in dor_engine.cpp); the buffer must hold at least one chunk.
//
// Accounting: disk_reads = planned reads + re-reads; cache hits/misses
// count chain *consumptions* (a consumption hit = the chunk was still
// buffered when its chain completed; a miss = it had been evicted and
// must be fetched again). The paper's hit-ratio metric carries over with
// this consumption semantics.
#pragma once

#include <vector>

#include "cache/policy.h"
#include "recovery/scheme_cache.h"
#include "sim/array_geometry.h"
#include "sim/disk.h"
#include "sim/faults/faults.h"
#include "sim/foreground.h"
#include "sim/metrics.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::obs {
class RunObserver;
}  // namespace fbf::obs

namespace fbf::sim {

struct DorConfig {
  recovery::SchemeKind scheme = recovery::SchemeKind::RoundRobin;
  cache::PolicyId policy = cache::PolicyId::Fbf;

  std::size_t cache_bytes = 256ull << 20;
  std::size_t chunk_bytes = 32 * 1024;

  double cache_access_ms = 0.5;
  double xor_ms_per_chunk = 0.05;
  DiskParams disk;
  std::uint64_t seed = 1;

  /// Fault injection (sim/faults). Disabled by default; when
  /// faults.enabled() is false the engine takes the exact pre-fault code
  /// path and produces byte-identical metrics.
  FaultConfig faults;

  /// Recovery throttling (sim/foreground.h): planned/re-read submissions
  /// draw from a token bucket so foreground traffic sees shorter disk
  /// queues. Disabled by default (byte-identical to the unthrottled
  /// engine).
  ThrottleConfig throttle;

  /// Foreground write path (sim/foreground.h): parity-update planner +
  /// dirty write-back cache. Disabled by default (byte-identical to the
  /// legacy synchronous-RMW engine).
  WritePathConfig write;

  /// Carry real chunk bytes through the recovery and byte-verify every
  /// recovered chunk against ground truth (mirrors
  /// ReconstructionConfig::verify_data). Each completed chain folds and
  /// compares as it completes; Gauss tasks solve via decode_erasures.
  bool verify_data = false;
  std::size_t verify_chunk_bytes = 64;

  /// Optional run-level observability sink (not owned); see
  /// ReconstructionConfig::observer.
  obs::RunObserver* observer = nullptr;
  std::string obs_label = "run.dor";

  std::size_t cache_capacity_chunks() const {
    return cache_bytes / chunk_bytes;
  }
};

class DorEngine {
 public:
  DorEngine(const codes::Layout& layout, const ArrayGeometry& geometry,
            const DorConfig& config);

  /// Simulates recovery of all damaged stripes, plus optional foreground
  /// application traffic mirroring SOR's: arrivals stream in beside the
  /// event window in arrival order and are served by the shared
  /// ForegroundServer (foreground.h — parking, spare remap, RMW,
  /// deadlines). App requests bypass the recovery buffer (it holds chain
  /// members mid-fold, not user data), so the consumption-accounting laws
  /// are untouched. A stripe
  /// counts as repaired — releasing its parked requests — when the last of
  /// its traced losses has a persisted spare copy.
  ///
  /// The loop (DESIGN §14): pending events wait in a sorted window that
  /// lets the loop prefetch several pops ahead, dense chunk ids replace a
  /// hash map, completions touch the cache in one batch, and installs
  /// batch between cache reads.
  SimMetrics run(const std::vector<workload::StripeError>& errors,
                 const std::vector<workload::AppRequest>& app_trace = {});

 private:
  const codes::Layout* layout_;
  const ArrayGeometry* geometry_;
  DorConfig config_;
};

}  // namespace fbf::sim
