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
// even when the buffer is smaller than the chain (see
// DorRun::attempt_completion in dor_engine.cpp); the buffer must hold at
// least one chunk.
//
// Accounting: disk_reads = planned reads + re-reads; cache hits/misses
// count chain *consumptions* (a consumption hit = the chunk was still
// buffered when its chain completed; a miss = it had been evicted and
// must be fetched again). The paper's hit-ratio metric carries over with
// this consumption semantics.
#pragma once

#include <vector>

#include "sim/array_geometry.h"
#include "sim/metrics.h"
#include "sim/run_context.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::sim {

struct DorConfig : EngineConfig {
  DorConfig() : DorConfig(EngineConfig{}) {}
  /// The shared fields from `shared`. DOR has no fields of its own; it
  /// reads no SOR-only knob (workers, scheme memoization).
  explicit DorConfig(const EngineConfig& shared) : EngineConfig(shared) {
    if (obs_label.empty()) {
      obs_label = "run.dor";
    }
  }

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
  /// Each call builds a per-run DorRun (dor_engine.cpp) and drops it at
  /// the end, so every run of one engine starts from the same state, as
  /// SOR's SorRun does. Its loop (DESIGN §14): pending events wait in a
  /// sorted window that lets the loop prefetch several pops ahead, dense
  /// chunk ids replace a hash map, completions touch the cache in one
  /// batch, and installs batch between cache reads.
  SimMetrics run(const std::vector<workload::StripeError>& errors,
                 const std::vector<workload::AppRequest>& app_trace = {});

 private:
  const codes::Layout* layout_;
  const ArrayGeometry* geometry_;
  DorConfig config_;
};

}  // namespace fbf::sim
