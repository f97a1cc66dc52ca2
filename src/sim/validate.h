// The conservation laws both reconstruction engines obey on every run,
// declared once as the rows of laws(). A row compares two sums of terms
// named by their exported run.* counter names (RunCounter, sim/metrics.h)
// or by one of four in-process terms no metrics document carries:
// disk.busy_past_makespan, disk.ops_total, trace.errors, trace.lost_chunks.
// validate_run reads every counter from its SimMetrics field, exported or
// not, and rejects a term it cannot name. validate_counters evaluates the
// rows with a twin on a metrics document (obs_schema_check), where a
// missing counter of a gated group reads as zero.
//
// Setting the FBF_VALIDATE environment variable to anything but "0" makes
// both engines validate each run() before returning, so any full-scale
// sweep can be replayed as a self-checking one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.h"
#include "workload/errors.h"

namespace fbf::sim {

/// Which runs and documents a law binds on.
enum class Gate : std::uint8_t {
  Always,
  /// On a document, only when every run in it exported the write group
  /// (run.write.runs == run.count), whose sums leave the other runs out.
  EveryRunWrote,
  /// Runs without app traffic, whose ops share the disks but are metered
  /// apart from disk_reads and disk_writes and may outlast the makespan.
  NoAppTraffic,
  Trace,  ///< validate_run only: a side reads the error trace
};

enum class Relation : std::uint8_t { Equal, AtMost };

/// sum(lhs) == sum(rhs), or sum(lhs) <= sum(rhs); an empty side sums to 0.
struct Law {
  std::string_view name;
  std::string_view message;
  std::vector<std::string_view> lhs;
  Relation relation;
  std::vector<std::string_view> rhs;
  bool twin;  ///< also evaluated on documents: every term is exported
  Gate gate;
};

/// The law table. A check throws CheckError naming the first law broken.
const std::vector<Law>& laws();

/// Every row but the Trace ones, on one run.
void validate_metrics(const SimMetrics& m);

/// Every row on one run, the Trace rows reading `errors`.
void validate_run(const SimMetrics& m,
                  const std::vector<workload::StripeError>& errors);

/// The rows with a twin on a metrics document's counters.
void validate_counters(const std::map<std::string, std::uint64_t>& counters);

/// True when the FBF_VALIDATE environment variable enables per-run
/// validation inside the engines (cached on first call).
bool validation_enabled();

}  // namespace fbf::sim
