#include "sim/validate.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <span>

#include "util/check.h"

namespace fbf::sim {

namespace {

// The rows binding on a document's counters, or on a run's in-process terms.
void check_laws(const std::map<std::string, std::uint64_t>& terms,
                bool document) {
  const auto read = [&](std::string_view name) -> std::uint64_t {
    const auto it = terms.find(std::string(name));
    if (it != terms.end()) {
      return it->second;
    }
    const std::span<const RunCounter> counters = run_counters();
    const auto c = std::ranges::find(counters, name, &RunCounter::name);
    FBF_CHECK(document && c != counters.end(),
              "law term " + std::string(name) + " names no run counter");
    FBF_CHECK(c->group != CounterGroup::Always,
              "counter " + std::string(name) + " is missing");
    return 0;
  };
  const auto sum = [&](const std::vector<std::string_view>& side) {
    return std::transform_reduce(side.begin(), side.end(), std::uint64_t{0},
                                 std::plus<>(), read);
  };
  for (const Law& law : laws()) {
    // In process the write markers both read 1, so EveryRunWrote binds.
    if ((document && !law.twin) ||
        (law.gate == Gate::EveryRunWrote &&
         read("run.write.runs") != read("run.count")) ||
        (law.gate == Gate::NoAppTraffic && read("run.app_requests") > 0) ||
        (law.gate == Gate::Trace && terms.count("trace.errors") == 0)) {
      continue;
    }
    const std::uint64_t lhs = sum(law.lhs);
    const std::uint64_t rhs = sum(law.rhs);
    FBF_CHECK(law.relation == Relation::AtMost ? lhs <= rhs : lhs == rhs,
              "conservation law \"" + std::string(law.name) + "\" broken, " +
                  std::string(law.message) + " (" + std::to_string(lhs) +
                  " vs " + std::to_string(rhs) + ")");
  }
}

void check_run(const SimMetrics& m,
               const std::vector<workload::StripeError>* errors) {
  std::map<std::string, std::uint64_t> terms;
  for (const RunCounter& c : run_counters()) {
    terms.emplace(c.name, c.value(m));
  }
  terms["disk.busy_past_makespan"] = static_cast<std::uint64_t>(
      std::ranges::count_if(m.disk_busy_ms, [&](double ms) {
        return ms > m.reconstruction_ms + 1e-9;
      }));
  terms["disk.ops_total"] = std::accumulate(
      m.disk_ops.begin(), m.disk_ops.end(), std::uint64_t{0});
  if (errors != nullptr) {
    terms["trace.errors"] = errors->size();
    std::uint64_t& lost = terms["trace.lost_chunks"];
    for (const workload::StripeError& e : *errors) {
      lost += e.error.cells().size();
    }
  }
  check_laws(terms, /*document=*/false);
}

}  // namespace

const std::vector<Law>& laws() {
  // Columns: name, message, lhs, relation, rhs, twin, gate. Rows sharing a
  // term are ordered so that each row is the first one broken by a change to
  // one of its terms; tests rely on that to show every row fire.
  using enum Gate;
  using enum Relation;
  static const std::vector<Law> table = {
      {"consumption", "every chain consumption is a cache hit or a miss",
       {"run.cache_hits", "run.cache_misses"}, Equal,
       {"run.total_chunk_requests"}, true, Always},
      // A fault term is zero, or absent from a document, without injection.
      {"disk_reads", "every recovery read is planned, a miss, or a retry",
       {"run.disk_reads"}, Equal,
       {"run.planned_disk_reads", "run.cache_misses", "run.fault.retries"},
       true, Always},
      {"spare_writes", "every recovered chunk is spare-written exactly once",
       {"run.write.spare_writes"}, Equal, {"run.chunks_recovered"}, true,
       EveryRunWrote},
      {"flush", "every flushed dirty line pays exactly one write-back",
       {"run.write.flushed"}, Equal, {"run.write.write_backs"}, true, Always},
      // Spare writes enter as chunks_recovered, which the spare_writes row
      // equates with them on every run, so this row needs no gate.
      {"disk_writes", "every disk write is a spare, write-back or parity write",
       {"run.disk_writes"}, Equal,
       {"run.chunks_recovered", "run.write.write_backs",
        "run.write.parity_updates"},
       true, Always},
      {"dirty_lines", "every dirty line is flushed or lost to a disk failure",
       {"run.write.dirty_installed"}, Equal,
       {"run.write.flushed", "run.write.lost_dirty"}, true, Always},
      {"respared", "every respared spare copy is an extra lost chunk",
       {"run.fault.respared"}, AtMost, {"run.fault.extra_lost_chunks"}, true,
       Always},
      {"app_served", "every app request is served or parked and drained",
       {"run.app_requests"}, Equal,
       {"run.app.served", "run.app.parked_drained"}, true, Always},
      {"app_parked", "every parked app request is a degraded read or write",
       {"run.app.parked_drained"}, Equal,
       {"run.app_degraded_reads", "run.app.degraded_writes"}, true, Always},
      {"disk_busy", "no disk is busy past the reconstruction makespan",
       {"disk.busy_past_makespan"}, Equal, {}, false, NoAppTraffic},
      {"disk_ops", "per-disk op counts add up to the recovery totals",
       {"disk.ops_total"}, Equal, {"run.disk_reads", "run.disk_writes"},
       false, NoAppTraffic},
      // Definitional on DOR, which assigns stripes_recovered this very sum;
      // its completeness check is tasks_done == tasks.size().
      {"stripes", "every damaged stripe is recovered, once more per escalation",
       {"run.stripes_recovered"}, Equal,
       {"trace.errors", "run.fault.escalated_stripes"}, false, Trace},
      {"chunks", "every lost chunk is rebuilt exactly once",
       {"run.chunks_recovered"}, Equal,
       {"trace.lost_chunks", "run.fault.extra_lost_chunks"}, false, Trace},
  };
  return table;
}

void validate_metrics(const SimMetrics& m) { check_run(m, nullptr); }

void validate_run(const SimMetrics& m,
                  const std::vector<workload::StripeError>& errors) {
  check_run(m, &errors);
}

void validate_counters(const std::map<std::string, std::uint64_t>& counters) {
  check_laws(counters, /*document=*/true);
}

bool validation_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("FBF_VALIDATE");
    return v != nullptr && std::string(v) != "0";
  }();
  return enabled;
}

}  // namespace fbf::sim
