// Engine-core macro benchmark: raw event-loop throughput of both
// simulator spines (SOR and DOR), measured as recovered stripes per
// wall-clock second and popped events per wall-clock second. This is the
// harness behind BENCH_engine.json — it deliberately bypasses the
// experiment layer and times ReconstructionEngine/DorEngine::run()
// directly, so the event queues, scheme memoization, and batched XOR
// dispatch show up undiluted by trace generation or report printing.
//
// Flags:
//   --engine=sor,dor   engines to time (default both)
//   --p=a,b,c          primes / array sizes (default 7,11,17)
//   --errors=N         damaged stripes per run (default 100000)
//   --workers=N        SOR worker processes (default 128)
//   --cache-mb=N       buffer cache size in MB (default 64)
//   --reps=N           timed repetitions; best wall is reported (default 3)
//   --seed=N           workload seed (default 42)
//   --csv              CSV instead of aligned text
//   --json-out=F       write the measured series as JSON
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "codes/builders.h"
#include "sim/array_geometry.h"
#include "sim/dor_engine.h"
#include "sim/reconstruction.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/errors.h"

namespace {

struct Row {
  std::string engine;
  int p = 0;
  int errors = 0;
  std::uint64_t stripes = 0;
  std::uint64_t events = 0;
  std::uint64_t pushes = 0;  ///< events that went through the event queue
  double wall_ms = 0.0;  ///< best of --reps
  double stripes_per_sec() const { return 1e3 * double(stripes) / wall_ms; }
  double events_per_sec() const { return 1e3 * double(events) / wall_ms; }
  /// Binaries predating SimMetrics::engine_events (the seed baseline this
  /// bench is diffed against) report 0 processed events. A real run always
  /// processes at least one event per stripe, so 0 means "counter absent",
  /// and the JSON emits null rather than a fake zero rate.
  bool events_known() const { return events != 0; }
};

template <typename RunFn>
Row time_engine(const std::string& name, int p, int errors, int reps,
                RunFn run) {
  Row row;
  row.engine = name;
  row.p = p;
  row.errors = errors;
  row.wall_ms = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const fbf::sim::SimMetrics m = run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    FBF_CHECK(m.stripes_recovered == std::uint64_t(errors),
              "engine dropped stripes");
    row.stripes = m.stripes_recovered;
    row.events = m.engine_events;
    row.pushes = m.event_queue_pushes;
    row.wall_ms = std::min(row.wall_ms, ms);
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  FBF_CHECK(out.good(), "cannot open --json-out file " + path);
  out << "{\n  \"description\": \"wall_ms is the best of the requested reps; "
         "stripes_per_sec = stripes/wall. events counts processed simulator "
         "events (engine_events); null means the binary under test predates "
         "the counter, not an event-free run. pushes counts event-queue "
         "pushes; with no app traffic every event is pushed once, so "
         "events = pushes\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"engine\": \"" << r.engine << "\", \"p\": " << r.p
        << ", \"errors\": " << r.errors << ", \"stripes\": " << r.stripes
        << ", \"events\": ";
    if (r.events_known()) {
      out << r.events;
    } else {
      out << "null";
    }
    out << ", \"pushes\": " << r.pushes;
    out << ", \"wall_ms\": " << fbf::util::fmt_double(r.wall_ms, 3)
        << ", \"stripes_per_sec\": "
        << fbf::util::fmt_double(r.stripes_per_sec(), 1)
        << ", \"events_per_sec\": ";
    if (r.events_known()) {
      out << fbf::util::fmt_double(r.events_per_sec(), 1);
    } else {
      out << "null";
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fbf;
  const util::Flags flags(argc, argv);
  flags.check_known({"engine", "p", "errors", "workers", "cache-mb", "reps",
                     "seed", "csv", "json-out"});

  const std::vector<std::string> engines =
      flags.get_string_list("engine", {"sor", "dor"});
  const int errors = static_cast<int>(flags.get_int("errors", 100000));
  const int workers = static_cast<int>(flags.get_int("workers", 128));
  const std::size_t cache_bytes =
      static_cast<std::size_t>(flags.get_int("cache-mb", 64)) << 20;
  const int reps = static_cast<int>(flags.get_int("reps", 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const bool csv = flags.get_bool("csv", false);
  const std::string json_out = flags.get_string("json-out", "");
  FBF_CHECK(reps >= 1, "--reps must be >= 1");

  std::vector<Row> rows;
  for (std::int64_t p64 : flags.get_int_list("p", {7, 11, 17})) {
    const int p = static_cast<int>(p64);
    const codes::Layout l = codes::make_layout(codes::CodeId::Tip, p);
    const std::uint64_t num_stripes =
        std::max<std::uint64_t>(1u << 20, 4ull * std::uint64_t(errors));
    const sim::ArrayGeometry g(l, num_stripes, true,
                               sim::SparePlacement::Distributed);
    workload::ErrorTraceConfig tc;
    tc.num_stripes = num_stripes;
    tc.num_errors = errors;
    tc.target_col = 0;
    tc.seed = seed;
    const auto trace = workload::generate_error_trace(l, tc);

    for (const std::string& engine : engines) {
      if (engine == "sor") {
        sim::ReconstructionConfig cfg;
        cfg.workers = workers;
        cfg.cache_bytes = cache_bytes;
        cfg.seed = seed;
        rows.push_back(time_engine("sor", p, errors, reps, [&] {
          sim::ReconstructionEngine e(l, g, cfg);
          return e.run(trace);
        }));
      } else if (engine == "dor") {
        sim::DorConfig cfg;
        cfg.cache_bytes = cache_bytes;
        cfg.seed = seed;
        rows.push_back(time_engine("dor", p, errors, reps, [&] {
          sim::DorEngine e(l, g, cfg);
          return e.run(trace);
        }));
      } else {
        FBF_CHECK(false, "--engine must list sor and/or dor, got " + engine);
      }
    }
  }

  util::Table table("Engine-core throughput (best of " +
                    std::to_string(reps) + " reps)");
  table.headers({"engine", "p", "errors", "events", "pushes", "wall_ms",
                 "stripes/s", "events/s"});
  for (const Row& r : rows) {
    table.add_row({r.engine, std::to_string(r.p), std::to_string(r.errors),
                   r.events_known() ? std::to_string(r.events) : "-",
                   std::to_string(r.pushes),
                   util::fmt_double(r.wall_ms, 1),
                   util::fmt_double(r.stripes_per_sec(), 0),
                   r.events_known() ? util::fmt_double(r.events_per_sec(), 0)
                                    : "-"});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (!json_out.empty()) {
    write_json(json_out, rows);
  }
  return 0;
}
