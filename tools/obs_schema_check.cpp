// Validates the observability exporters' output files:
//
//   obs_schema_check <metrics.json> [--trace=<trace.json>]
//                    [--compare=<other_metrics.json>]
//
// Checks the metrics document against the fbf.metrics.v1 schema and the
// sim/validate.h law table, verifies every histogram's internal consistency,
// and optionally (a) validates a Chrome trace-event file's required fields
// and (b) compares two metrics files for byte-level determinism modulo the
// wall_clock block. The first violation prints one "obs_schema_check:
// <message>" line and exits 1; ci/tier1.sh runs this on every build config.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "sim/validate.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

using fbf::obs::json::Value;

Value load(const std::string& path) {
  std::ifstream ifs(path);
  FBF_CHECK(ifs.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << ifs.rdbuf();
  return fbf::obs::json::parse(buf.str());
}

const Value& field(const Value::Object& obj, const std::string& key,
                   const std::string& where) {
  const auto it = obj.find(key);
  FBF_CHECK(it != obj.end(), where + " is missing required key \"" + key +
                                 "\"");
  return it->second;
}

void check_metrics(const Value& doc) {
  FBF_CHECK(doc.is_object(), "metrics document is not a JSON object");
  const Value::Object& root = doc.as_object();
  const Value& schema = field(root, "schema", "metrics document");
  FBF_CHECK(schema.is_string() && schema.as_string() == "fbf.metrics.v1",
            "unexpected schema marker");
  for (const char* key : {"counters", "gauges", "histograms", "wall_clock"}) {
    FBF_CHECK(field(root, key, "metrics document").is_object(),
              std::string(key) + " is not an object");
  }

  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, v] :
       field(root, "counters", "metrics document").as_object()) {
    FBF_CHECK(v.is_number(), "counter " + name + " is not a number");
    counters[name] = static_cast<std::uint64_t>(v.as_number());
  }
  FBF_CHECK(counters["run.count"] > 0,
            "run.count must be positive — no runs were recorded");
  // Summing per-run integers is lossless, so a law the runs kept and the
  // document breaks is an exporter bug.
  fbf::sim::validate_counters(counters);

  const Value::Object& histograms =
      field(root, "histograms", "metrics document").as_object();
  for (const auto& [name, h] : histograms) {
    FBF_CHECK(h.is_object(), "histogram " + name + " is not an object");
    const Value::Object& hobj = h.as_object();
    const auto count =
        static_cast<std::uint64_t>(field(hobj, "count", name).as_number());
    const auto nonpositive = static_cast<std::uint64_t>(
        field(hobj, "nonpositive", name).as_number());
    const Value::Object& buckets =
        field(hobj, "log2_buckets", name).as_object();
    std::uint64_t in_buckets = 0;
    for (const auto& [exp, c] : buckets) {
      in_buckets += static_cast<std::uint64_t>(c.as_number());
    }
    FBF_CHECK(count == nonpositive + in_buckets,
              "histogram " + name + " count does not match its buckets");
  }
}

void check_trace(const Value& doc) {
  FBF_CHECK(doc.is_object(), "trace document is not a JSON object");
  const Value& events = field(doc.as_object(), "traceEvents", "trace");
  FBF_CHECK(events.is_array() && !events.as_array().empty(),
            "traceEvents must be a non-empty array");
  for (const Value& ev : events.as_array()) {
    FBF_CHECK(ev.is_object(), "trace event is not an object");
    const Value::Object& e = ev.as_object();
    for (const char* key : {"name", "ph", "pid", "tid"}) {
      field(e, key, "trace event");
    }
    if (field(e, "ph", "trace event").as_string() == "X") {
      field(e, "ts", "duration event");
      field(e, "dur", "duration event");
    }
  }
}

void check_compare(const Value& a, const Value& b) {
  // Determinism contract: everything except the explicitly nondeterministic
  // wall_clock block must match across same-seed runs.
  Value::Object lhs = a.as_object();
  Value::Object rhs = b.as_object();
  lhs.erase("wall_clock");
  rhs.erase("wall_clock");
  FBF_CHECK(Value(lhs) == Value(rhs),
            "metrics differ outside the wall_clock block — determinism "
            "contract violated");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fbf::util::Flags flags(argc, argv);
    flags.check_known({"trace", "compare"});
    FBF_CHECK(flags.positional().size() == 1,
              "usage: obs_schema_check <metrics.json> [--trace=<t.json>] "
              "[--compare=<other.json>]");

    const Value metrics = load(flags.positional()[0]);
    check_metrics(metrics);
    const std::string trace_path = flags.get_string("trace", "");
    if (!trace_path.empty()) {
      check_trace(load(trace_path));
    }
    const std::string compare_path = flags.get_string("compare", "");
    if (!compare_path.empty()) {
      check_compare(metrics, load(compare_path));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_schema_check: %s\n", e.what());
    return 1;
  }
  std::printf("schema check OK\n");
  return 0;
}
