// Cross-engine conservation laws (sim/validate.h): both engines must
// satisfy the same accounting identities on every run, and validation
// must reject metrics that break them.
#include "sim/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>

#include "codes/builders.h"
#include "obs/observer.h"
#include "sim/dor_engine.h"
#include "sim/reconstruction.h"
#include "util/check.h"
#include "workload/app_trace.h"

namespace fbf::sim {
namespace {

std::vector<workload::StripeError> make_trace(const codes::Layout& l,
                                              int n_errors,
                                              std::uint64_t seed = 5) {
  workload::ErrorTraceConfig cfg;
  cfg.num_stripes = 10000;
  cfg.num_errors = n_errors;
  cfg.target_col = 0;
  cfg.seed = seed;
  return workload::generate_error_trace(l, cfg);
}

constexpr std::size_t kSorWorkers = 4;

SimMetrics run_sor(const codes::Layout& l, const ArrayGeometry& g,
                   const std::vector<workload::StripeError>& errors,
                   cache::PolicyId policy, std::size_t cache_chunks,
                   recovery::SchemeKind scheme =
                       recovery::SchemeKind::RoundRobin) {
  ReconstructionConfig cfg;
  cfg.workers = static_cast<int>(kSorWorkers);
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = cache_chunks * cfg.chunk_bytes;
  cfg.policy = policy;
  cfg.scheme = scheme;
  cfg.seed = 11;
  ReconstructionEngine engine(l, g, cfg);
  return engine.run(errors);
}

SimMetrics run_dor(const codes::Layout& l, const ArrayGeometry& g,
                   const std::vector<workload::StripeError>& errors,
                   cache::PolicyId policy, std::size_t cache_chunks,
                   recovery::SchemeKind scheme =
                       recovery::SchemeKind::RoundRobin) {
  DorConfig cfg;
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = cache_chunks * cfg.chunk_bytes;
  cfg.policy = policy;
  cfg.scheme = scheme;
  cfg.seed = 11;
  DorEngine engine(l, g, cfg);
  return engine.run(errors);
}

// The loaded runs' app traffic: reads and rewrites arriving fast enough to
// queue behind the rebuild.
std::vector<workload::AppRequest> loaded_apps(const codes::Layout& l) {
  workload::AppTraceConfig ac;
  ac.num_stripes = 10000;
  ac.num_requests = 300;
  ac.read_fraction = 0.5;
  ac.rewrite_fraction = 0.3;
  ac.mean_interarrival_ms = 0.5;
  return workload::generate_app_trace(l, ac);
}

// Every layer at once: UREs, stragglers, a mid-run disk failure, a recovery
// throttle and the write path.
EngineConfig loaded_config() {
  EngineConfig c;
  c.cache_bytes = 64 * 32 * 1024;
  c.seed = 11;
  c.faults.ure_rate = 0.01;
  c.faults.stragglers = 2;
  c.faults.straggler_factor = 3.0;
  c.faults.disk_failure_times_ms = {150.0};
  c.throttle.rebuild_reads_per_sec = 800.0;
  c.write.cache_chunks = 32;
  c.write.flush_interval_ms = 25.0;
  return c;
}

TEST(Invariants, SorSatisfiesConservationLaws) {
  for (cache::PolicyId policy :
       {cache::PolicyId::Fbf, cache::PolicyId::Lru, cache::PolicyId::Arc}) {
    const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
    const ArrayGeometry g(l, 10000);
    const auto errors = make_trace(l, 40);
    const SimMetrics m = run_sor(l, g, errors, policy, 64);
    EXPECT_NO_THROW(validate_run(m, errors));
    EXPECT_EQ(m.planned_disk_reads, 0u);  // SOR reads are all demand misses
  }
}

TEST(Invariants, DorSatisfiesConservationLaws) {
  for (cache::PolicyId policy :
       {cache::PolicyId::Fbf, cache::PolicyId::TwoQ, cache::PolicyId::Lfu}) {
    const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
    const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
    const auto errors = make_trace(l, 30);
    const SimMetrics m = run_dor(l, g, errors, policy, 16);
    EXPECT_NO_THROW(validate_run(m, errors));
    // The streaming plan fetches each distinct surviving chunk once; every
    // extra read is a consumption miss.
    EXPECT_GT(m.planned_disk_reads, 0u);
    EXPECT_EQ(m.disk_reads, m.planned_disk_reads + m.cache.misses);
  }
}

TEST(Invariants, HoldAcrossAllCodesAndSchemes) {
  for (codes::CodeId id : codes::kAllCodes) {
    const codes::Layout l = codes::make_layout(id, 5);
    const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
    const auto errors = make_trace(l, 12);
    for (recovery::SchemeKind kind : {recovery::SchemeKind::HorizontalFirst,
                                      recovery::SchemeKind::RoundRobin,
                                      recovery::SchemeKind::GreedyMinIO}) {
      {
        ReconstructionConfig cfg;
        cfg.workers = 2;
        cfg.chunk_bytes = 32 * 1024;
        cfg.cache_bytes = 32 * cfg.chunk_bytes;
        cfg.scheme = kind;
        ReconstructionEngine engine(l, g, cfg);
        const SimMetrics m = engine.run(errors);
        EXPECT_NO_THROW(validate_run(m, errors)) << l.name();
      }
      {
        DorConfig cfg;
        cfg.chunk_bytes = 32 * 1024;
        cfg.cache_bytes = 32 * cfg.chunk_bytes;
        cfg.scheme = kind;
        DorEngine engine(l, g, cfg);
        const SimMetrics m = engine.run(errors);
        EXPECT_NO_THROW(validate_run(m, errors)) << l.name();
      }
    }
  }
}

TEST(Invariants, FaultFreeEnginesAgree) {
  // Without faults both schedules recover the same losses with the same
  // memoized schemes, whatever order they read in, so each count they
  // share must agree. DOR's planning is checked against SOR here, not
  // against DOR's own goldens: DOR's hits count every chain-member
  // reference once (a miss is re-read and consumed again), which is
  // SOR's request count, and its planned reads, one per distinct
  // surviving chunk of each stripe, are a floor under SOR's reads. When
  // the cache evicts nothing, nothing is read twice, and the floor is
  // every engine's read count.
  for (codes::CodeId code : {codes::CodeId::Tip, codes::CodeId::Star,
                             codes::CodeId::TripleStar, codes::CodeId::Hdd1}) {
    for (int p : {5, 7}) {
      const codes::Layout l = codes::make_layout(code, p);
      const ArrayGeometry g(l, 10000);
      workload::ErrorTraceConfig tc;
      tc.num_stripes = 10000;
      tc.num_errors = 60;
      tc.target_col = -1;  // random columns: parity chunks are lost too
      tc.seed = 5;
      const auto errors = workload::generate_error_trace(l, tc);
      // Room for every chunk of the trace in each SOR worker's share.
      const std::size_t ample = kSorWorkers * errors.size() *
                                static_cast<std::size_t>(l.num_cells());
      for (recovery::SchemeKind scheme :
           {recovery::SchemeKind::RoundRobin,
            recovery::SchemeKind::HorizontalFirst}) {
        for (cache::PolicyId policy :
             {cache::PolicyId::Fbf, cache::PolicyId::Lru}) {
          for (std::size_t chunks : {std::size_t{8}, ample}) {
            SCOPED_TRACE(l.name() + " " + recovery::to_string(scheme) + " " +
                         std::string(cache::to_string(policy)) + " " +
                         std::to_string(chunks) + " chunks");
            const SimMetrics sor =
                run_sor(l, g, errors, policy, chunks, scheme);
            const SimMetrics dor =
                run_dor(l, g, errors, policy, chunks, scheme);
            EXPECT_EQ(dor.chunks_recovered, sor.chunks_recovered);
            EXPECT_EQ(dor.stripes_recovered, sor.stripes_recovered);
            EXPECT_EQ(dor.disk_writes, sor.disk_writes);
            EXPECT_EQ(dor.schemes_generated, sor.schemes_generated);
            EXPECT_EQ(dor.scheme_cache_hits, sor.scheme_cache_hits);
            EXPECT_EQ(dor.cache.hits, sor.total_chunk_requests);
            EXPECT_GE(sor.disk_reads, dor.planned_disk_reads);
            if (chunks == ample) {
              EXPECT_EQ(sor.disk_reads, dor.planned_disk_reads);
              EXPECT_EQ(dor.disk_reads, dor.planned_disk_reads);
            }
          }
        }
      }
    }
  }
}

TEST(Invariants, SorWithAppTrafficStillValidates) {
  // Foreground ops land on the disks but are metered separately; the
  // per-disk cross-checks relax, the recovery identities must still hold.
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 20);
  workload::AppTraceConfig app_cfg;
  app_cfg.num_stripes = 10000;
  app_cfg.num_requests = 500;
  const auto app = workload::generate_app_trace(l, app_cfg);
  ReconstructionConfig cfg;
  cfg.workers = 4;
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = 64 * cfg.chunk_bytes;
  ReconstructionEngine engine(l, g, cfg);
  const SimMetrics m = engine.run(errors, app);
  ASSERT_EQ(m.app_requests, 500u);
  EXPECT_NO_THROW(validate_run(m, errors));
}

// The law table's rows, by name. Each list below names the rows a run or
// document binds, so deleting or renaming a row fails the tests that use it.
const std::set<std::string> kTwinEqualities = {
    "consumption", "disk_reads",  "spare_writes", "flush",
    "disk_writes", "dirty_lines", "app_served",   "app_parked"};
const std::set<std::string> kLoadedLaws = {
    "consumption", "disk_reads", "spare_writes", "flush",
    "disk_writes", "dirty_lines", "respared",    "app_served",
    "app_parked",  "stripes",     "chunks"};
const std::set<std::string> kPerDiskLaws = {"disk_busy", "disk_ops"};

/// The law a check's CheckError names ("" when it passes).
template <typename Check>
std::string law_broken_by(Check&& check) {
  try {
    check();
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("law \"");
    if (at == std::string::npos) {
      return what;
    }
    const std::size_t begin = at + 5;
    return what.substr(begin, what.find('"', begin) - begin);
  }
  return "";
}

/// Breaks the SimMetrics term `term` names in `m`; false for the trace
/// terms, which no SimMetrics field carries. The bump is large enough to
/// overrun the slack a `<=` row may leave.
bool bump(SimMetrics& m, std::string_view term) {
  constexpr std::uint64_t kBump = 1u << 20;
  const std::span<const RunCounter> counters = run_counters();
  const auto c = std::ranges::find(counters, term, &RunCounter::name);
  if (c != counters.end() && c->field != nullptr) {
    *const_cast<std::uint64_t*>(c->field(m)) += kBump;
    return true;
  }
  if (term == "disk.busy_past_makespan") {
    m.disk_busy_ms.at(0) = m.reconstruction_ms + 1.0;
    return true;
  }
  if (term == "disk.ops_total") {
    m.disk_ops.at(0) += kBump;
    return true;
  }
  return false;
}

/// Bumps, one at a time, every SimMetrics term of every row that binds on
/// `good` and returns the laws validate_run reports.
std::set<std::string> laws_fired_in_process(
    const SimMetrics& good, const std::vector<workload::StripeError>& errors) {
  std::set<std::string> fired;
  for (const Law& law : laws()) {
    if (law.gate == Gate::NoAppTraffic && good.app_requests > 0) {
      continue;
    }
    for (const auto* side : {&law.lhs, &law.rhs}) {
      for (std::string_view term : *side) {
        SimMetrics m = good;
        if (!bump(m, term)) {
          continue;
        }
        const std::string name =
            law_broken_by([&] { validate_run(m, errors); });
        EXPECT_NE(name, "") << term << " bumped, yet validate_run passed";
        fired.insert(name);
      }
    }
  }
  return fired;
}

/// The run.* counters record_run exports for `m`.
std::map<std::string, std::uint64_t> document(const SimMetrics& m) {
  obs::RunObserver observer;
  record_run(&observer, "run", m, nullptr);
  return observer.registry().counters_snapshot();
}

/// Bumps, one at a time, every exported term of every equality with a twin
/// and returns the laws validate_counters reports.
std::set<std::string> laws_fired_on_document(
    const std::map<std::string, std::uint64_t>& good) {
  std::set<std::string> fired;
  for (const Law& law : laws()) {
    if (!law.twin || law.relation != Relation::Equal) {
      continue;
    }
    for (const auto* side : {&law.lhs, &law.rhs}) {
      for (std::string_view term : *side) {
        auto counters = good;
        const auto it = counters.find(std::string(term));
        if (it == counters.end()) {
          continue;  // a gated group this run did not export
        }
        ++it->second;
        const std::string name =
            law_broken_by([&] { validate_counters(counters); });
        EXPECT_NE(name, "") << term << " bumped, yet the document passed";
        fired.insert(name);
      }
    }
  }
  return fired;
}

TEST(Invariants, ValidateRejectsCorruptedMetrics) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 15);
  const SimMetrics good = run_sor(l, g, errors, cache::PolicyId::Fbf, 32);
  ASSERT_NO_THROW(validate_run(good, errors));

  SimMetrics m = good;
  m.disk_reads += 1;  // a read no miss accounts for
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.cache.hits += 1;  // a consumption out of thin air
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.disk_writes += 1;  // a spare write with no recovered chunk
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.reconstruction_ms = 0.0;  // disks busy past the claimed makespan
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.stripes_recovered -= 1;  // a damaged stripe left unrecovered
  EXPECT_THROW(validate_run(m, errors), util::CheckError);

  m = good;
  m.chunks_recovered += 1;  // more rebuilt chunks than the trace lost
  EXPECT_THROW(validate_run(m, errors), util::CheckError);

  // Every row fires, in process and on the exported document, on this
  // recovery-only run and on a loaded one.
  std::set<std::string> all = kLoadedLaws;
  all.insert(kPerDiskLaws.begin(), kPerDiskLaws.end());
  EXPECT_EQ(laws_fired_in_process(good, errors), all);
  EXPECT_EQ(laws_fired_on_document(document(good)),
            (std::set<std::string>{"consumption", "disk_reads", "disk_writes",
                                   "app_served", "app_parked"}));

  const codes::Layout tip7 = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry wide(tip7, 10000, /*rotate_columns=*/true,
                           SparePlacement::Distributed);
  const auto loaded_errors = make_trace(tip7, 30);
  const SimMetrics loaded = DorEngine(tip7, wide, DorConfig(loaded_config()))
                                .run(loaded_errors, loaded_apps(tip7));
  ASSERT_GT(loaded.fault.escalated_stripes, 0u);
  ASSERT_GT(loaded.write.parity_updates, 0u);
  ASSERT_NO_THROW(validate_run(loaded, loaded_errors));
  EXPECT_EQ(laws_fired_in_process(loaded, loaded_errors), kLoadedLaws);
  EXPECT_EQ(laws_fired_on_document(document(loaded)), kTwinEqualities);
}

TEST(Invariants, WriteGateAdmitsMixedDocuments) {
  // run.write.* sums only the runs that exported it, so a document mixing
  // write-path runs with runs without it must not hold
  // run.write.spare_writes to run.chunks_recovered.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, /*rotate_columns=*/true,
                        SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  obs::RunObserver observer;
  record_run(&observer, "write",
             DorEngine(l, g, DorConfig(loaded_config()))
                 .run(errors, loaded_apps(l)),
             nullptr);
  record_run(&observer, "recovery",
             run_dor(l, g, errors, cache::PolicyId::Fbf, 64), nullptr);
  const auto counters = observer.registry().counters_snapshot();
  ASSERT_EQ(counters.at("run.count"), 2u);
  ASSERT_EQ(counters.at("run.write.runs"), 1u);
  ASSERT_LT(counters.at("run.write.spare_writes"),
            counters.at("run.chunks_recovered"));
  EXPECT_NO_THROW(validate_counters(counters));
}

TEST(Invariants, DorTerminatesWithBufferSmallerThanChain) {
  // Regression: before attempt_completion consumed the freshly delivered
  // member first, these configurations livelocked — every completion
  // round's miss-inserts evicted the fresh chunk before its turn (LFU
  // keeps high-frequency keys over fresh freq-1 arrivals even at 16
  // chunks), so the same member set was re-read forever.
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 10);
  for (cache::PolicyId policy :
       {cache::PolicyId::Lfu, cache::PolicyId::TwoQ, cache::PolicyId::Fbf,
        cache::PolicyId::Lru}) {
    const SimMetrics m = run_dor(l, g, errors, policy, 1);
    EXPECT_NO_THROW(validate_run(m, errors));
    EXPECT_EQ(m.stripes_recovered, errors.size());
  }
}

TEST(Invariants, DorRejectsZeroCapacityBuffer) {
  // A zero-chunk buffer livelocks DOR (every consumption misses and
  // re-enqueues forever), so the constructor must refuse it.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 100);
  DorConfig cfg;
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = cfg.chunk_bytes - 1;  // rounds down to zero chunks
  EXPECT_THROW(DorEngine(l, g, cfg), util::CheckError);
}

TEST(Invariants, DorDiskReadsMonotoneUnderShrinkingBuffer) {
  // Shrinking the shared buffer can only force more re-reads, never fewer,
  // and consumption hit ratio can only fall.
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  std::uint64_t prev_reads = 0;
  double prev_hit_ratio = 1.0;
  bool first = true;
  for (std::size_t chunks : {4096u, 256u, 64u, 16u, 4u, 1u}) {
    const SimMetrics m = run_dor(l, g, errors, cache::PolicyId::Fbf, chunks);
    EXPECT_NO_THROW(validate_run(m, errors)) << "buffer " << chunks;
    if (!first) {
      EXPECT_GE(m.disk_reads, prev_reads) << "buffer " << chunks;
      EXPECT_LE(m.cache.hit_ratio(), prev_hit_ratio) << "buffer " << chunks;
    }
    first = false;
    prev_reads = m.disk_reads;
    prev_hit_ratio = m.cache.hit_ratio();
  }
}

TEST(Invariants, SorDiskReadsMonotoneUnderShrinkingCache) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 40);
  std::uint64_t prev_reads = 0;
  bool first = true;
  for (std::size_t chunks : {4096u, 512u, 64u, 8u, 0u}) {
    const SimMetrics m = run_sor(l, g, errors, cache::PolicyId::Fbf, chunks);
    EXPECT_NO_THROW(validate_run(m, errors)) << "cache " << chunks;
    if (!first) {
      EXPECT_GE(m.disk_reads, prev_reads) << "cache " << chunks;
    }
    first = false;
    prev_reads = m.disk_reads;
  }
}

TEST(Invariants, ProcessedEventsWereQueuedOrStreamed) {
  // Each event a run loop processes went through the event queue (one push,
  // one pop), except DOR's app arrivals, which stream in beside its event
  // window. Checked on runs with faults, app traffic, a throttle and the
  // write path.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, /*rotate_columns=*/true,
                        SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  const auto apps = loaded_apps(l);

  ReconstructionConfig sc(loaded_config());
  sc.workers = 4;
  const SimMetrics sor = ReconstructionEngine(l, g, sc).run(errors, apps);
  EXPECT_GT(sor.fault.escalated_stripes, 0u);
  EXPECT_GT(sor.write.flush_ticks, 0u);
  EXPECT_EQ(sor.engine_events, sor.event_queue_pushes);

  const SimMetrics dor =
      DorEngine(l, g, DorConfig(loaded_config())).run(errors, apps);
  EXPECT_GT(dor.fault.escalated_stripes, 0u);
  EXPECT_GT(dor.write.flush_ticks, 0u);
  EXPECT_EQ(dor.app_requests, apps.size());
  EXPECT_EQ(dor.engine_events, dor.event_queue_pushes + dor.app_requests);
}

}  // namespace
}  // namespace fbf::sim
