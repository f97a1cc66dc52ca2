#include "sim/dor_engine.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "codes/codec.h"
#include "obs/observer.h"
#include "recovery/scheme.h"
#include "sim/event_queue.h"
#include "sim/key_id_map.h"
#include "util/check.h"
#include "util/hugepage.h"

namespace fbf::sim {

// ---------------------------------------------------------------------------
// The run loop (DESIGN §14): a sorted event window with lookahead
// prefetch, dense chunk ids and batched cache admission. Every event pops
// in the (t, seq) order of a plain heap, so every metric is the one the
// seed loop produced; the DorLoop* goldens in tests/integration pin those
// bytes.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kNoId = KeyIdMap::kNoId;
constexpr std::uint32_t kNoWaiter = 0xffffffffu;

/// Chain member in the shared arena: key + dense chunk id + the member's
/// fixed position inside its task (the awaiting-bitset bit it owns).
struct Member {
  cache::Key key = 0;
  std::uint32_t id = 0;
  std::uint16_t pos = 0;
  std::uint8_t priority = 1;
};

/// One chain (or Gauss solve) recovering a lost chunk. Members live in a
/// shared arena (the unconsumed set shrinks in place, so a
/// [mem_off, mem_off+mem_len) window replaces a per-task vector) and the
/// awaiting set is packed-u64 words in a
/// shared arena (the SOR Worker::recovered idiom), indexed by member
/// position, with a live count so "awaiting empty" is one compare. The
/// whole record fits one cache line and is aligned to it, so a delivery
/// wake-up — a random probe into a multi-hundred-MB task array — costs
/// exactly one memory access.
struct alignas(64) ChainTask {
  std::uint64_t stripe = 0;
  /// Awaiting bitset for tasks of <= 64 members — every non-Gauss chain
  /// at practical p. Keeping the word inside the task means a delivery
  /// wake-up clears its bit with no second dependent cache miss into
  /// await_arena; multi-word (Gauss) tasks fall back to the arena.
  std::uint64_t await0 = 0;
  std::uint32_t mem_off = 0;
  std::uint32_t mem_len = 0;
  std::uint32_t await_off = 0;
  std::uint32_t await_words = 0;
  std::uint32_t awaiting_count = 0;
  codes::Cell target;
  /// Dense chunk id of `target`, recorded at registration so the spare
  /// write never probes the key map (left unbuilt on fault-free runs).
  /// Gauss tasks (fault path only) keep per-target ids via the map.
  std::uint32_t target_id = kNoId;
  std::int16_t chain_id = -1;
  std::uint16_t n_members = 0;
  std::uint8_t target_priority = 1;
  bool done = false;
  /// Gauss targets as a [gauss_off, gauss_off+gauss_len) window into a
  /// shared arena (fault path only; empty for normal chains). A vector
  /// here would push the task past one cache line for a field the hot
  /// loop never reads.
  std::uint32_t gauss_off = 0;
  std::uint32_t gauss_len = 0;
};
static_assert(sizeof(ChainTask) == 64, "ChainTask must stay one cache line");

/// Arena node of a chunk's waiter list (tasks to wake on delivery, in
/// registration order). It carries the waiting member's position, so a
/// delivery clears the awaiting bit in O(1).
struct WaiterLink {
  std::uint32_t task = 0;
  std::uint32_t next = kNoWaiter;
  std::uint16_t member_pos = 0;
};

// Aligned so the per-event probe (again a random access into an array
// far larger than LLC) never straddles two lines.
struct alignas(64) ChunkInfo {
  cache::Key key = 0;  ///< events and waiters carry ids; the key lives here
  std::uint64_t stripe = 0;
  /// First waiter, stored inline: most chunks serve exactly one chain, so
  /// the common delivery never touches the waiter_links arena at all —
  /// the wake-up reads this line (already loaded for `key`) and jumps
  /// straight to the task. Registration order is preserved: the inline
  /// slot is strictly the first waiter, links hold the rest in order.
  std::uint32_t w0_task = kNoWaiter;
  std::uint16_t w0_pos = 0;
  std::uint32_t waiters_head = kNoWaiter;
  std::uint32_t waiters_tail = kNoWaiter;
  /// Home placement, cached at registration: re-reads resolve disk and
  /// LBA from this line instead of re-deriving both from (stripe, cell)
  /// on every storm round.
  std::uint64_t lba = 0;
  std::int32_t home_disk = -1;
  codes::Cell cell;
  int spare_disk = -1;
  std::uint8_t priority = 1;
  bool lost = false;
  bool recovered = false;
  bool write_pending = false;
};
static_assert(sizeof(ChunkInfo) == 64, "ChunkInfo must stay one cache line");

struct PlannedRead {
  cache::Key key = 0;
  std::uint64_t lba = 0;
  std::uint32_t id = 0;
  bool spare = false;
};

struct Reader {
  std::vector<PlannedRead> queue;
  std::size_t head = 0;
  bool busy = false;
  double requested_at = 0.0;

  bool idle_empty() const { return head >= queue.size(); }

  /// Pops the head read, reclaiming the consumed prefix: without it a
  /// re-read storm (working set ≫ buffer) grows every queue by ~16 B per
  /// re-read for the whole run — gigabytes of dead prefix at p=17.
  /// Amortized O(1): a full drain resets for free, and the sliding
  /// compaction only runs once the live tail is smaller than the spent
  /// prefix.
  PlannedRead take() {
    const PlannedRead read = queue[head++];
    if (head >= queue.size()) {
      queue.clear();
      head = 0;
    } else if (head >= 1024 && head * 2 >= queue.size()) {
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    return read;
  }
};

/// DOR's disk-seed multiplier (RunContext): SOR's differs, and the
/// detailed disk model's results depend on it.
constexpr std::uint64_t kDorDiskSeed = 0x9e3779b97f4a7c15ull;

}  // namespace

DorEngine::DorEngine(const codes::Layout& layout,
                     const ArrayGeometry& geometry, const DorConfig& config)
    : layout_(&layout), geometry_(&geometry), config_(config) {
  FBF_CHECK(config_.chunk_bytes > 0, "chunk size must be positive");
  // A zero-chunk buffer livelocks DOR: every chain consumption misses and
  // re-enqueues its reads forever, so the event loop never drains.
  FBF_CHECK(config_.cache_capacity_chunks() >= 1,
            "DOR needs a buffer of at least one chunk (cache_bytes >= "
            "chunk_bytes)");
}

SimMetrics DorEngine::run(const std::vector<workload::StripeError>& errors,
                          const std::vector<workload::AppRequest>& app_trace) {
  // Chunk records and the key map that resolves them (see ensure_key_map
  // below). Declared before the run context: the foreground server asks
  // them where a spare copy landed.
  std::vector<ChunkInfo> chunks;
  KeyIdMap key_map(0);
  RunContext ctx(*layout_, *geometry_, config_, kDorDiskSeed, errors,
                 app_trace, [&key_map, &chunks](std::uint64_t key) {
                   const std::uint32_t id = key_map.find(key);
                   return id != kNoId ? chunks[id].spare_disk : -1;
                 });
  SimMetrics& metrics = ctx.metrics;
  const auto cache =
      cache::make_policy(config_.policy, config_.cache_capacity_chunks());

  // ---- Plan: schemes, chain tasks, per-disk read queues. ----
  // Chunks get dense u32 ids on first sight (KeyIdMap resolves keys), so
  // the hot loop indexes a flat vector instead of hashing into an
  // unordered_map on every event, waiter wake, and re-read.
  std::optional<obs::PhaseTimer> plan_timer;
  if (config_.observer != nullptr) {
    plan_timer.emplace(config_.observer, "dor_plan");
  }

  std::vector<std::shared_ptr<const recovery::RecoveryScheme>> schemes;
  schemes.reserve(errors.size());
  std::size_t total_steps = 0;
  std::size_t total_refs = 0;
  for (const workload::StripeError& err : errors) {
    schemes.push_back(ctx.lookup_scheme(err.error, config_.scheme));
    total_steps += schemes.back()->steps.size();
    for (const recovery::RecoveryStep& step : schemes.back()->steps) {
      total_refs += layout_->chain(step.chain_id).cells.size() - 1;
    }
  }

  std::vector<ChainTask> tasks;
  std::vector<Member> member_arena;
  std::vector<std::uint64_t> await_arena;
  std::vector<codes::Cell> gauss_arena;
  std::vector<WaiterLink> waiter_links;
  std::vector<Reader> readers(ctx.disks.size());
  tasks.reserve(total_steps);
  chunks.reserve(total_refs + total_steps);
  member_arena.reserve(total_refs);
  await_arena.reserve(total_steps * 2);
  waiter_links.reserve(total_refs);
  // Every event indexes these arenas at a random offset; at sweep scale
  // they span far more 4 KiB pages than the TLB holds, so advise huge
  // pages now, before planning faults them in.
  util::advise_hugepages(tasks.data(), tasks.capacity() * sizeof(ChainTask));
  util::advise_hugepages(chunks.data(),
                         chunks.capacity() * sizeof(ChunkInfo));
  util::advise_hugepages(member_arena.data(),
                         member_arena.capacity() * sizeof(Member));
  util::advise_hugepages(waiter_links.data(),
                         waiter_links.capacity() * sizeof(WaiterLink));

  // Spare-region LBA from the cached (home_disk, lba) pair:
  // spare_lba_of(s, c) == spare_lba(info-of(s, c)). ChunkInfo caches both
  // inputs, so no (stripe, cell) -> address recomputation in the hot loop.
  auto spare_lba = [this](const ChunkInfo& ci) {
    return geometry_->spare_lba_from(ci.home_disk, ci.lba);
  };

  // Per-stripe id ranges: [first, last) windows into the task or chunk
  // arena holding only that stripe's records. Ids are minted in ascending
  // order, so appending one extends the stripe's last window whenever the
  // stripe minted the id before it too.
  using IdRanges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  auto append_id = [](IdRanges& ranges, std::uint32_t id) {
    if (!ranges.empty() && ranges.back().second == id) {
      ++ranges.back().second;
    } else {
      ranges.emplace_back(id, id + 1);
    }
  };

  // The global key -> dense id map is built LAZILY. Planning dedups chunks
  // with a per-stripe cell table (chains only ever share cells inside
  // their own stripe), and fault-free runs carry every id they need on the
  // task and chunk records — so the common path never pays for a table
  // that spans tens of megabytes and eats one random DRAM write per chunk.
  // The fault and foreground paths, which genuinely resolve arbitrary
  // keys mid-run, build it once from the chunk arena on first use.
  bool key_map_built = false;
  auto ensure_key_map = [&] {
    if (key_map_built) {
      return;
    }
    key_map_built = true;
    key_map = KeyIdMap(chunks.size() + 1);
    for (std::size_t id = 0; id < chunks.size(); ++id) {
      key_map.find_or_insert(chunks[id].key, static_cast<std::uint32_t>(id));
    }
  };

  // Planning-time chunk registration: a dense cell -> id table for the
  // stripe in hand (reset on stripe change, L1-resident) replaces the
  // global hash probe. Revisited stripes — legal in a caller-supplied
  // trace — replay their previously minted id ranges into the table, so
  // ids stay identical to what the global map would have returned. The
  // same ranges, extended by chunk_id_or_new, are the replanner's
  // per-stripe chunk index.
  std::vector<std::uint32_t> stripe_ids(
      static_cast<std::size_t>(layout_->num_cells()), kNoId);
  std::uint64_t ids_stripe = ~std::uint64_t{0};
  std::unordered_map<std::uint64_t, IdRanges> stripe_ranges;

  /// Dense id for `key`, registering a blank ChunkInfo on first sight.
  /// (stripe, cell) are recovered from the key (chunk_key is a dense
  /// packing) and the home placement is cached on the chunk line, so the
  /// per-round re-read path never re-derives disk or LBA. Fault paths
  /// only — callers must run ensure_key_map() first.
  auto chunk_id_or_new = [&](cache::Key key) -> std::pair<std::uint32_t, bool> {
    const auto [id, fresh] =
        key_map.find_or_insert(key, static_cast<std::uint32_t>(chunks.size()));
    if (fresh) {
      chunks.emplace_back();
      ChunkInfo& ci = chunks.back();
      ci.key = key;
      const auto cells = static_cast<std::uint64_t>(layout_->num_cells());
      ci.stripe = key / cells;
      ci.cell = layout_->cell_at(static_cast<int>(key % cells));
      ci.lba = geometry_->lba_of(ci.stripe, ci.cell);
      ci.home_disk = geometry_->disk_of(ci.stripe, ci.cell);
      append_id(stripe_ranges[ci.stripe], id);
    }
    return {id, fresh};
  };
  auto plan_stripe_begin = [&](std::uint64_t stripe) {
    if (stripe == ids_stripe) {
      return;  // adjacent repeat: table already describes this stripe
    }
    std::fill(stripe_ids.begin(), stripe_ids.end(), kNoId);
    ids_stripe = stripe;
    const auto it = stripe_ranges.find(stripe);
    if (it != stripe_ranges.end()) {
      for (const auto& [s, e] : it->second) {
        for (std::uint32_t id = s; id < e; ++id) {
          stripe_ids[static_cast<std::size_t>(
              layout_->cell_index(chunks[id].cell))] = id;
        }
      }
    }
  };
  auto plan_chunk = [&](std::uint64_t stripe, codes::Cell c,
                        std::size_t cidx) -> std::pair<std::uint32_t, bool> {
    std::uint32_t id = stripe_ids[cidx];
    if (id != kNoId) {
      return {id, false};
    }
    id = static_cast<std::uint32_t>(chunks.size());
    stripe_ids[cidx] = id;
    chunks.emplace_back();
    ChunkInfo& ci = chunks.back();
    ci.key = geometry_->chunk_key(stripe, c);
    ci.stripe = stripe;
    ci.cell = c;
    ci.lba = geometry_->lba_of(stripe, c);
    ci.home_disk = geometry_->disk_of(stripe, c);
    return {id, true};
  };

  auto add_waiter = [&waiter_links](ChunkInfo& ci, std::size_t t,
                                    std::uint16_t pos) {
    if (ci.w0_task == kNoWaiter && ci.waiters_head == kNoWaiter) {
      ci.w0_task = static_cast<std::uint32_t>(t);
      ci.w0_pos = pos;
      return;
    }
    const auto link = static_cast<std::uint32_t>(waiter_links.size());
    waiter_links.push_back(
        WaiterLink{static_cast<std::uint32_t>(t), kNoWaiter, pos});
    if (ci.waiters_head == kNoWaiter) {
      ci.waiters_head = link;
    } else {
      waiter_links[ci.waiters_tail].next = link;
    }
    ci.waiters_tail = link;
  };

  /// The awaiting-bitset word owning member position `pos` (see
  /// ChainTask::await0 — single-word tasks keep it inline).
  auto await_word = [&await_arena](ChainTask& task,
                                   std::uint32_t pos) -> std::uint64_t& {
    return task.await_words <= 1 ? task.await0
                                 : await_arena[task.await_off + (pos >> 6)];
  };

  /// A task recovering `step.target` of `stripe` through its chain, at
  /// the target's priority in `scheme`; members are the caller's.
  auto chain_task = [this](std::uint64_t stripe,
                           const recovery::RecoveryStep& step,
                           const recovery::RecoveryScheme& scheme) {
    ChainTask task;
    task.stripe = stripe;
    task.target = step.target;
    task.chain_id = static_cast<std::int16_t>(step.chain_id);
    task.target_priority = std::max<std::uint8_t>(
        scheme.priority[static_cast<std::size_t>(
            layout_->cell_index(step.target))],
        1);
    return task;
  };

  // verify_data: per-stripe truth/working bytes.
  const bool verify_on = config_.verify_data;
  std::unordered_map<std::uint64_t, VerifyImages> verify_states;
  if (verify_on) {
    verify_states.reserve(errors.size());
  }

  std::vector<bool> lost;  // hoisted: reused across stripes, one allocation
  for (std::size_t e = 0; e < errors.size(); ++e) {
    const workload::StripeError& err = errors[e];
    const recovery::RecoveryScheme& scheme = *schemes[e];
    plan_stripe_begin(err.stripe);
    const auto range_start = static_cast<std::uint32_t>(chunks.size());
    lost.assign(static_cast<std::size_t>(layout_->num_cells()), false);
    for (const codes::Cell& c : err.error.cells()) {
      lost[static_cast<std::size_t>(layout_->cell_index(c))] = true;
    }
    if (verify_on) {
      auto [vit, vfresh] = verify_states.try_emplace(
          err.stripe, *layout_, config_.verify_chunk_bytes);
      if (vfresh) {
        vit->second.reset(err.stripe);
      }
      for (const codes::Cell& c : err.error.cells()) {
        vit->second.erase(c);
      }
    }
    for (const recovery::RecoveryStep& step : scheme.steps) {
      ChainTask task = chain_task(err.stripe, step, scheme);
      const auto& cells = layout_->chain(step.chain_id).cells;
      task.mem_off = static_cast<std::uint32_t>(member_arena.size());
      task.await_words =
          static_cast<std::uint32_t>((cells.size() - 1 + 63) / 64);
      if (task.await_words > 1) {
        task.await_off = static_cast<std::uint32_t>(await_arena.size());
        await_arena.insert(await_arena.end(), task.await_words, 0);
      }
      std::uint16_t pos = 0;
      for (const codes::Cell& c : cells) {
        if (c == step.target) {
          continue;
        }
        const cache::Key key = geometry_->chunk_key(err.stripe, c);
        const auto cidx = static_cast<std::size_t>(layout_->cell_index(c));
        const auto [id, fresh] = plan_chunk(err.stripe, c, cidx);
        ChunkInfo& ci = chunks[id];
        if (fresh) {  // stripe/cell/placement cached by plan_chunk
          ci.priority = std::max<std::uint8_t>(scheme.priority[cidx], 1);
          ci.lost = lost[cidx];
          if (!ci.lost) {
            readers[static_cast<std::size_t>(ci.home_disk)].queue.push_back(
                PlannedRead{key, ci.lba, id, false});
          }
        }
        member_arena.push_back(Member{key, id, pos, ci.priority});
        await_word(task, pos) |= std::uint64_t{1} << (pos & 63);
        add_waiter(ci, tasks.size(), pos);
        ++pos;
      }
      task.mem_len = pos;
      task.n_members = pos;
      task.awaiting_count = pos;
      const auto [tid, tfresh] = plan_chunk(
          err.stripe, step.target,
          static_cast<std::size_t>(layout_->cell_index(step.target)));
      task.target_id = tid;
      if (tfresh) {
        ChunkInfo& ci = chunks[tid];
        ci.priority = task.target_priority;
        ci.lost = true;
      }
      tasks.push_back(std::move(task));
    }
    if (chunks.size() > range_start) {
      stripe_ranges[err.stripe].push_back(
          {range_start, static_cast<std::uint32_t>(chunks.size())});
    }
  }
  for (Reader& r : readers) {  // LBA order: sequential streaming per disk
    std::sort(r.queue.begin(), r.queue.end(),
              [](const PlannedRead& a, const PlannedRead& b) {
                return a.lba < b.lba;
              });
    metrics.planned_disk_reads += r.queue.size();
  }
  plan_timer.reset();  // planning phase ends here

  if (!app_trace.empty()) {
    // Foreground reads probe arbitrary keys, so they need the global map;
    // pure-recovery runs (the common benchmark shape) never build it.
    ensure_key_map();
  }

  // ---- Event loop. ----
  // Events carry the dense chunk id, not the key (AppArrival reuses the
  // id lane for its trace index).
  struct Event {
    double t;
    std::uint64_t seq;
    enum class Kind : std::uint8_t {
      ReadDone,
      SpareWriteDone,
      ReadFailed,
      DiskFail,
      AppArrival,
      ThrottledSubmit,
      FlushTick,
    } kind;
    std::uint32_t disk;
    std::uint32_t id;
    bool operator>(const Event& o) const {
      return t > o.t || (t == o.t && seq > o.seq);
    }
  };
  // Pending events wait in a window sorted in pop order (DESIGN §12).
  // Each reader has at most one in-flight read or throttled submission.
  // Spare-write completions number one per task when fault-free; replans
  // mint extras, bounded by the escalation arithmetic plus a slab for
  // URE/transient re-recoveries. Then come the DiskFail events and one
  // FlushTick. App arrivals never enter the window (see the stream below).
  // The regrowth counter (asserted zero by the fault tests) pins these
  // bounds.
  EventWindow<Event> queue;
  const bool flush_ticks_on = ctx.flush_ticks_on;
  {
    std::size_t bound = readers.size() + tasks.size();
    if (ctx.fault_plan.has_value()) {
      const std::size_t failures = ctx.disk_failures().size();
      bound += failures;  // the DiskFail events themselves
      // Escalation: each failure re-targets at most one column of every
      // traced stripe.
      bound += failures * errors.size() *
               static_cast<std::size_t>(layout_->rows());
      if (config_.faults.ure_rate > 0.0 ||
          config_.faults.transient_rate > 0.0) {
        bound += 1024;  // replan slab: re-recovered chunks
      }
    }
    if (flush_ticks_on) {
      bound += 1;  // at most one FlushTick is pending at a time
    }
    queue.reserve(bound);
  }
  std::uint64_t seq = 0;
  double makespan = 0.0;
  std::size_t tasks_done = 0;

  // Batched cache admission. Deliveries append here; the batch flushes
  // through install_batch (≡ sequential installs) immediately before the
  // next cache read — a completion's touch_batch, a replan's contains()
  // probe, or the final stats export — so the cache passes through the
  // exact same state sequence at every observation point.
  std::vector<cache::Key> pend_install_keys;
  std::vector<std::uint8_t> pend_install_pris;
  auto flush_installs = [&] {
    if (!pend_install_keys.empty()) {
      cache->install_batch(pend_install_keys.data(), pend_install_pris.data(),
                           pend_install_keys.size());
      pend_install_keys.clear();
      pend_install_pris.clear();
    }
  };

  // touch_batch scratch (completion attempts).
  std::vector<cache::Key> touch_keys;
  std::vector<std::uint8_t> touch_pris;
  std::vector<std::uint64_t> touch_hits;

  /// Fault path: a read settles its outcome at submission, so one in
  /// flight when its copy died (a disk failure) still delivers the
  /// chunk's bytes. They equal the truth: an original copy always does,
  /// and a spare copy was verified when it was recovered.
  auto verify_mark_read = [&](std::uint32_t id) {
    const ChunkInfo& ci = chunks[id];
    if (ci.lost && !ci.recovered) {  // else the working bytes are live
      verify_states.at(ci.stripe).restore(ci.cell);
    }
  };

  auto submit_planned = [&](std::size_t d, double requested,
                            double submit_t) {
    const PlannedRead read = readers[d].take();
    const RunContext::Read rr = ctx.rebuild_read(
        static_cast<int>(d), submit_t, read.lba, read.key, !read.spare);
    ctx.sample_response(rr.done_ms - requested + config_.cache_access_ms);
    queue.push(Event{rr.done_ms, seq++,
                     rr.ok ? Event::Kind::ReadDone : Event::Kind::ReadFailed,
                     static_cast<std::uint32_t>(d), read.id});
  };

  auto kick_reader = [&](std::size_t d, double now) {
    Reader& r = readers[d];
    if (r.busy || r.idle_empty()) {
      return;
    }
    r.busy = true;
    if (ctx.throttle.has_value()) {
      const double grant = ctx.throttle->acquire(now);
      if (grant > now) {
        r.requested_at = now;
        queue.push(Event{grant, seq++, Event::Kind::ThrottledSubmit,
                         static_cast<std::uint32_t>(d), 0});
        return;
      }
    }
    submit_planned(d, now, now);
  };

  /// Disk of a recovered chunk's spare copy: where its write landed, or
  /// the geometry's choice while none has.
  auto spare_disk = [this](const ChunkInfo& ci) {
    return ci.spare_disk >= 0 ? ci.spare_disk
                              : geometry_->spare_disk_of(ci.stripe, ci.cell);
  };
  /// Queues a read of chunk `id`'s live copy (a lost chunk's spare copy,
  /// else its home copy) on that copy's reader; returns the disk.
  auto queue_live_read = [&](std::uint32_t id) {
    const ChunkInfo& ci = chunks[id];
    const bool spare = ci.lost;  // recovered chunks live in the spare area
    const auto d =
        static_cast<std::size_t>(spare ? spare_disk(ci) : ci.home_disk);
    const std::uint64_t lba = spare ? spare_lba(ci) : ci.lba;
    readers[d].queue.push_back(PlannedRead{ci.key, lba, id, spare});
    return d;
  };

  auto enqueue_reread = [&](std::uint32_t id, double now) {
    kick_reader(queue_live_read(id), now);
  };

  auto attempt_completion = [&](std::size_t t, double now, cache::Key fresh) {
    ChainTask& task = tasks[t];
    if (task.done) {
      return;
    }
    Member* mem = member_arena.data() + task.mem_off;
    const std::size_t n = task.mem_len;
    // Fresh member first: the anti-livelock rotate (dor_engine.h).
    for (std::size_t i = 0; i < n; ++i) {
      if (mem[i].key == fresh) {
        std::rotate(mem, mem + i, mem + i + 1);
        break;
      }
    }
    // One batched touch replaces n virtual request() calls; identical
    // per-element semantics in the same member order (policy.h contract).
    flush_installs();
    touch_keys.resize(n);
    touch_pris.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      touch_keys[i] = mem[i].key;
      touch_pris[i] = mem[i].priority;
      // Any member the touch below misses is immediately re-read, and
      // enqueue_reread chases its ChunkInfo — a cold line at storm
      // scale. Fetch them all now, hidden behind the batch touch.
      __builtin_prefetch(chunks.data() + mem[i].id);
    }
    touch_hits.resize((n + 63) / 64);
    cache->touch_batch(touch_keys.data(), touch_pris.data(), n,
                       touch_hits.data());
    metrics.total_chunk_requests += n;
    // Keep the misses, stably, in place.
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (((touch_hits[i >> 6] >> (i & 63)) & 1) == 0) {
        mem[out] = mem[i];
        await_word(task, mem[out].pos) |= std::uint64_t{1}
                                          << (mem[out].pos & 63);
        ++out;
      }
    }
    task.mem_len = static_cast<std::uint32_t>(out);
    if (out != 0) {
      // All awaiting bits (and the count) are armed before the first
      // re-read submission so a waiter wake can never observe a torn set.
      task.awaiting_count = static_cast<std::uint32_t>(out);
      for (std::size_t i = 0; i < out; ++i) {
        enqueue_reread(mem[i].id, now);
      }
      return;
    }
    task.done = true;
    ++tasks_done;
    const double xor_done =
        now + config_.xor_ms_per_chunk * static_cast<double>(task.n_members);
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidSim, 0,
                    "chain_fold", "xor", now * 1000.0, (xor_done - now) * 1000.0,
                    "stripe", task.stripe);
    if (verify_on) {
      VerifyImages& images = verify_states.at(task.stripe);
      if (task.gauss_len == 0) {
        images.fold_chain(task.chain_id, task.target);
      } else {
        // Gauss tasks solve the whole pattern, then check every target.
        images.solve_gauss(std::vector<codes::Cell>(
            gauss_arena.begin() + task.gauss_off,
            gauss_arena.begin() + task.gauss_off + task.gauss_len));
      }
    }
    auto write_target = [&](codes::Cell target, std::uint32_t tid) {
      FBF_CHECK(tid != kNoId, "spare write for an unregistered chunk");
      const RunContext::SpareWrite sw = ctx.spare_write(
          geometry_->spare_disk_of(task.stripe, target),
          geometry_->spare_lba_of(task.stripe, target), xor_done,
          task.stripe);
      makespan = std::max(makespan, sw.done_ms);
      chunks[tid].write_pending = true;
      queue.push(Event{sw.done_ms, seq++, Event::Kind::SpareWriteDone,
                       static_cast<std::uint32_t>(sw.disk), tid});
    };
    if (task.gauss_len == 0) {
      write_target(task.target, task.target_id);
    } else {
      // Gauss tasks only come from the replan path, which builds the key
      // map before registering them — find() is safe here.
      for (std::uint32_t g = 0; g < task.gauss_len; ++g) {
        const codes::Cell c = gauss_arena[task.gauss_off + g];
        write_target(c, key_map.find(geometry_->chunk_key(task.stripe, c)));
      }
    }
  };

  // Delivery: pend the install (batched; flushed before the next cache
  // read) and wake the waiters — one bit clear per waiter instead of a
  // key-list scan.
  auto deliver = [&](std::uint32_t id, double now) {
    // Copy everything needed out of the chunk (and out of each link)
    // before waking tasks: a completion may register new chunks or
    // waiter links, growing either arena.
    const cache::Key key = chunks[id].key;
    const std::uint32_t w0_task = chunks[id].w0_task;
    const std::uint16_t w0_pos = chunks[id].w0_pos;
    const std::uint32_t links_head = chunks[id].waiters_head;
    pend_install_keys.push_back(key);
    pend_install_pris.push_back(chunks[id].priority);
    auto wake = [&](std::uint32_t t, std::uint16_t pos) {
      ChainTask& task = tasks[t];
      if (task.done) {
        return;
      }
      if (task.awaiting_count == 1) {
        // This wake completes the chain: attempt_completion's first act is
        // a scan of the member slice, so start that line now.
        __builtin_prefetch(member_arena.data() + task.mem_off);
      }
      std::uint64_t& word = await_word(task, pos);
      const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
      if ((word & bit) == 0) {
        return;  // not awaiting this chunk right now
      }
      word &= ~bit;
      if (--task.awaiting_count == 0) {
        attempt_completion(t, now, key);
      }
    };
    if (w0_task != kNoWaiter) {
      wake(w0_task, w0_pos);
    }
    for (std::uint32_t l = links_head; l != kNoWaiter;) {
      const std::uint32_t t = waiter_links[l].task;
      const std::uint16_t pos = waiter_links[l].member_pos;
      l = waiter_links[l].next;
      wake(t, pos);
    }
  };

  // ---- Fault path: re-planning around mid-recovery losses. ----
  // Per-stripe task index (DESIGN §11, "Replan cost"), built LAZILY like
  // the key map: fault-free runs never replan, so they never pay for it.
  // A replan supersedes every live task of its stripe, so it clears the
  // stripe's ranges and refills them with the tasks it mints; each task is
  // therefore visited by at most one replan.
  std::unordered_map<std::uint64_t, IdRanges> task_ranges;
  bool task_ranges_built = false;
  auto ensure_task_ranges = [&] {
    if (task_ranges_built) {
      return;
    }
    task_ranges_built = true;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      append_id(task_ranges[tasks[t].stripe], static_cast<std::uint32_t>(t));
    }
    metrics.replan_records_scanned += tasks.size();
  };

  auto replan_stripe = [&](std::uint64_t stripe, double now) {
    ensure_key_map();  // replan registers chunks through the global map
    ensure_task_ranges();
    flush_installs();  // the contains() probes below read cache state
    // Visit order cannot reach the results: superseding is a set
    // operation, and the outstanding list is sorted before use.
    IdRanges& live_tasks = task_ranges[stripe];
    for (const auto& [first, last] : live_tasks) {
      metrics.replan_records_scanned += last - first;
      for (std::uint32_t t = first; t < last; ++t) {
        if (!tasks[t].done) {
          tasks[t].done = true;  // superseded by the new plan
          ++tasks_done;
        }
      }
    }
    live_tasks.clear();
    std::vector<codes::Cell> outstanding;
    for (const auto& [first, last] : stripe_ranges[stripe]) {
      metrics.replan_records_scanned += last - first;
      for (std::uint32_t id = first; id < last; ++id) {
        const ChunkInfo& ci = chunks[id];
        if (ci.lost && !ci.recovered && !ci.write_pending) {
          outstanding.push_back(ci.cell);
        }
      }
    }
    std::sort(outstanding.begin(), outstanding.end());
    if (outstanding.empty()) {
      return;  // every loss has (or is about to have) a live spare copy
    }
    if (!codes::erasure_decodable(*layout_, outstanding)) {
      throw EscalationError(stripe, std::move(outstanding),
                            ctx.fault_plan->failed_disks_at(now));
    }
    const recovery::FaultScheme fs =
        recovery::generate_fault_scheme(*layout_, outstanding);
    ++metrics.schemes_generated;
    if (!fs.gauss_cells.empty()) {
      ++metrics.fault.gauss_fallbacks;
    }
    const std::size_t first_new = tasks.size();
    auto add_task = [&](ChainTask task,
                        const std::vector<codes::Cell>& members) {
      const std::size_t tindex = tasks.size();
      task.mem_off = static_cast<std::uint32_t>(member_arena.size());
      task.await_words =
          static_cast<std::uint32_t>((members.size() + 63) / 64);
      if (task.await_words > 1) {
        task.await_off = static_cast<std::uint32_t>(await_arena.size());
        await_arena.insert(await_arena.end(), task.await_words, 0);
      }
      for (std::size_t i = 0; i < members.size(); ++i) {
        const codes::Cell& c = members[i];
        const cache::Key key = geometry_->chunk_key(stripe, c);
        const auto cidx = static_cast<std::size_t>(layout_->cell_index(c));
        const auto [id, fresh] = chunk_id_or_new(key);
        {
          ChunkInfo& ci = chunks[id];
          if (fresh) {
            ci.priority =
                std::max<std::uint8_t>(fs.scheme.priority[cidx], 1);
          }
          member_arena.push_back(
              Member{key, id, static_cast<std::uint16_t>(i), ci.priority});
          ++task.n_members;
          add_waiter(ci, tindex, static_cast<std::uint16_t>(i));
        }
        const ChunkInfo& ci = chunks[id];
        if (ci.lost && !ci.recovered) {
          await_word(task, static_cast<std::uint32_t>(i)) |=
              std::uint64_t{1} << (i & 63);
          ++task.awaiting_count;
        } else if (!cache->contains(key)) {
          await_word(task, static_cast<std::uint32_t>(i)) |=
              std::uint64_t{1} << (i & 63);
          ++task.awaiting_count;
          const std::size_t d = queue_live_read(id);
          ++metrics.planned_disk_reads;
          kick_reader(d, now);
        }
      }
      task.mem_len = static_cast<std::uint32_t>(members.size());
      auto register_target = [&](codes::Cell target) -> std::uint32_t {
        const cache::Key tkey = geometry_->chunk_key(stripe, target);
        const auto tidx =
            static_cast<std::size_t>(layout_->cell_index(target));
        const auto [id, fresh] = chunk_id_or_new(tkey);
        ChunkInfo& ci = chunks[id];
        if (fresh) {
          ci.priority = std::max<std::uint8_t>(fs.scheme.priority[tidx], 1);
        }
        ci.lost = true;
        return id;
      };
      if (task.gauss_len == 0) {
        task.target_id = register_target(task.target);
      } else {
        for (std::uint32_t g = 0; g < task.gauss_len; ++g) {
          register_target(gauss_arena[task.gauss_off + g]);
        }
      }
      tasks.push_back(std::move(task));
      append_id(live_tasks, static_cast<std::uint32_t>(tindex));
    };
    for (const recovery::RecoveryStep& step : fs.scheme.steps) {
      ChainTask task = chain_task(stripe, step, fs.scheme);
      std::vector<codes::Cell> members;
      for (const codes::Cell& c : layout_->chain(step.chain_id).cells) {
        if (!(c == step.target)) {
          members.push_back(c);
        }
      }
      add_task(std::move(task), members);
    }
    if (!fs.gauss_cells.empty()) {
      ChainTask task;
      task.stripe = stripe;
      task.gauss_off = static_cast<std::uint32_t>(gauss_arena.size());
      task.gauss_len = static_cast<std::uint32_t>(fs.gauss_cells.size());
      gauss_arena.insert(gauss_arena.end(), fs.gauss_cells.begin(),
                         fs.gauss_cells.end());
      std::vector<bool> is_gauss(
          static_cast<std::size_t>(layout_->num_cells()), false);
      for (const codes::Cell& c : fs.gauss_cells) {
        is_gauss[static_cast<std::size_t>(layout_->cell_index(c))] = true;
      }
      std::vector<bool> seen(static_cast<std::size_t>(layout_->num_cells()),
                             false);
      std::vector<codes::Cell> members;
      for (int chain_id : fs.gauss_chains) {
        for (const codes::Cell& c : layout_->chain(chain_id).cells) {
          const auto idx = static_cast<std::size_t>(layout_->cell_index(c));
          if (is_gauss[idx] || seen[idx]) {
            continue;
          }
          seen[idx] = true;
          members.push_back(c);
        }
      }
      add_task(std::move(task), members);
    }
    for (std::size_t t = first_new; t < tasks.size(); ++t) {
      if (tasks[t].awaiting_count == 0 && !tasks[t].done) {
        attempt_completion(t, now,
                           tasks[t].mem_len == 0
                               ? 0
                               : member_arena[tasks[t].mem_off].key);
      }
    }
  };

  // A chunk lost its live copy, so it is rebuilt (again): a survivor joins
  // the lost set, a recovered chunk drops its spare copy.
  auto lose_live_copy = [&](ChunkInfo& ci) {
    ++metrics.fault.extra_lost_chunks;
    if (verify_on) {
      verify_states.at(ci.stripe).erase(ci.cell);
    }
    if (ci.lost) {
      ci.recovered = false;
      ci.spare_disk = -1;
    } else {
      ci.lost = true;
    }
  };

  auto hard_read_failure = [&](std::uint32_t id, double now) {
    ChunkInfo& ci = chunks[id];
    if (ci.lost && !ci.recovered) {
      return;  // already pending recovery: a stale queued read drained
    }
    ++metrics.fault.replans;
    lose_live_copy(ci);
    const std::uint64_t stripe = ci.stripe;  // replan may grow `chunks`
    replan_stripe(stripe, now);
  };

  for (std::size_t d = 0; d < readers.size(); ++d) {
    kick_reader(d, 0.0);
  }
  for (const DiskFailure& f : ctx.disk_failures()) {
    queue.push(Event{f.at_ms, seq++, Event::Kind::DiskFail,
                     static_cast<std::uint32_t>(f.disk), 0});
  }
  // App arrivals stream in beside the window instead of through it: a
  // trace of tens of thousands of arrivals would otherwise sit in the
  // window for most of the run, and every push would have to scan past
  // the ones due before it. Arrival i keeps the seq a push here would give
  // it, and the stream yields arrivals in (arrival_ms, i) order, which is
  // their (t, seq) order; so taking the earlier of the stream's head and
  // the window's at each pop is a pop from one queue holding both.
  std::vector<std::uint32_t> arrivals(app_trace.size());
  std::iota(arrivals.begin(), arrivals.end(), 0u);
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [&app_trace](std::uint32_t a, std::uint32_t b) {
                     return app_trace[a].arrival_ms < app_trace[b].arrival_ms;
                   });
  const std::uint64_t arrival_seq0 = seq;
  seq += app_trace.size();
  std::size_t next_arrival = 0;
  auto pending = [&] {
    return !queue.empty() || next_arrival < arrivals.size();
  };
  auto pop_next = [&]() -> Event {
    if (next_arrival < arrivals.size()) {
      const std::uint32_t i = arrivals[next_arrival];
      const Event arrival{app_trace[i].arrival_ms, arrival_seq0 + i,
                          Event::Kind::AppArrival, 0, i};
      if (queue.empty() || queue.ahead(0) > arrival) {
        ++next_arrival;
        return arrival;
      }
    }
    return queue.pop();
  };
  if (flush_ticks_on) {
    queue.push(Event{config_.write.flush_interval_ms, seq++,
                     Event::Kind::FlushTick, 0, 0});
  }

  // Lookahead prefetch (DESIGN §14). A delivery stalls on three random
  // lines: its chunk, the task (or waiter link) the chunk names, and the
  // reader-queue head its disk's next submission takes. The window holds
  // the pending events in pop order, so each line is requested a few pops
  // before it is needed. The chunk goes furthest ahead because the task's
  // address is read from it: by the time an event is kTaskAhead pops
  // away, its chunk line has landed and naming the task costs no stall.
  // The reader head needs only the small, always-cached Reader record.
  constexpr std::size_t kChunkAhead = 6;
  constexpr std::size_t kReaderAhead = 3;
  constexpr std::size_t kTaskAhead = 2;
  auto names_chunk = [](const Event& e) {
    return e.kind == Event::Kind::ReadDone ||
           e.kind == Event::Kind::SpareWriteDone ||
           e.kind == Event::Kind::ReadFailed;
  };
  auto prefetch_ahead = [&] {
    const std::size_t n = queue.size();
    if (n == 0) {
      return;
    }
    // A short window prefetches its last event, so every event is still
    // fetched at least once on its way to the head.
    const Event& far = queue.ahead(std::min(n, kChunkAhead) - 1);
    if (names_chunk(far)) {
      __builtin_prefetch(chunks.data() + far.id);
    }
    if (n >= kReaderAhead) {
      const Event& e = queue.ahead(kReaderAhead - 1);
      if (e.kind == Event::Kind::ReadDone ||
          e.kind == Event::Kind::ThrottledSubmit) {
        const Reader& r = readers[e.disk];
        if (r.head < r.queue.size()) {
          // A 24-byte PlannedRead straddles two cache lines one time in
          // four, so fetch the line of its last byte too.
          const char* read =
              reinterpret_cast<const char*>(r.queue.data() + r.head);
          __builtin_prefetch(read);
          __builtin_prefetch(read + sizeof(PlannedRead) - 1);
        }
      }
    }
    if (n >= kTaskAhead) {
      const Event& e = queue.ahead(kTaskAhead - 1);
      if (names_chunk(e)) {
        const ChunkInfo& ci = chunks[e.id];
        if (ci.w0_task != kNoWaiter) {
          __builtin_prefetch(tasks.data() + ci.w0_task);
        }
        if (ci.waiters_head != kNoWaiter) {
          // Multi-chain chunk: the delivery also walks the overflow
          // waiter list, another random arena access.
          __builtin_prefetch(waiter_links.data() + ci.waiters_head);
        }
      }
    }
  };

  double last_event_ms = 0.0;
  while (pending()) {
    const Event ev = pop_next();
    prefetch_ahead();
    ++metrics.engine_events;
    last_event_ms = std::max(last_event_ms, ev.t);
    if (ev.kind != Event::Kind::DiskFail &&
        ev.kind != Event::Kind::AppArrival &&
        ev.kind != Event::Kind::FlushTick) {
      // A failure, an app arrival, or a flush tick alone does not extend
      // reconstruction; only the rebuild work it triggers does.
      makespan = std::max(makespan, ev.t);
    }
    switch (ev.kind) {
      case Event::Kind::ReadDone:
        if (verify_on) {
          verify_mark_read(ev.id);
        }
        deliver(ev.id, ev.t);
        readers[ev.disk].busy = false;
        kick_reader(ev.disk, ev.t);
        break;
      case Event::Kind::SpareWriteDone: {
        {
          ChunkInfo& ci = chunks[ev.id];
          ci.write_pending = false;
          if (ctx.fault_plan.has_value() &&
              ctx.fault_plan->disk_failed(static_cast<int>(ev.disk), ev.t)) {
            // The write was in flight when its target disk died: the copy
            // never became durable. Recover the chunk again; waiters are
            // superseded by the replan, so nothing is delivered.
            ++metrics.fault.respared;
            lose_live_copy(ci);
            const std::uint64_t stripe = ci.stripe;  // replan grows chunks
            replan_stripe(stripe, ev.t);
            break;
          }
          ci.recovered = true;
          ci.spare_disk = static_cast<int>(ev.disk);
        }
        deliver(ev.id, ev.t);
        if (!app_trace.empty()) {
          const ChunkInfo& ci = chunks[ev.id];  // re-indexed: deliver may move
          ctx.foreground.on_loss_recovered(ci.stripe, ci.cell, ev.t);
        }
        break;
      }
      case Event::Kind::ReadFailed:
        // Free the reader first: the replan may enqueue onto this disk.
        readers[ev.disk].busy = false;
        kick_reader(ev.disk, ev.t);
        hard_read_failure(ev.id, ev.t);
        break;
      case Event::Kind::DiskFail: {
        const int failed = static_cast<int>(ev.disk);
        ctx.disk_failed(failed, ev.t);
        // Deterministic spare invalidation (DESIGN.md §11's former gap):
        // every spare copy on the failed disk dies with it — whatever
        // column its home was — not just the failed column's cells. The
        // chunk arena scan is index-ordered, hence deterministic.
        std::unordered_set<std::uint64_t> respare_stripes;
        for (ChunkInfo& ci : chunks) {
          if (!ci.recovered || spare_disk(ci) != failed) {
            continue;
          }
          ++metrics.fault.respared;  // spare copy died with the disk
          lose_live_copy(ci);
          respare_stripes.insert(ci.stripe);
        }
        // Stripes touched only through dead spare copies (no data column
        // on the failed disk — possible once the pool is wider than a
        // stripe) replan as an escalation pass too.
        for (const workload::StripeError& traced : errors) {
          const int col = ctx.column_on(traced.stripe, failed);
          if (col < 0 && respare_stripes.count(traced.stripe) == 0) {
            continue;  // the failed disk holds nothing of this stripe
          }
          ++metrics.fault.escalated_stripes;
          for (int r = 0; col >= 0 && r < layout_->rows(); ++r) {
            const codes::Cell cell{static_cast<std::int16_t>(r),
                                   static_cast<std::int16_t>(col)};
            const cache::Key key = geometry_->chunk_key(traced.stripe, cell);
            ensure_key_map();  // chunk registration goes through the map
            const auto [id, fresh] = chunk_id_or_new(key);
            ChunkInfo& ci = chunks[id];
            if (fresh) {
              ci.priority = 1;
            }
            if (!ci.lost) {
              lose_live_copy(ci);  // original copy homed on the dead disk
            }
          }
          replan_stripe(traced.stripe, ev.t);
        }
        break;
      }
      case Event::Kind::AppArrival:
        ctx.foreground.on_arrival(static_cast<std::size_t>(ev.id), ev.t);
        break;
      case Event::Kind::ThrottledSubmit:
        submit_planned(ev.disk, readers[ev.disk].requested_at, ev.t);
        break;
      case Event::Kind::FlushTick:
        // Re-arm while anything else is pending, arrivals included.
        ctx.foreground.on_flush_tick(ev.t);
        if (pending()) {
          queue.push(Event{ev.t + config_.write.flush_interval_ms, seq++,
                           Event::Kind::FlushTick, 0, 0});
        }
        break;
    }
  }
  FBF_CHECK(tasks_done == tasks.size(),
            "DOR finished with incomplete chains — dependency deadlock");
  flush_installs();  // trailing deliveries reach the cache before export
  metrics.reconstruction_ms = makespan;
  metrics.stripes_recovered =
      errors.size() + metrics.fault.escalated_stripes;
  metrics.cache = cache->stats();
  return ctx.finish(queue.regrowths(), queue.pushes(), last_event_ms);
}

}  // namespace fbf::sim
