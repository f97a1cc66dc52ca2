#include "sim/dor_engine.h"

#include <algorithm>
#include <functional>
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
// The run loop (DESIGN §14), one DorRun per run: a sorted event window
// with lookahead prefetch, dense chunk ids and batched cache admission.
// Every event pops in the (t, seq) order of a plain heap, so every metric
// is the one the seed loop produced; the DorLoop* goldens in
// tests/integration pin those bytes.
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

/// Per-stripe id ranges: [first, last) windows into the task or chunk
/// arena holding only that stripe's records.
using IdRanges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Ids are minted in ascending order, so appending one extends the
/// stripe's last window whenever the stripe minted the id before it too.
void append_id(IdRanges& ranges, std::uint32_t id) {
  if (!ranges.empty() && ranges.back().second == id) {
    ++ranges.back().second;
  } else {
    ranges.emplace_back(id, id + 1);
  }
}

/// One DOR run: the shared RunContext plus DOR's schedule, a reader per
/// disk streaming planned reads into one shared buffer (paper §III-B).
/// plan() builds the chain tasks and read queues; execute() then drains
/// the event loop, whose steps are the members below.
class DorRun {
 public:
  DorRun(const codes::Layout& layout, const ArrayGeometry& geometry,
         const DorConfig& config,
         const std::vector<workload::StripeError>& errors,
         const std::vector<workload::AppRequest>& app_trace)
      : layout_(&layout),
        geometry_(&geometry),
        config_(config),
        errors_(&errors),
        app_trace_(&app_trace),
        ctx_(layout, geometry, config, kDorDiskSeed, errors, app_trace,
             std::bind_front(&DorRun::spare_disk_of_key, this)),
        cache_(cache::make_policy(config.policy,
                                  config.cache_capacity_chunks())),
        readers_(ctx_.disks.size()) {}

  SimMetrics execute();

 private:
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
    bool names_chunk() const {
      return kind == Kind::ReadDone || kind == Kind::SpareWriteDone ||
             kind == Kind::ReadFailed;
    }
  };

  // ---- Plan: schemes, chain tasks, per-disk read queues. ----
  // Chunks get dense u32 ids on first sight, so the hot loop indexes a
  // flat vector instead of hashing into an unordered_map on every event,
  // waiter wake, and re-read.
  void plan() {
    std::optional<obs::PhaseTimer> plan_timer;
    if (config_.observer != nullptr) {
      plan_timer.emplace(config_.observer, "dor_plan");
    }
    const std::vector<workload::StripeError>& errors = *errors_;
    std::vector<std::shared_ptr<const recovery::RecoveryScheme>> schemes;
    schemes.reserve(errors.size());
    std::size_t total_steps = 0;
    std::size_t total_refs = 0;
    for (const workload::StripeError& err : errors) {
      schemes.push_back(ctx_.lookup_scheme(err.error, config_.scheme));
      total_steps += schemes.back()->steps.size();
      for (const recovery::RecoveryStep& step : schemes.back()->steps) {
        total_refs += layout_->chain(step.chain_id).cells.size() - 1;
      }
    }
    tasks_.reserve(total_steps);
    chunks_.reserve(total_refs + total_steps);
    member_arena_.reserve(total_refs);
    await_arena_.reserve(total_steps * 2);
    waiter_links_.reserve(total_refs);
    // Every event indexes these arenas at a random offset; at sweep scale
    // they span far more 4 KiB pages than the TLB holds, so advise huge
    // pages now, before planning faults them in.
    util::advise_hugepages(tasks_.data(),
                           tasks_.capacity() * sizeof(ChainTask));
    util::advise_hugepages(chunks_.data(),
                           chunks_.capacity() * sizeof(ChunkInfo));
    util::advise_hugepages(member_arena_.data(),
                           member_arena_.capacity() * sizeof(Member));
    util::advise_hugepages(waiter_links_.data(),
                           waiter_links_.capacity() * sizeof(WaiterLink));
    if (config_.verify_data) {
      verify_states_.reserve(errors.size());
    }

    // Planning-time chunk registration: a dense cell -> id table for the
    // stripe in hand (reset on stripe change, L1-resident) replaces the
    // global hash probe, and dedups the stripe's reads. Revisited stripes
    // — legal in a caller-supplied trace — replay their previously minted
    // id ranges into the table, so ids stay identical to what the global
    // map would have returned. The same ranges, extended by
    // chunk_id_or_new, are the replanner's per-stripe chunk index.
    std::vector<std::uint32_t> stripe_ids(
        static_cast<std::size_t>(layout_->num_cells()), kNoId);
    std::uint64_t ids_stripe = ~std::uint64_t{0};
    std::vector<bool> lost;  // reused across stripes, one allocation
    for (std::size_t e = 0; e < errors.size(); ++e) {
      const workload::StripeError& err = errors[e];
      const recovery::RecoveryScheme& scheme = *schemes[e];
      if (err.stripe != ids_stripe) {  // an adjacent repeat keeps the table
        std::fill(stripe_ids.begin(), stripe_ids.end(), kNoId);
        ids_stripe = err.stripe;
        const auto it = stripe_ranges_.find(err.stripe);
        if (it != stripe_ranges_.end()) {
          for (const auto& [first, last] : it->second) {
            for (std::uint32_t id = first; id < last; ++id) {
              stripe_ids[cell_index(chunks_[id].cell)] = id;
            }
          }
        }
      }
      const auto range_start = static_cast<std::uint32_t>(chunks_.size());
      lost.assign(static_cast<std::size_t>(layout_->num_cells()), false);
      for (const codes::Cell& c : err.error.cells()) {
        lost[cell_index(c)] = true;
      }
      if (config_.verify_data) {
        auto [vit, vfresh] = verify_states_.try_emplace(
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
        open_task(task, cells.size() - 1);
        std::uint16_t pos = 0;
        for (const codes::Cell& c : cells) {
          if (c == step.target) {
            continue;
          }
          std::uint32_t& id = stripe_ids[cell_index(c)];
          if (id == kNoId) {  // first sight: one planned read per chunk
            id = new_chunk(err.stripe, c, priority_in(scheme, c));
            ChunkInfo& ci = chunks_[id];
            ci.lost = lost[cell_index(c)];
            if (!ci.lost) {
              readers_[static_cast<std::size_t>(ci.home_disk)]
                  .queue.push_back(PlannedRead{ci.key, ci.lba, id, false});
            }
          }
          add_member(task, id, pos++, /*awaiting=*/true);
        }
        std::uint32_t& tid = stripe_ids[cell_index(step.target)];
        if (tid == kNoId) {
          tid = new_chunk(err.stripe, step.target, task.target_priority);
          chunks_[tid].lost = true;
        }
        task.target_id = tid;
        tasks_.push_back(task);
      }
      if (chunks_.size() > range_start) {
        stripe_ranges_[err.stripe].push_back(
            {range_start, static_cast<std::uint32_t>(chunks_.size())});
      }
    }
    for (Reader& r : readers_) {  // LBA order: sequential streaming per disk
      std::ranges::sort(r.queue, {}, &PlannedRead::lba);
      ctx_.metrics.planned_disk_reads += r.queue.size();
    }
  }

  std::size_t cell_index(codes::Cell c) const {
    return static_cast<std::size_t>(layout_->cell_index(c));
  }

  /// `c`'s buffer priority under `scheme` (FBF's dictionary, at least 1).
  std::uint8_t priority_in(const recovery::RecoveryScheme& scheme,
                           codes::Cell c) const {
    return std::max<std::uint8_t>(scheme.priority[cell_index(c)], 1);
  }

  /// Registers chunk (stripe, c) at `priority` and returns its dense id.
  /// The home placement is cached on the chunk line, so the per-round
  /// re-read path never re-derives disk or LBA.
  std::uint32_t new_chunk(std::uint64_t stripe, codes::Cell c,
                          std::uint8_t priority) {
    const auto id = static_cast<std::uint32_t>(chunks_.size());
    ChunkInfo& ci = chunks_.emplace_back();
    ci.key = geometry_->chunk_key(stripe, c);
    ci.stripe = stripe;
    ci.cell = c;
    ci.lba = geometry_->lba_of(stripe, c);
    ci.home_disk = geometry_->disk_of(stripe, c);
    ci.priority = priority;
    return id;
  }

  // The global key -> dense id map is built LAZILY. Planning dedups chunks
  // with a per-stripe cell table (chains only ever share cells inside
  // their own stripe), and fault-free runs carry every id they need on the
  // task and chunk records — so the common path never pays for a table
  // that spans tens of megabytes and eats one random DRAM write per chunk.
  // The fault and foreground paths, which genuinely resolve arbitrary
  // keys mid-run, build it once from the chunk arena on first use.
  void ensure_key_map() {
    if (key_map_.has_value()) {
      return;
    }
    key_map_.emplace(chunks_.size() + 1);
    for (std::size_t id = 0; id < chunks_.size(); ++id) {
      key_map_->find_or_insert(chunks_[id].key, static_cast<std::uint32_t>(id));
    }
  }

  /// Dense id of chunk (stripe, c) through the global key map, registering
  /// it at `priority` on first sight (fault paths only).
  std::uint32_t chunk_id_or_new(std::uint64_t stripe, codes::Cell c,
                                std::uint8_t priority) {
    ensure_key_map();
    const auto [id, fresh] =
        key_map_->find_or_insert(geometry_->chunk_key(stripe, c),
                                static_cast<std::uint32_t>(chunks_.size()));
    if (fresh) {
      new_chunk(stripe, c, priority);
      append_id(stripe_ranges_[stripe], id);
    }
    return id;
  }

  /// The foreground server's hook: the disk a spare write of `key` landed
  /// on, or -1 while it has none.
  int spare_disk_of_key(std::uint64_t key) const {
    const std::uint32_t id = key_map_ ? key_map_->find(key) : kNoId;
    return id != kNoId ? chunks_[id].spare_disk : -1;
  }

  /// The awaiting-bitset word owning member position `pos` (see
  /// ChainTask::await0 — single-word tasks keep it inline).
  std::uint64_t& await_word(ChainTask& task, std::uint32_t pos) {
    return task.await_words <= 1 ? task.await0
                                 : await_arena_[task.await_off + (pos >> 6)];
  }

  /// A task recovering `step.target` of `stripe` through its chain, at
  /// the target's priority in `scheme`; members are the caller's.
  ChainTask chain_task(std::uint64_t stripe,
                       const recovery::RecoveryStep& step,
                       const recovery::RecoveryScheme& scheme) const {
    ChainTask task;
    task.stripe = stripe;
    task.target = step.target;
    task.chain_id = static_cast<std::int16_t>(step.chain_id);
    task.target_priority = priority_in(scheme, step.target);
    return task;
  }

  /// Opens `task`'s window of `members` members at the end of the member
  /// arena, with its awaiting words; add_member fills it.
  void open_task(ChainTask& task, std::size_t members) {
    task.mem_off = static_cast<std::uint32_t>(member_arena_.size());
    task.mem_len = static_cast<std::uint32_t>(members);
    task.n_members = static_cast<std::uint16_t>(members);
    task.await_words = static_cast<std::uint32_t>((members + 63) / 64);
    if (task.await_words > 1) {
      task.await_off = static_cast<std::uint32_t>(await_arena_.size());
      await_arena_.insert(await_arena_.end(), task.await_words, 0);
    }
  }

  /// Appends chunk `id` as member `pos` of `task`, the next task to be
  /// pushed, and the task to the chunk's waiters (in registration order);
  /// an `awaiting` member arms its bit, so the task completes only once
  /// the chunk is delivered.
  void add_member(ChainTask& task, std::uint32_t id, std::uint16_t pos,
                  bool awaiting) {
    ChunkInfo& ci = chunks_[id];
    member_arena_.push_back(Member{ci.key, id, pos, ci.priority});
    if (awaiting) {
      await_word(task, pos) |= std::uint64_t{1} << (pos & 63);
      ++task.awaiting_count;
    }
    const auto t = static_cast<std::uint32_t>(tasks_.size());
    if (ci.w0_task == kNoWaiter && ci.waiters_head == kNoWaiter) {
      ci.w0_task = t;
      ci.w0_pos = pos;
      return;
    }
    const auto link = static_cast<std::uint32_t>(waiter_links_.size());
    waiter_links_.push_back(WaiterLink{t, kNoWaiter, pos});
    if (ci.waiters_head == kNoWaiter) {
      ci.waiters_head = link;
    } else {
      waiter_links_[ci.waiters_tail].next = link;
    }
    ci.waiters_tail = link;
  }

  // Batched cache admission. Deliveries append to the install batch; it
  // flushes through install_batch (≡ sequential installs) immediately
  // before the next cache read — a completion's touch_batch, a replan's
  // contains() probe, or the final stats export — so the cache passes
  // through the exact same state sequence at every observation point.
  void flush_installs() {
    if (!pend_install_keys_.empty()) {
      cache_->install_batch(pend_install_keys_.data(),
                            pend_install_pris_.data(),
                            pend_install_keys_.size());
      pend_install_keys_.clear();
      pend_install_pris_.clear();
    }
  }

  /// Fault path: a read settles its outcome at submission, so one in
  /// flight when its copy died (a disk failure) still delivers the
  /// chunk's bytes. They equal the truth: an original copy always does,
  /// and a spare copy was verified when it was recovered.
  void verify_mark_read(std::uint32_t id) {
    const ChunkInfo& ci = chunks_[id];
    if (ci.lost && !ci.recovered) {  // else the working bytes are live
      verify_states_.at(ci.stripe).restore(ci.cell);
    }
  }

  void submit_planned(std::size_t d, double requested, double submit_t) {
    const PlannedRead read = readers_[d].take();
    const RunContext::Read rr = ctx_.rebuild_read(
        static_cast<int>(d), submit_t, read.lba, read.key, !read.spare);
    ctx_.sample_response(rr.done_ms - requested + config_.cache_access_ms);
    queue_.push(Event{rr.done_ms, seq_++,
                      rr.ok ? Event::Kind::ReadDone : Event::Kind::ReadFailed,
                      static_cast<std::uint32_t>(d), read.id});
  }

  void kick_reader(std::size_t d, double now) {
    Reader& r = readers_[d];
    if (r.busy || r.idle_empty()) {
      return;
    }
    r.busy = true;
    if (ctx_.throttle.has_value()) {
      const double grant = ctx_.throttle->acquire(now);
      if (grant > now) {
        r.requested_at = now;
        queue_.push(Event{grant, seq_++, Event::Kind::ThrottledSubmit,
                          static_cast<std::uint32_t>(d), 0});
        return;
      }
    }
    submit_planned(d, now, now);
  }

  /// Disk of a recovered chunk's spare copy: where its write landed, or
  /// the geometry's choice while none has.
  int spare_disk(const ChunkInfo& ci) const {
    return ci.spare_disk >= 0 ? ci.spare_disk
                              : geometry_->spare_disk_of(ci.stripe, ci.cell);
  }

  /// Queues a read of chunk `id`'s live copy (a lost chunk's spare copy,
  /// else its home copy) on that copy's reader; returns the disk.
  std::size_t queue_live_read(std::uint32_t id) {
    const ChunkInfo& ci = chunks_[id];
    const bool spare = ci.lost;  // recovered chunks live in the spare area
    const auto d =
        static_cast<std::size_t>(spare ? spare_disk(ci) : ci.home_disk);
    const std::uint64_t lba =
        spare ? geometry_->spare_lba_from(ci.home_disk, ci.lba) : ci.lba;
    readers_[d].queue.push_back(PlannedRead{ci.key, lba, id, spare});
    return d;
  }

  void attempt_completion(std::size_t t, double now, cache::Key fresh) {
    ChainTask& task = tasks_[t];
    if (task.done) {
      return;
    }
    Member* mem = member_arena_.data() + task.mem_off;
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
    touch_keys_.resize(n);
    touch_pris_.resize(n);
    cache::Key* const keys = touch_keys_.data();
    std::uint8_t* const pris = touch_pris_.data();
    const ChunkInfo* const chunks = chunks_.data();
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = mem[i].key;
      pris[i] = mem[i].priority;
      // Any member the touch below misses is immediately re-read, and
      // queue_live_read chases its ChunkInfo — a cold line at storm
      // scale. Fetch them all now, hidden behind the batch touch.
      __builtin_prefetch(chunks + mem[i].id);
    }
    touch_hits_.resize((n + 63) / 64);
    cache_->touch_batch(keys, pris, n, touch_hits_.data());
    ctx_.metrics.total_chunk_requests += n;
    // Keep the misses, stably, in place.
    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (((touch_hits_[i >> 6] >> (i & 63)) & 1) == 0) {
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
        kick_reader(queue_live_read(mem[i].id), now);
      }
      return;
    }
    task.done = true;
    ++tasks_done_;
    const double xor_done =
        now + config_.xor_ms_per_chunk * static_cast<double>(task.n_members);
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidSim, 0,
                    "chain_fold", "xor", now * 1000.0, (xor_done - now) * 1000.0,
                    "stripe", task.stripe);
    if (config_.verify_data) {
      VerifyImages& images = verify_states_.at(task.stripe);
      if (task.gauss_len == 0) {
        images.fold_chain(task.chain_id, task.target);
      } else {
        // Gauss tasks solve the whole pattern, then check every target.
        images.solve_gauss(std::vector<codes::Cell>(
            gauss_arena_.begin() + task.gauss_off,
            gauss_arena_.begin() + task.gauss_off + task.gauss_len));
      }
    }
    if (task.gauss_len == 0) {
      write_target(task.stripe, task.target, task.target_id, xor_done);
    } else {
      // Gauss tasks only come from the replan path, which registers their
      // targets through the key map — find() is safe here.
      for (std::uint32_t g = 0; g < task.gauss_len; ++g) {
        const codes::Cell c = gauss_arena_[task.gauss_off + g];
        write_target(task.stripe, c,
                     key_map_->find(geometry_->chunk_key(task.stripe, c)),
                     xor_done);
      }
    }
  }

  /// Writes recovered chunk `tid` (`target` of `stripe`) to the spare area
  /// once its fold is done at `xor_done`.
  void write_target(std::uint64_t stripe, codes::Cell target,
                    std::uint32_t tid, double xor_done) {
    FBF_CHECK(tid != kNoId, "spare write for an unregistered chunk");
    const RunContext::SpareWrite sw = ctx_.spare_write(
        geometry_->spare_disk_of(stripe, target),
        geometry_->spare_lba_of(stripe, target), xor_done, stripe);
    chunks_[tid].write_pending = true;
    queue_.push(Event{sw.done_ms, seq_++, Event::Kind::SpareWriteDone,
                      static_cast<std::uint32_t>(sw.disk), tid});
  }

  // Delivery: pend the install (batched; flushed before the next cache
  // read) and wake the waiters — one bit clear per waiter instead of a
  // key-list scan.
  void deliver(std::uint32_t id, double now) {
    // Copy everything needed out of the chunk (and out of each link)
    // before waking tasks: a completion may register new chunks or
    // waiter links, growing either arena.
    const cache::Key key = chunks_[id].key;
    const std::uint32_t w0_task = chunks_[id].w0_task;
    const std::uint16_t w0_pos = chunks_[id].w0_pos;
    const std::uint32_t links_head = chunks_[id].waiters_head;
    pend_install_keys_.push_back(key);
    pend_install_pris_.push_back(chunks_[id].priority);
    if (w0_task != kNoWaiter) {
      wake(w0_task, w0_pos, key, now);
    }
    for (std::uint32_t l = links_head; l != kNoWaiter;) {
      const WaiterLink link = waiter_links_[l];
      l = link.next;
      wake(link.task, link.member_pos, key, now);
    }
  }

  /// Delivers member `pos` of task `t` (chunk `key`): clears its awaiting
  /// bit, and the last bit cleared completes the chain.
  void wake(std::uint32_t t, std::uint16_t pos, cache::Key key, double now) {
    ChainTask& task = tasks_[t];
    if (task.done) {
      return;
    }
    if (task.awaiting_count == 1) {
      // This wake completes the chain: attempt_completion's first act is
      // a scan of the member slice, so start that line now.
      __builtin_prefetch(member_arena_.data() + task.mem_off);
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
  }

  void spare_write_done(const Event& ev) {
    ChunkInfo& ci = chunks_[ev.id];
    ci.write_pending = false;
    if (ctx_.fault_plan.has_value() &&
        ctx_.fault_plan->disk_failed(static_cast<int>(ev.disk), ev.t)) {
      // The write was in flight when its target disk died: the copy
      // never became durable. Recover the chunk again; waiters are
      // superseded by the replan, so nothing is delivered.
      ++ctx_.metrics.fault.respared;
      lose_live_copy(ci);
      replan_stripe(ci.stripe, ev.t);
      return;
    }
    ci.recovered = true;
    ci.spare_disk = static_cast<int>(ev.disk);
    deliver(ev.id, ev.t);
    if (!app_trace_->empty()) {
      const ChunkInfo& done = chunks_[ev.id];  // re-indexed: deliver may move
      ctx_.foreground.on_loss_recovered(done.stripe, done.cell, ev.t);
    }
  }

  // ---- Fault path: re-planning around mid-recovery losses. ----
  // Per-stripe task index (DESIGN §11, "Replan cost"), built LAZILY like
  // the key map: fault-free runs never replan, so they never pay for it.
  // A replan supersedes every live task of its stripe, so it clears the
  // stripe's ranges and refills them with the tasks it mints; each task is
  // therefore visited by at most one replan.
  void ensure_task_ranges() {
    if (task_ranges_built_) {
      return;
    }
    task_ranges_built_ = true;
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      append_id(task_ranges_[tasks_[t].stripe], static_cast<std::uint32_t>(t));
    }
    ctx_.metrics.replan_records_scanned += tasks_.size();
  }

  void replan_stripe(std::uint64_t stripe, double now) {
    ensure_task_ranges();
    flush_installs();  // the contains() probes below read cache state
    // Visit order cannot reach the results: superseding is a set
    // operation, and the outstanding list is sorted before use.
    IdRanges& live_tasks = task_ranges_[stripe];
    for (const auto& [first, last] : live_tasks) {
      ctx_.metrics.replan_records_scanned += last - first;
      for (std::uint32_t t = first; t < last; ++t) {
        if (!tasks_[t].done) {
          tasks_[t].done = true;  // superseded by the new plan
          ++tasks_done_;
        }
      }
    }
    live_tasks.clear();
    std::vector<codes::Cell> outstanding;
    for (const auto& [first, last] : stripe_ranges_[stripe]) {
      ctx_.metrics.replan_records_scanned += last - first;
      for (std::uint32_t id = first; id < last; ++id) {
        const ChunkInfo& ci = chunks_[id];
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
                            ctx_.fault_plan->failed_disks_at(now));
    }
    const recovery::FaultScheme fs =
        recovery::generate_fault_scheme(*layout_, outstanding);
    ++ctx_.metrics.schemes_generated;
    if (!fs.gauss_cells.empty()) {
      ++ctx_.metrics.fault.gauss_fallbacks;
    }
    const std::size_t first_new = tasks_.size();
    for (const recovery::RecoveryStep& step : fs.scheme.steps) {
      std::vector<codes::Cell> members = layout_->chain(step.chain_id).cells;
      std::erase(members, step.target);
      add_task(chain_task(stripe, step, fs.scheme), members, fs.scheme, now);
    }
    if (!fs.gauss_cells.empty()) {
      ChainTask task;
      task.stripe = stripe;
      task.gauss_off = static_cast<std::uint32_t>(gauss_arena_.size());
      task.gauss_len = static_cast<std::uint32_t>(fs.gauss_cells.size());
      gauss_arena_.insert(gauss_arena_.end(), fs.gauss_cells.begin(),
                          fs.gauss_cells.end());
      // Members: each distinct non-Gauss cell of the Gauss chains.
      std::vector<bool> seen(static_cast<std::size_t>(layout_->num_cells()),
                             false);
      for (const codes::Cell& c : fs.gauss_cells) {
        seen[cell_index(c)] = true;
      }
      std::vector<codes::Cell> members;
      for (int chain_id : fs.gauss_chains) {
        for (const codes::Cell& c : layout_->chain(chain_id).cells) {
          if (!seen[cell_index(c)]) {
            seen[cell_index(c)] = true;
            members.push_back(c);
          }
        }
      }
      add_task(task, members, fs.scheme, now);
    }
    for (std::size_t t = first_new; t < tasks_.size(); ++t) {
      append_id(live_tasks, static_cast<std::uint32_t>(t));
      if (tasks_[t].awaiting_count == 0 && !tasks_[t].done) {
        attempt_completion(t, now,
                           tasks_[t].mem_len == 0
                               ? 0
                               : member_arena_[tasks_[t].mem_off].key);
      }
    }
  }

  /// Appends a replan task over `members` of its stripe. It waits on each
  /// member that is lost and not yet recovered, and on each survivor the
  /// buffer does not hold, which is read at once; a buffered survivor is
  /// consumed at completion.
  void add_task(ChainTask task, const std::vector<codes::Cell>& members,
                const recovery::RecoveryScheme& scheme, double now) {
    open_task(task, members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const codes::Cell c = members[i];
      const std::uint32_t id =
          chunk_id_or_new(task.stripe, c, priority_in(scheme, c));
      const ChunkInfo& ci = chunks_[id];
      const bool unrecovered = ci.lost && !ci.recovered;
      const bool read = !unrecovered && !cache_->contains(ci.key);
      add_member(task, id, static_cast<std::uint16_t>(i),
                 unrecovered || read);
      if (read) {
        ++ctx_.metrics.planned_disk_reads;
        kick_reader(queue_live_read(id), now);
      }
    }
    if (task.gauss_len == 0) {
      task.target_id = register_target(task.stripe, task.target, scheme);
    } else {
      for (std::uint32_t g = 0; g < task.gauss_len; ++g) {
        register_target(task.stripe, gauss_arena_[task.gauss_off + g], scheme);
      }
    }
    tasks_.push_back(task);
  }

  std::uint32_t register_target(std::uint64_t stripe, codes::Cell target,
                                const recovery::RecoveryScheme& scheme) {
    const std::uint32_t id =
        chunk_id_or_new(stripe, target, priority_in(scheme, target));
    chunks_[id].lost = true;
    return id;
  }

  // A chunk lost its live copy, so it is rebuilt (again): a survivor joins
  // the lost set, a recovered chunk drops its spare copy.
  void lose_live_copy(ChunkInfo& ci) {
    ++ctx_.metrics.fault.extra_lost_chunks;
    if (config_.verify_data) {
      verify_states_.at(ci.stripe).erase(ci.cell);
    }
    if (ci.lost) {
      ci.recovered = false;
      ci.spare_disk = -1;
    } else {
      ci.lost = true;
    }
  }

  void hard_read_failure(std::uint32_t id, double now) {
    ChunkInfo& ci = chunks_[id];
    if (ci.lost && !ci.recovered) {
      return;  // already pending recovery: a stale queued read drained
    }
    ++ctx_.metrics.fault.replans;
    lose_live_copy(ci);
    replan_stripe(ci.stripe, now);
  }

  void disk_fail(const Event& ev) {
    const int failed = static_cast<int>(ev.disk);
    ctx_.disk_failed(failed, ev.t);
    // Deterministic spare invalidation (DESIGN.md §11's former gap):
    // every spare copy on the failed disk dies with it — whatever column
    // its home was — not just the failed column's cells. The chunk arena
    // scan is index-ordered, hence deterministic.
    std::unordered_set<std::uint64_t> respare_stripes;
    for (ChunkInfo& ci : chunks_) {
      if (!ci.recovered || spare_disk(ci) != failed) {
        continue;
      }
      ++ctx_.metrics.fault.respared;  // spare copy died with the disk
      lose_live_copy(ci);
      respare_stripes.insert(ci.stripe);
    }
    // Stripes touched only through dead spare copies (no data column on
    // the failed disk — possible once the pool is wider than a stripe)
    // replan as an escalation pass too.
    for (const workload::StripeError& traced : *errors_) {
      const int col = ctx_.column_on(traced.stripe, failed);
      if (col < 0 && respare_stripes.count(traced.stripe) == 0) {
        continue;  // the failed disk holds nothing of this stripe
      }
      ++ctx_.metrics.fault.escalated_stripes;
      for (int r = 0; col >= 0 && r < layout_->rows(); ++r) {
        const codes::Cell cell{static_cast<std::int16_t>(r),
                               static_cast<std::int16_t>(col)};
        ChunkInfo& ci = chunks_[chunk_id_or_new(traced.stripe, cell, 1)];
        if (!ci.lost) {
          lose_live_copy(ci);  // original copy homed on the dead disk
        }
      }
      replan_stripe(traced.stripe, ev.t);
    }
  }

  bool pending() const {
    return !queue_.empty() || next_arrival_ < arrivals_.size();
  }

  Event pop_next() {
    if (next_arrival_ < arrivals_.size()) {
      const std::uint32_t i = arrivals_[next_arrival_];
      const Event arrival{(*app_trace_)[i].arrival_ms, arrival_seq0_ + i,
                          Event::Kind::AppArrival, 0, i};
      if (queue_.empty() || queue_.ahead(0) > arrival) {
        ++next_arrival_;
        return arrival;
      }
    }
    return queue_.pop();
  }

  // Lookahead prefetch (DESIGN §14). A delivery stalls on three random
  // lines: its chunk, the task (or waiter link) the chunk names, and the
  // reader-queue head its disk's next submission takes. The window holds
  // the pending events in pop order, so each line is requested a few pops
  // before it is needed. The chunk goes furthest ahead because the task's
  // address is read from it: by the time an event is kTaskAhead pops
  // away, its chunk line has landed and naming the task costs no stall.
  // The reader head needs only the small, always-cached Reader record.
  static constexpr std::size_t kChunkAhead = 6;
  static constexpr std::size_t kReaderAhead = 3;
  static constexpr std::size_t kTaskAhead = 2;
  void prefetch_ahead() {
    const std::size_t n = queue_.size();
    if (n == 0) {
      return;
    }
    // A short window prefetches its last event, so every event is still
    // fetched at least once on its way to the head.
    const Event& far = queue_.ahead(std::min(n, kChunkAhead) - 1);
    if (far.names_chunk()) {
      __builtin_prefetch(chunks_.data() + far.id);
    }
    if (n >= kReaderAhead) {
      const Event& e = queue_.ahead(kReaderAhead - 1);
      if (e.kind == Event::Kind::ReadDone ||
          e.kind == Event::Kind::ThrottledSubmit) {
        const Reader& r = readers_[e.disk];
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
      const Event& e = queue_.ahead(kTaskAhead - 1);
      if (e.names_chunk()) {
        const ChunkInfo& ci = chunks_[e.id];
        if (ci.w0_task != kNoWaiter) {
          __builtin_prefetch(tasks_.data() + ci.w0_task);
        }
        if (ci.waiters_head != kNoWaiter) {
          // Multi-chain chunk: the delivery also walks the overflow
          // waiter list, another random arena access.
          __builtin_prefetch(waiter_links_.data() + ci.waiters_head);
        }
      }
    }
  }

  const codes::Layout* layout_;
  const ArrayGeometry* geometry_;
  const DorConfig config_;
  const std::vector<workload::StripeError>* errors_;
  const std::vector<workload::AppRequest>* app_trace_;
  /// Chunk records and the key map that resolves them (ensure_key_map).
  /// Declared before ctx_: the foreground server asks them where a spare
  /// copy landed.
  std::vector<ChunkInfo> chunks_;
  std::optional<KeyIdMap> key_map_;
  RunContext ctx_;
  const std::unique_ptr<cache::CachePolicy> cache_;
  std::vector<ChainTask> tasks_;
  std::size_t tasks_done_ = 0;
  std::vector<Member> member_arena_;
  std::vector<std::uint64_t> await_arena_;
  std::vector<codes::Cell> gauss_arena_;
  std::vector<WaiterLink> waiter_links_;
  std::vector<Reader> readers_;  ///< one per pool disk
  /// Each stripe's chunk and task ids (DESIGN §11, "Replan cost").
  std::unordered_map<std::uint64_t, IdRanges> stripe_ranges_;
  std::unordered_map<std::uint64_t, IdRanges> task_ranges_;
  bool task_ranges_built_ = false;
  EventWindow<Event> queue_;
  std::uint64_t seq_ = 0;
  /// App arrivals in (arrival_ms, index) order, streamed by pop_next;
  /// arrival i carries seq arrival_seq0_ + i.
  std::vector<std::uint32_t> arrivals_;
  std::uint64_t arrival_seq0_ = 0;
  std::size_t next_arrival_ = 0;
  /// The install batch (flush_installs) and the touch scratch
  /// (attempt_completion).
  std::vector<cache::Key> pend_install_keys_;
  std::vector<std::uint8_t> pend_install_pris_;
  std::vector<cache::Key> touch_keys_;
  std::vector<std::uint8_t> touch_pris_;
  std::vector<std::uint64_t> touch_hits_;
  /// verify_data: each traced stripe's truth and working bytes.
  std::unordered_map<std::uint64_t, VerifyImages> verify_states_;
};

__attribute__((hot)) SimMetrics DorRun::execute() {
  plan();
  if (!app_trace_->empty()) {
    // Foreground reads probe arbitrary keys, so they need the global map;
    // pure-recovery runs (the common benchmark shape) never build it.
    ensure_key_map();
  }

  // Pending events wait in a window sorted in pop order (DESIGN §12).
  // Each reader has at most one in-flight read or throttled submission.
  // Spare-write completions number one per task when fault-free; replans
  // mint extras, bounded by the escalation arithmetic plus a slab for
  // URE/transient re-recoveries. Then come the DiskFail events and one
  // FlushTick. App arrivals never enter the window (see the stream
  // below). The regrowth counter (asserted zero by the fault tests) pins
  // these bounds.
  std::size_t bound = readers_.size() + tasks_.size();
  if (ctx_.fault_plan.has_value()) {
    const std::size_t failures = ctx_.disk_failures().size();
    bound += failures;  // the DiskFail events themselves
    // Escalation: each failure re-targets at most one column of every
    // traced stripe.
    bound += failures * errors_->size() *
             static_cast<std::size_t>(layout_->rows());
    if (config_.faults.ure_rate > 0.0 || config_.faults.transient_rate > 0.0) {
      bound += 1024;  // replan slab: re-recovered chunks
    }
  }
  if (ctx_.flush_ticks_on) {
    bound += 1;  // at most one FlushTick is pending at a time
  }
  queue_.reserve(bound);

  for (std::size_t d = 0; d < readers_.size(); ++d) {
    kick_reader(d, 0.0);
  }
  for (const DiskFailure& f : ctx_.disk_failures()) {
    queue_.push(Event{f.at_ms, seq_++, Event::Kind::DiskFail,
                      static_cast<std::uint32_t>(f.disk), 0});
  }
  // App arrivals stream in beside the window instead of through it: a
  // trace of tens of thousands of arrivals would otherwise sit in the
  // window for most of the run, and every push would have to scan past
  // the ones due before it. Arrival i keeps the seq a push here would
  // give it, and the stream yields arrivals in (arrival_ms, i) order,
  // which is their (t, seq) order; so taking the earlier of the stream's
  // head and the window's at each pop (pop_next) is a pop from one queue
  // holding both.
  const std::vector<workload::AppRequest>& app_trace = *app_trace_;
  arrivals_.resize(app_trace.size());
  std::iota(arrivals_.begin(), arrivals_.end(), 0u);
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [&app_trace](std::uint32_t a, std::uint32_t b) {
                     return app_trace[a].arrival_ms < app_trace[b].arrival_ms;
                   });
  arrival_seq0_ = seq_;
  seq_ += app_trace.size();
  if (ctx_.flush_ticks_on) {
    queue_.push(Event{config_.write.flush_interval_ms, seq_++,
                      Event::Kind::FlushTick, 0, 0});
  }

  SimMetrics& metrics = ctx_.metrics;
  double makespan = 0.0;
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
        if (config_.verify_data) {
          verify_mark_read(ev.id);
        }
        deliver(ev.id, ev.t);
        readers_[ev.disk].busy = false;
        kick_reader(ev.disk, ev.t);
        break;
      case Event::Kind::SpareWriteDone:
        spare_write_done(ev);
        break;
      case Event::Kind::ReadFailed:
        // Free the reader first: the replan may enqueue onto this disk.
        readers_[ev.disk].busy = false;
        kick_reader(ev.disk, ev.t);
        hard_read_failure(ev.id, ev.t);
        break;
      case Event::Kind::DiskFail:
        disk_fail(ev);
        break;
      case Event::Kind::AppArrival:
        ctx_.foreground.on_arrival(static_cast<std::size_t>(ev.id), ev.t);
        break;
      case Event::Kind::ThrottledSubmit:
        submit_planned(ev.disk, readers_[ev.disk].requested_at, ev.t);
        break;
      case Event::Kind::FlushTick:
        // Re-arm while anything else is pending, arrivals included.
        ctx_.foreground.on_flush_tick(ev.t);
        if (pending()) {
          queue_.push(Event{ev.t + config_.write.flush_interval_ms, seq_++,
                            Event::Kind::FlushTick, 0, 0});
        }
        break;
    }
  }
  FBF_CHECK(tasks_done_ == tasks_.size(),
            "DOR finished with incomplete chains — dependency deadlock");
  flush_installs();  // trailing deliveries reach the cache before export
  metrics.reconstruction_ms = makespan;
  metrics.stripes_recovered = errors_->size() + metrics.fault.escalated_stripes;
  metrics.cache = cache_->stats();
  return ctx_.finish(queue_.regrowths(), queue_.pushes(), last_event_ms);
}

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
  return DorRun(*layout_, *geometry_, config_, errors, app_trace).execute();
}

}  // namespace fbf::sim
