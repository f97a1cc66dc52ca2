#include "sim/foreground.h"

#include <algorithm>

#include "recovery/write_plan.h"
#include "util/check.h"

namespace fbf::sim {

RebuildThrottle::RebuildThrottle(const ThrottleConfig& config)
    : interval_ms_(1000.0 / config.rebuild_reads_per_sec),
      burst_(static_cast<double>(config.burst)),
      tokens_(static_cast<double>(config.burst)) {
  FBF_CHECK(config.rebuild_reads_per_sec > 0.0,
            "throttle rate must be positive (0 disables the throttle)");
  FBF_CHECK(config.burst >= 1, "throttle burst must be at least 1");
}

double RebuildThrottle::acquire(double now_ms) {
  // last_ms_ may sit in the future after a deferred grant; only elapsed
  // time refills the bucket.
  if (now_ms > last_ms_) {
    tokens_ = std::min(burst_, tokens_ + (now_ms - last_ms_) / interval_ms_);
    last_ms_ = now_ms;
  }
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return now_ms;
  }
  // The next token is minted (and immediately spent) at `grant`.
  const double grant = last_ms_ + (1.0 - tokens_) * interval_ms_;
  tokens_ = 0.0;
  last_ms_ = grant;
  return grant;
}

ForegroundServer::ForegroundServer(
    const codes::Layout& layout, const ArrayGeometry& geometry,
    std::vector<Disk>& disks, const std::vector<workload::StripeError>& errors,
    const std::vector<workload::AppRequest>& trace, SimMetrics& metrics,
    FaultInjector* app_injector,
    std::function<int(std::uint64_t)> spare_disk_override,
    const WritePathConfig& write_config)
    : layout_(&layout),
      geometry_(&geometry),
      disks_(&disks),
      trace_(&trace),
      metrics_(&metrics),
      injector_(app_injector),
      spare_disk_override_(std::move(spare_disk_override)),
      write_config_(write_config),
      memo_disks_(static_cast<std::size_t>(layout.cols())) {
  // The stripe records exist to classify app I/O; with no trace nothing
  // ever consults them.
  if (trace.empty()) {
    return;
  }
  if (write_config_.enabled()) {
    write_cache_ =
        cache::make_policy(write_config_.policy, write_config_.cache_chunks);
    metrics_->write.enabled = true;
  }
  words_ = (static_cast<std::size_t>(layout.num_cells()) + 63) / 64;
  stripe_ids_ = KeyIdMap(errors.size());
  records_.reserve(errors.size());
  for (const workload::StripeError& e : errors) {
    const auto [id, fresh] = stripe_ids_.find_or_insert(
        e.stripe, static_cast<std::uint32_t>(records_.size()));
    if (fresh) {
      records_.emplace_back();
      loss_bits_.resize(loss_bits_.size() + 2 * words_, 0);
    }
    // A stripe the trace lists twice counts each lost cell once.
    for (const codes::Cell& c : e.error.cells()) {
      std::uint64_t mask = 0;
      const std::size_t lost = loss_word(id, 0, c, mask);
      if ((loss_bits_[lost] & mask) != 0) {
        continue;
      }
      loss_bits_[lost] |= mask;
      loss_bits_[loss_word(id, 1, c, mask)] |= mask;
      ++records_[id].pending;
    }
  }
}

bool ForegroundServer::traced_loss(std::uint64_t stripe,
                                   codes::Cell cell) const {
  const std::uint32_t id = record_id(stripe);
  if (id == KeyIdMap::kNoId) {
    return false;
  }
  std::uint64_t mask = 0;
  return (loss_bits_[loss_word(id, 0, cell, mask)] & mask) != 0;
}

bool ForegroundServer::stripe_under_repair(std::uint64_t stripe) const {
  const std::uint32_t id = record_id(stripe);
  return id != KeyIdMap::kNoId && !records_[id].repaired;
}

ForegroundServer::Location ForegroundServer::locate(std::uint64_t stripe,
                                                    codes::Cell cell) {
  if (stripe != memo_disks_stripe_) {
    geometry_->stripe_disks(stripe, memo_disks_);
    memo_disks_stripe_ = stripe;
  }
  const int home = memo_disks_[static_cast<std::size_t>(cell.col)];
  const std::uint64_t lba = geometry_->lba_of(stripe, cell);
  if (!traced_loss(stripe, cell)) {
    return Location{home, lba};
  }
  // Damaged chunks live in the spare area; the original sector is dead.
  int disk = spare_disk_override_
                 ? spare_disk_override_(geometry_->chunk_key(stripe, cell))
                 : -1;
  if (disk < 0) {
    disk = geometry_->spare_disk_from(home, stripe, cell.row);
  }
  return Location{disk, geometry_->spare_lba_from(home, lba)};
}

bool ForegroundServer::damaged_unrepaired(std::uint64_t stripe,
                                          codes::Cell cell) const {
  return stripe_under_repair(stripe) && traced_loss(stripe, cell);
}

bool ForegroundServer::must_park(const workload::AppRequest& req) const {
  if (damaged_unrepaired(req.stripe, req.cell)) {
    return true;  // reads: data gone; writes: nowhere to land the data
  }
  if (!req.is_read && !write_path_active() &&
      layout_->kind(req.cell) == codes::CellKind::Data) {
    // Legacy damaged-parity rule: the RMW must read every parity on a
    // chain through the cell; an unreadable parity parks the write too.
    // The planner path replaces this with a degraded plan that skips the
    // damaged chain (serve_write_planned parks only infeasible plans).
    for (int chain_id : layout_->chains_containing(req.cell)) {
      if (damaged_unrepaired(req.stripe,
                             layout_->chain(chain_id).parity_cell)) {
        return true;
      }
    }
  }
  return false;
}

void ForegroundServer::park(std::size_t index, double arrival, bool is_read) {
  if (is_read) {
    ++metrics_->app_degraded_reads;
  } else {
    ++metrics_->app_degraded_writes;
  }
  const std::uint32_t id = record_id((*trace_)[index].stripe);
  FBF_CHECK(id != KeyIdMap::kNoId, "parked a request on an untraced stripe");
  StripeRecord& rec = records_[id];
  const auto slot = static_cast<std::uint32_t>(parked_.size());
  parked_.push_back(Parked{index, arrival, kNone});
  if (rec.parked_tail == kNone) {
    rec.parked_head = slot;
  } else {
    parked_[rec.parked_tail].next = slot;
  }
  rec.parked_tail = slot;
  ++parked_count_;
}

void ForegroundServer::finish(double done, double arrival,
                              double deadline_ms) {
  metrics_->app_response_ms.add(done - arrival);
  metrics_->app_response_hist.add(done - arrival);
  if (deadline_ms > 0.0 && done > arrival + deadline_ms) {
    ++metrics_->app_deadline_miss;
  }
}

double ForegroundServer::reconstruct_read(const workload::AppRequest& req,
                                          double start) {
  ++metrics_->app_reconstructed_reads;
  const auto chains = layout_->chains_containing(req.cell);
  FBF_CHECK(!chains.empty(), "unreadable cell belongs to no chain");
  const codes::Chain& chain = layout_->chain(chains.front());
  double done = start;
  for (const codes::Cell& c : chain.cells) {
    if (c == req.cell) {
      continue;
    }
    const Location loc = locate(req.stripe, c);
    done = std::max(
        done, (*disks_)[static_cast<std::size_t>(loc.disk)].submit_read(
                  start, loc.lba));
  }
  return done;
}

bool ForegroundServer::serve_read(const workload::AppRequest& req,
                                  double start, double arrival) {
  const std::uint64_t key = geometry_->chunk_key(req.stripe, req.cell);
  if (write_path_active() && write_cache_->contains(key)) {
    // Write-allocate only: reads never populate the cache, but a resident
    // line (dirty or clean) serves them at RAM cost. request() is called
    // only on the contains() hit, so the miss path never admits the key.
    write_cache_->request(key, write_priority(req.stripe));
    ++metrics_->write.app_read_hits;
    drain_evicted(start);
    finish(start + write_config_.cache_access_ms, arrival, req.deadline_ms);
    return true;
  }
  const Location loc = locate(req.stripe, req.cell);
  Disk& disk = (*disks_)[static_cast<std::size_t>(loc.disk)];
  double done;
  if (injector_ != nullptr) {
    // Spare copies are never URE-hit (original_location gates the
    // predicate), matching the rebuild path's remap semantics.
    const FaultInjector::ReadOutcome rr = injector_->read(
        disk, start, loc.lba, key, !traced_loss(req.stripe, req.cell));
    done = rr.done_ms;
    if (!rr.ok) {
      if (stripe_under_repair(req.stripe)) {
        // The stripe is mid-recovery: defer to the post-repair drain,
        // where every survivor is readable from a live location.
        return false;
      }
      done = reconstruct_read(req, rr.done_ms);
    }
  } else {
    done = disk.submit_read(start, loc.lba);
  }
  finish(done, arrival, req.deadline_ms);
  return true;
}

bool ForegroundServer::serve_write(const workload::AppRequest& req,
                                   double start, double arrival) {
  if (write_path_active()) {
    return serve_write_planned(req, start, arrival);
  }
  serve_write_legacy(req, start, arrival);
  return true;
}

void ForegroundServer::serve_write_legacy(const workload::AppRequest& req,
                                          double start, double arrival) {
  // Read-modify-write: the target plus every parity on a chain through
  // this cell is re-read and rewritten — the code's update complexity,
  // paid in disk time (TIP-style layouts: <= 3 parities; STAR adjuster
  // cells: p + 1). All I/O goes through locate(), so repaired chunks are
  // updated at their spare location, never at the dead original sector.
  auto submit = [&](codes::Cell cell, bool is_write, double t) {
    const Location loc = locate(req.stripe, cell);
    Disk& disk = (*disks_)[static_cast<std::size_t>(loc.disk)];
    return is_write ? disk.submit_write(t, loc.lba)
                    : disk.submit_read(t, loc.lba);
  };
  const bool is_data = layout_->kind(req.cell) == codes::CellKind::Data;
  double reads_done = submit(req.cell, false, start);
  if (is_data) {
    for (int chain_id : layout_->chains_containing(req.cell)) {
      reads_done = std::max(
          reads_done,
          submit(layout_->chain(chain_id).parity_cell, false, start));
    }
  }
  double done = submit(req.cell, true, reads_done);
  if (is_data) {
    for (int chain_id : layout_->chains_containing(req.cell)) {
      done = std::max(done, submit(layout_->chain(chain_id).parity_cell,
                                   true, reads_done));
    }
  }
  finish(done, arrival, req.deadline_ms);
}

bool ForegroundServer::serve_write_planned(const workload::AppRequest& req,
                                           double start, double arrival) {
  WritePathStats& ws = metrics_->write;
  const auto cached = [this, &req](codes::Cell c) {
    return write_cache_->contains(geometry_->chunk_key(req.stripe, c));
  };
  const auto damaged = [this, &req](codes::Cell c) {
    return damaged_unrepaired(req.stripe, c);
  };
  const recovery::WritePlan plan =
      recovery::plan_partial_stripe_write(*layout_, req.cell, cached, damaged);
  if (!plan.feasible) {
    return false;  // a needed source is damaged and uncached: caller parks
  }
  switch (plan.kind) {
    case recovery::WritePlanKind::Rmw:
      ++ws.rmw_plans;
      break;
    case recovery::WritePlanKind::Rcw:
      ++ws.rcw_plans;
      break;
    case recovery::WritePlanKind::Direct:
      ++ws.direct_plans;
      break;
  }
  if (plan.degraded()) {
    ++ws.degraded_plans;  // served inline; legacy would have parked
  }
  const int priority = write_priority(req.stripe);
  // Source reads run in parallel: cached sources at RAM cost (touched so
  // hot sources stay resident), the rest from disk via locate().
  double reads_done = start;
  if (!plan.cache_reads.empty()) {
    reads_done = start + write_config_.cache_access_ms;
    for (const codes::Cell& c : plan.cache_reads) {
      write_cache_->request(geometry_->chunk_key(req.stripe, c), priority);
      ++ws.plan_cache_reads;
    }
  }
  for (const codes::Cell& c : plan.disk_reads) {
    const Location loc = locate(req.stripe, c);
    reads_done = std::max(
        reads_done, (*disks_)[static_cast<std::size_t>(loc.disk)].submit_read(
                        start, loc.lba));
    ++ws.plan_disk_reads;
  }
  // Parity updates are synchronous (the stripe must be consistent before
  // the write completes); damaged chains are skipped — recovery will
  // regenerate their parity from the members' current values.
  double done = reads_done;
  for (const recovery::ParityUpdate& u : plan.updates) {
    if (u.damaged) {
      continue;
    }
    const Location loc = locate(req.stripe, u.parity);
    done = std::max(done,
                    (*disks_)[static_cast<std::size_t>(loc.disk)].submit_write(
                        reads_done, loc.lba));
    ++ws.parity_updates;
    ++metrics_->disk_writes;
  }
  // The target's own data write is deferred: write-allocate a dirty line
  // (favorable priority while the stripe is under repair) and let the
  // flush machinery pay the disk write later.
  write_cache_->write(geometry_->chunk_key(req.stripe, req.cell), priority);
  done = std::max(done, reads_done + write_config_.cache_access_ms);
  drain_evicted(start);  // eviction-triggered write-backs, fire-and-forget
  finish(done, arrival, req.deadline_ms);
  return true;
}

void ForegroundServer::write_back(cache::Key key, double now) {
  const auto cells = static_cast<std::uint64_t>(layout_->num_cells());
  const std::uint64_t stripe = key / cells;
  const codes::Cell cell = layout_->cell_at(static_cast<int>(key % cells));
  const Location loc = locate(stripe, cell);
  (*disks_)[static_cast<std::size_t>(loc.disk)].submit_write(now, loc.lba);
  ++metrics_->write.write_backs;
  ++metrics_->disk_writes;
}

void ForegroundServer::drain_evicted(double now) {
  dirty_scratch_.clear();
  write_cache_->take_evicted_dirty(dirty_scratch_);
  for (const cache::core::DirtyLine& line : dirty_scratch_) {
    ++metrics_->write.flushed;
    write_back(line.key, now);
  }
}

void ForegroundServer::on_flush_tick(double now) {
  if (!write_path_active()) {
    return;
  }
  ++metrics_->write.flush_ticks;
  drain_evicted(now);
  const std::size_t resident_dirty = write_cache_->dirty_count();
  dirty_scratch_.clear();
  write_cache_->flush_dirty(dirty_scratch_,
                            write_config_.retain_favorable ? 2 : 0);
  metrics_->write.retained_dirty +=
      resident_dirty - dirty_scratch_.size();  // favorable lines kept
  for (const cache::core::DirtyLine& line : dirty_scratch_) {
    ++metrics_->write.flushed;
    write_back(line.key, now);
  }
}

void ForegroundServer::on_disk_failed(int disk, double now) {
  if (!write_path_active()) {
    return;
  }
  // Pending evicted lines left the cache before the failure; their
  // write-backs were already owed. Flush them first (take-before-
  // invalidate, per the CachePolicy contract), then drop resident dirty
  // lines whose write-back target died with the disk.
  drain_evicted(now);
  const auto cells = static_cast<std::uint64_t>(layout_->num_cells());
  for (const cache::core::DirtyLine& line : write_cache_->dirty_lines()) {
    const std::uint64_t stripe = line.key / cells;
    const codes::Cell cell =
        layout_->cell_at(static_cast<int>(line.key % cells));
    if (locate(stripe, cell).disk != disk) {
      continue;
    }
    const bool was_dirty = write_cache_->invalidate_dirty(line.key);
    FBF_CHECK(was_dirty, "dirty snapshot listed a clean line");
    ++metrics_->write.lost_dirty;
  }
}

void ForegroundServer::finalize(double now) {
  if (!write_path_active()) {
    return;
  }
  // Terminal flush: favorable retention does not apply — every dirty line
  // must reach disk before the run's books close.
  drain_evicted(now);
  dirty_scratch_.clear();
  write_cache_->flush_dirty(dirty_scratch_, 0);
  for (const cache::core::DirtyLine& line : dirty_scratch_) {
    ++metrics_->write.flushed;
    write_back(line.key, now);
  }
  FBF_CHECK(write_cache_->dirty_count() == 0,
            "dirty lines survived the terminal flush");
  const cache::WriteStats& cs = write_cache_->write_stats();
  WritePathStats& ws = metrics_->write;
  ws.write_hits = cs.write_hits;
  ws.write_misses = cs.write_misses;
  ws.dirty_installed = cs.dirty_installed;
  ws.evicted_dirty = cs.evicted_dirty;
}

void ForegroundServer::on_arrival(std::size_t index, double now) {
  const workload::AppRequest& req = (*trace_)[index];
  ++metrics_->app_requests;
  if (must_park(req)) {
    park(index, now, req.is_read);
    return;
  }
  if (req.is_read) {
    if (!serve_read(req, now, now)) {
      park(index, now, /*is_read=*/true);  // URE mid-repair: degraded read
      return;
    }
  } else {
    if (!serve_write(req, now, now)) {
      // Planner found no feasible source set (damaged + uncached): a
      // degraded write that even the degraded plan cannot serve.
      park(index, now, /*is_read=*/false);
      return;
    }
  }
  ++metrics_->app_served;
}

void ForegroundServer::on_stripe_recovered(std::uint64_t stripe, double now) {
  const std::uint32_t id = record_id(stripe);
  if (id == KeyIdMap::kNoId) {
    return;  // untraced, or no app trace: nothing parks, nothing to gate
  }
  StripeRecord& rec = records_[id];
  rec.repaired = true;
  // Serving never parks, so the list cannot grow while it drains.
  for (std::uint32_t slot = rec.parked_head; slot != kNone;
       slot = parked_[slot].next) {
    const Parked& p = parked_[slot];
    const workload::AppRequest& req = (*trace_)[p.index];
    ++metrics_->app_parked_drained;
    if (req.is_read) {
      const bool served = serve_read(req, now, p.arrival_ms);
      FBF_CHECK(served, "drained degraded read parked again");
    } else {
      // Post-repair every cell of this stripe is live, so a fresh plan is
      // always feasible.
      const bool served = serve_write(req, now, p.arrival_ms);
      FBF_CHECK(served, "drained degraded write parked again");
    }
    --parked_count_;
  }
  rec.parked_head = kNone;
  rec.parked_tail = kNone;
}

void ForegroundServer::on_loss_recovered(std::uint64_t stripe,
                                         codes::Cell cell, double now) {
  const std::uint32_t id = record_id(stripe);
  if (id == KeyIdMap::kNoId) {
    return;
  }
  std::uint64_t mask = 0;
  std::uint64_t& unpersisted = loss_bits_[loss_word(id, 1, cell, mask)];
  if ((unpersisted & mask) == 0) {
    return;  // not a traced loss, or its first copy already persisted
  }
  unpersisted &= ~mask;
  if (--records_[id].pending == 0) {
    on_stripe_recovered(stripe, now);
  }
}

void ForegroundServer::assert_drained() const {
  FBF_CHECK(parked_count_ == 0,
            "app requests left parked after recovery completed (" +
                std::to_string(parked_count_) + ")");
}

}  // namespace fbf::sim
