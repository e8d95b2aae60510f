#include "src/zlog/log.h"

#include <algorithm>

#include "src/mon/maps.h"

namespace mal::zlog {

using cls::ZlogOps;

namespace {

uint64_t ParseU64(const std::string& s) {
  return s.empty() ? 0 : std::strtoull(s.c_str(), nullptr, 10);
}

}  // namespace

Log::Log(sim::Actor* owner, rados::RadosClient* rados, mds::MdsClient* mds,
         LogOptions options)
    : owner_(owner),
      rados_(rados),
      mds_(mds),
      options_(std::move(options)),
      retry_rng_(0x7a6c6f67ULL * 0x9e3779b97f4a7c15ULL +
                 (static_cast<uint64_t>(owner->name().type) << 32) + owner->name().id),
      sequencer_path_("/zlog/" + options_.name) {
  views_.push_back(View{0, options_.stripe_width, 0});
}

std::string Log::EncodeViews(const std::vector<View>& views) {
  std::string out;
  for (const View& view : views) {
    if (!out.empty()) {
      out += ";";
    }
    out += std::to_string(view.epoch) + ":" + std::to_string(view.width) + ":" +
           std::to_string(view.base_pos);
  }
  return out;
}

std::vector<View> Log::DecodeViews(const std::string& encoded, uint32_t default_width) {
  std::vector<View> views;
  size_t start = 0;
  while (start < encoded.size()) {
    size_t end = encoded.find(';', start);
    if (end == std::string::npos) {
      end = encoded.size();
    }
    std::string entry = encoded.substr(start, end - start);
    size_t c1 = entry.find(':');
    size_t c2 = entry.find(':', c1 + 1);
    if (c1 != std::string::npos && c2 != std::string::npos) {
      View view;
      view.epoch = std::strtoull(entry.substr(0, c1).c_str(), nullptr, 10);
      view.width = static_cast<uint32_t>(
          std::strtoul(entry.substr(c1 + 1, c2 - c1 - 1).c_str(), nullptr, 10));
      view.base_pos = std::strtoull(entry.substr(c2 + 1).c_str(), nullptr, 10);
      if (view.width > 0) {
        views.push_back(view);
      }
    }
    start = end + 1;
  }
  if (views.empty() || views.front().base_pos != 0) {
    views.insert(views.begin(), View{0, default_width, 0});
  }
  return views;
}

const View& Log::ViewFor(uint64_t position) const {
  // Latest view whose base covers the position (views_ sorted by base_pos).
  const View* view = &views_.front();
  for (const View& candidate : views_) {
    if (candidate.base_pos <= position) {
      view = &candidate;
    }
  }
  return *view;
}

std::string Log::ObjectName(const View& view, uint64_t index) const {
  if (view.epoch == 0) {
    return options_.name + "." + std::to_string(index);
  }
  return options_.name + ".v" + std::to_string(view.epoch) + "." + std::to_string(index);
}

std::string Log::ObjectFor(uint64_t position) const {
  const View& view = ViewFor(position);
  return ObjectName(view, (position - view.base_pos) % view.width);
}

std::vector<std::string> Log::AllObjects() const {
  std::vector<std::string> objects;
  for (const View& view : views_) {
    for (uint32_t i = 0; i < view.width; ++i) {
      objects.push_back(ObjectName(view, i));
    }
  }
  return objects;
}

void Log::Open(DoneHandler on_done) {
  mds::LeasePolicy policy = options_.lease;
  if (options_.sequencer_mode == SequencerMode::kRoundTrip) {
    policy.mode = mds::LeaseMode::kRoundTrip;
  }
  mds_->Create(sequencer_path_, mds::InodeType::kSequencer, policy,
               [this, on_done = std::move(on_done)](mal::Status status) {
                 if (!status.ok() && status.code() != mal::Code::kAlreadyExists) {
                   on_done(status);
                   return;
                 }
                 RefreshEpoch(on_done);
               });
}

void Log::RefreshEpoch(DoneHandler on_done) {
  if (perf_ != nullptr) {
    perf_->Inc("zlog.epoch_refreshes");
  }
  mds_->Lookup(sequencer_path_,
               [this, on_done = std::move(on_done)](mal::Status status,
                                                    const mds::MdsReply& reply) {
                 if (!status.ok()) {
                   on_done(status);
                   return;
                 }
                 auto it = reply.inode.params.find("epoch");
                 epoch_ = it == reply.inode.params.end() ? 0 : ParseU64(it->second);
                 auto views_it = reply.inode.params.find("views");
                 if (views_it != reply.inode.params.end()) {
                   views_ = DecodeViews(views_it->second, options_.stripe_width);
                 }
                 on_done(mal::Status::Ok());
               });
}

void Log::GetPositionBatch(uint64_t count, PositionHandler on_first) {
  if (options_.sequencer_mode == SequencerMode::kRoundTrip) {
    mds_->SeqNextBatch(sequencer_path_, count, std::move(on_first));
    return;
  }
  if (mds_->HasCap(sequencer_path_)) {
    auto first = mds_->LocalNextBatch(sequencer_path_, count);
    if (first.ok()) {
      on_first(mal::Status::Ok(), first.value());
      return;
    }
    // Cap slipped away between the check and the increment; fall through.
  }
  mds_->AcquireCap(sequencer_path_,
                   [this, count, on_first = std::move(on_first)](mal::Status status) {
                     if (!status.ok()) {
                       on_first(status, 0);
                       return;
                     }
                     auto first = mds_->LocalNextBatch(sequencer_path_, count);
                     if (!first.ok()) {
                       on_first(first.status(), 0);
                       return;
                     }
                     on_first(mal::Status::Ok(), first.value());
                   });
}

// -- append pipeline ---------------------------------------------------------------

void Log::Append(mal::Buffer data, PositionHandler on_done) {
  std::vector<mal::Buffer> entries;
  entries.push_back(std::move(data));
  AppendBatch(std::move(entries),
              [on_done = std::move(on_done)](mal::Status status,
                                             const std::vector<uint64_t>& positions) {
                on_done(status, positions[0]);
              });
}

struct Log::Batch {
  std::vector<mal::Buffer> entries;
  std::vector<uint64_t> positions;  // parallel to entries; valid on success
  BatchHandler on_done;
  trace::TraceContext span;  // root span covering queue + seq + OSD writes
  sim::Time start_ns = 0;
};

void Log::AppendBatch(std::vector<mal::Buffer> entries, BatchHandler on_done) {
  if (entries.empty()) {
    on_done(mal::Status::Ok(), {});
    return;
  }
  if (perf_ != nullptr) {
    perf_->Inc("zlog.batches");
    perf_->Inc("zlog.entries", entries.size());
  }
  auto batch = std::make_shared<Batch>();
  batch->entries = std::move(entries);
  batch->positions.resize(batch->entries.size(), 0);
  batch->on_done = std::move(on_done);
  batch->start_ns = owner_->Now();
  if (trace::Collector() != nullptr) {
    batch->span = trace::Collector()->StartSpan(
        "zlog.AppendBatch", owner_->name().ToString(), owner_->Now(), trace::Current());
  }
  batch_queue_.push_back(std::move(batch));
  PumpBatchQueue();
}

void Log::PumpBatchQueue() {
  while (inflight_ < std::max<uint32_t>(options_.max_inflight, 1) &&
         !batch_queue_.empty()) {
    std::shared_ptr<Batch> batch = batch_queue_.front();
    batch_queue_.pop_front();
    ++inflight_;
    if (perf_ != nullptr) {
      perf_->Set("zlog.inflight", inflight_);
    }
    std::vector<size_t> indices(batch->entries.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      indices[i] = i;
    }
    BatchAttempt(std::move(batch), std::move(indices), svc::Backoff(options_.retry));
  }
}

void Log::FinishBatch(std::shared_ptr<Batch> batch, mal::Status status) {
  --inflight_;
  if (perf_ != nullptr) {
    perf_->Set("zlog.inflight", inflight_);
    perf_->Observe("zlog.batch_us",
                   static_cast<double>(owner_->Now() - batch->start_ns) / 1e3);
  }
  if (batch->span.valid() && trace::Collector() != nullptr) {
    trace::Collector()->EndSpan(batch->span, owner_->Now(),
                                status.ok() ? "ok" : status.message());
  }
  batch->on_done(status, batch->positions);
  PumpBatchQueue();
}

void Log::BatchAttempt(std::shared_ptr<Batch> batch, std::vector<size_t> indices,
                       svc::Backoff backoff) {
  // Every hop of this batch — sequencer grant, per-object OSD transactions,
  // recovery — attributes to the batch's root span. PumpBatchQueue may call
  // us from another batch's completion context, so pin (or clear) the
  // ambient context explicitly.
  trace::ScopedContext scope(batch->span);
  if (backoff.attempt() > 0 && perf_ != nullptr) {
    perf_->Inc("zlog.batch_retries");
  }
  if (backoff.Exhausted()) {
    FinishBatch(std::move(batch), mal::Status::Unavailable("append retries exhausted"));
    return;
  }
  // Retry continuation: consumes one attempt from the backoff schedule,
  // waits out its (zero, at the default policy) delay, and re-enters with
  // fresh positions for the named entries.
  auto reattempt = [this, batch, backoff](std::vector<size_t> which) mutable {
    // Consume the attempt before building the continuation so the lambda
    // captures the advanced backoff.
    sim::Time delay = backoff.NextDelay(&retry_rng_);
    svc::RunAfter(owner_->simulator(), delay,
                  [this, batch, backoff, which = std::move(which)] {
                    BatchAttempt(batch, which, backoff);
                  });
  };
  // A failed grant or recovery ends the batch unless the owning rank is gone
  // (or lost the inode): then attempt the sharded-sequencer takeover and
  // retry with fresh positions from the new owner.
  auto failover = [this, batch, reattempt](std::vector<size_t> which, mal::Status status) {
    if (!ShouldTakeover(status)) {
      FinishBatch(batch, status);
      return;
    }
    MaybeTakeover([this, batch, which = std::move(which), reattempt,
                   status](mal::Status t) mutable {
      if (t.ok()) {
        reattempt(which);
      } else {
        FinishBatch(batch, status);
      }
    });
  };
  // Take the count before the lambda capture moves `indices` (argument
  // evaluation order is unspecified).
  const uint64_t count = indices.size();
  GetPositionBatch(
      count,
      [this, batch, indices = std::move(indices), reattempt, failover](mal::Status status,
                                                                       uint64_t first) {
        if (status.code() == mal::Code::kAborted) {
          // Sequencer lost its state: run CORFU recovery, then retry these
          // entries under the new epoch (fresh positions).
          Recover([indices, reattempt, failover](mal::Status recover_status,
                                                 uint64_t) mutable {
            if (recover_status.ok()) {
              reattempt(indices);
            } else {
              failover(indices, recover_status);
            }
          });
          return;
        }
        if (!status.ok()) {
          failover(indices, status);
          return;
        }
        // Assign the grant [first, first+n) and group entries by stripe
        // object: each OSD receives ONE transaction carrying all of its
        // entries for this batch. The grant is contiguous, so walk it view
        // by view: inside a view, consecutive positions cycle through the
        // stripe, and the position's offset from the view's first granted
        // position, mod the width, picks its group. Each target oid is built
        // once.
        std::vector<rados::RadosClient::TargetedOp> ops;
        std::vector<std::vector<size_t>> op_entries;  // parallel to ops
        std::vector<std::vector<cls::ZlogOps::BatchEntry>> per_op;
        for (size_t i = 0; i < indices.size();) {
          const uint64_t view_first = first + i;
          const View& view = ViewFor(view_first);
          const size_t group0 = ops.size();
          for (; i < indices.size() && &ViewFor(first + i) == &view; ++i) {
            const uint64_t pos = first + i;
            const size_t group = group0 + (pos - view_first) % view.width;
            if (group == ops.size()) {
              ops.push_back({ObjectName(view, (pos - view.base_pos) % view.width), {}});
              op_entries.emplace_back();
              per_op.emplace_back();
            }
            batch->positions[indices[i]] = pos;
            per_op[group].push_back({pos, batch->entries[indices[i]]});
            op_entries[group].push_back(indices[i]);
          }
        }
        for (size_t j = 0; j < ops.size(); ++j) {
          ops[j].op = rados::RadosClient::MakeExecOp(
              "zlog", "write_batch", cls::ZlogOps::MakeWriteBatch(epoch_, per_op[j]));
        }
        rados_->ExecuteTargeted(
            std::move(ops),
            [this, batch, reattempt, op_entries = std::move(op_entries)](
                std::vector<osd::OpResult> results) mutable {
              // Collect entries that failed and must retry with fresh
              // positions: whole targets that were fenced (stale epoch) or
              // unreachable, and individual write-once collisions.
              std::vector<size_t> retry;
              bool fenced = false;
              for (size_t j = 0; j < results.size(); ++j) {
                const osd::OpResult& r = results[j];
                if (!r.status.ok()) {
                  // Whole-target failure: fenced by a newer epoch, or the
                  // target was unreachable/aborted. Every entry retries.
                  fenced = fenced || r.status.code() == mal::Code::kStaleEpoch;
                  retry.insert(retry.end(), op_entries[j].begin(), op_entries[j].end());
                  continue;
                }
                auto codes = cls::ZlogOps::ParseWriteBatchResult(r.out);
                if (!codes.ok() || codes.value().size() != op_entries[j].size()) {
                  retry.insert(retry.end(), op_entries[j].begin(), op_entries[j].end());
                  continue;
                }
                for (size_t k = 0; k < codes.value().size(); ++k) {
                  // Per-entry invalidation: a collision (position consumed
                  // by recovery) retries alone; committed siblings stand.
                  if (codes.value()[k] != mal::Code::kOk) {
                    retry.push_back(op_entries[j][k]);
                  }
                }
              }
              if (retry.empty()) {
                FinishBatch(batch, mal::Status::Ok());
                return;
              }
              std::sort(retry.begin(), retry.end());
              if (fenced) {
                // We were sealed mid-batch: learn the new epoch, then retry
                // the invalidated entries with fresh positions.
                RefreshEpoch([this, batch, retry = std::move(retry),
                              reattempt](mal::Status refresh_status) mutable {
                  if (!refresh_status.ok()) {
                    FinishBatch(batch, refresh_status);
                    return;
                  }
                  reattempt(retry);
                });
                return;
              }
              reattempt(std::move(retry));
            });
      });
}

void Log::Read(uint64_t position, ReadHandler on_data) {
  rados_->Exec(ObjectFor(position), "zlog", "read", ZlogOps::MakeRead(epoch_, position),
               [on_data = std::move(on_data)](mal::Status status, const mal::Buffer& out) {
                 if (!status.ok()) {
                   on_data(status, EntryState::kData, mal::Buffer());
                   return;
                 }
                 mal::Decoder dec(out);
                 auto state = static_cast<EntryState>(dec.GetU8());
                 mal::Buffer data = dec.GetBuffer();  // aliases the reply payload
                 on_data(mal::Status::Ok(), state, data);
               });
}

void Log::Fill(uint64_t position, DoneHandler on_done) {
  rados_->Exec(ObjectFor(position), "zlog", "fill", ZlogOps::MakeFill(epoch_, position),
               [on_done = std::move(on_done)](mal::Status status, const mal::Buffer&) {
                 on_done(status);
               });
}

void Log::Trim(uint64_t position, DoneHandler on_done) {
  rados_->Exec(ObjectFor(position), "zlog", "trim", ZlogOps::MakeTrim(epoch_, position),
               [on_done = std::move(on_done)](mal::Status status, const mal::Buffer&) {
                 on_done(status);
               });
}

void Log::CheckTail(PositionHandler on_tail) {
  mds_->SeqRead(sequencer_path_, std::move(on_tail));
}

void Log::SealAndInstall(uint64_t new_epoch, std::optional<uint32_t> new_width,
                         PositionHandler on_done, bool takeover) {
  std::vector<std::string> objects = AllObjects();
  auto max_tail = std::make_shared<uint64_t>(0);
  auto pending = std::make_shared<size_t>(objects.size());
  auto failed = std::make_shared<mal::Status>();
  for (const std::string& oid : objects) {
    rados_->Exec(
        oid, "zlog", "seal", ZlogOps::MakeSeal(new_epoch),
        [this, max_tail, pending, failed, new_epoch, new_width, on_done, takeover](
            mal::Status seal_status, const mal::Buffer& out) {
          if (!seal_status.ok()) {
            if (failed->ok()) {
              *failed = seal_status;
            }
          } else {
            mal::Decoder dec(out);
            *max_tail = std::max(*max_tail, dec.GetU64());
          }
          if (--*pending != 0) {
            return;
          }
          if (!failed->ok()) {
            // Lost a seal race or a device refused: report; the caller can
            // retry (a competing recovery/reconfiguration may have won).
            on_done(*failed, 0);
            return;
          }
          // Install tail + epoch (+ the new view) into the sequencer inode
          // and clear the recovery flag.
          std::vector<View> new_views = views_;
          if (new_width.has_value()) {
            new_views.push_back(View{new_epoch, *new_width, *max_tail});
          }
          mds::ClientRequest install;
          install.op = mds::MdsOp::kSetSeqState;
          install.path = sequencer_path_;
          install.seq_value = *max_tail;
          install.params["epoch"] = std::to_string(new_epoch);
          install.params["views"] = EncodeViews(new_views);
          install.params["needs_recovery"] = "";  // erase
          if (takeover) {
            // Failover install: the target rank creates the inode if it does
            // not host it yet, with the same lease policy Open() would use.
            install.params["takeover"] = "1";
            install.inode_type = mds::InodeType::kSequencer;
            install.policy = options_.lease;
            if (options_.sequencer_mode == SequencerMode::kRoundTrip) {
              install.policy.mode = mds::LeaseMode::kRoundTrip;
            }
          }
          mds_->Request(install, [this, new_epoch, new_views, max_tail, on_done](
                                     mal::Status install_status, const mds::MdsReply&) {
            if (!install_status.ok()) {
              on_done(install_status, 0);
              return;
            }
            epoch_ = new_epoch;
            views_ = new_views;
            on_done(mal::Status::Ok(), *max_tail);
          });
        });
  }
}

bool Log::ShouldTakeover(const mal::Status& status) {
  // kUnavailable/kTimedOut: the owning rank is down or unreachable.
  // kNotFound: the ownership map named a rank that lost (or never got) the
  // inode — an aborted demotion; installing recovered state there heals it.
  return status.code() == mal::Code::kUnavailable ||
         status.code() == mal::Code::kTimedOut ||
         status.code() == mal::Code::kNotFound;
}

void Log::MaybeTakeover(DoneHandler on_done) {
  // Owner change is CORFU failover (paper §5.2.2): consult the published
  // ownership map; if this log's sequencer is sharded and the cluster has a
  // survivor, seal at a bumped epoch — fencing every grant the dead rank
  // ever issued — and install the recovered tail on the survivor. Without
  // an ownership entry (legacy single-sequencer placement) the failure is
  // surfaced unchanged.
  rados_->mon_client().GetMap(
      mon::MapKind::kMdsMap,
      [this, on_done = std::move(on_done)](mal::Status status,
                                           const mon::MapUpdate& update) {
        if (!status.ok()) {
          on_done(status);
          return;
        }
        mal::Decoder dec(update.map_payload);
        auto map = mon::MdsMap::Decode(&dec);
        if (!map.ok()) {
          on_done(map.status());
          return;
        }
        std::optional<uint32_t> owner = mon::SeqOwnerOf(map.value(), sequencer_path_);
        if (!owner.has_value()) {
          on_done(mal::Status::Unavailable("sequencer is not sharded"));
          return;
        }
        std::vector<uint32_t> active;
        for (const auto& [id, info] : map.value().mds) {
          if (info.state == mon::MdsState::kActive) {
            active.push_back(id);
          }
        }
        if (active.empty()) {
          on_done(mal::Status::Unavailable("no active mds"));
          return;
        }
        // Prefer a rank other than the (presumed dead) published owner;
        // rotate across attempts so concurrent takeovers spread out.
        uint32_t pick = active[takeover_round_++ % active.size()];
        if (pick == *owner && active.size() > 1) {
          pick = active[takeover_round_++ % active.size()];
        }
        if (perf_ != nullptr) {
          perf_->Inc("zlog.takeovers");
        }
        TakeoverInstall(pick, /*tries_left=*/4, std::move(on_done));
      });
}

void Log::TakeoverInstall(uint32_t rank, int tries_left, DoneHandler on_done) {
  // Aim the install at the chosen survivor before any MDS can redirect us
  // there; the server-side takeover directive bypasses the (stale)
  // ownership check.
  mds_->SetAuthorityHint(sequencer_path_, rank);
  SealAndInstall(
      epoch_ + 1, std::nullopt,
      [this, rank, tries_left, on_done = std::move(on_done)](mal::Status status,
                                                             uint64_t) {
        if (status.code() == mal::Code::kStaleEpoch && tries_left > 0) {
          // A competing recovery sealed higher; outbid it.
          ++epoch_;
          TakeoverInstall(rank, tries_left - 1, on_done);
          return;
        }
        on_done(status);
      },
      /*takeover=*/true);
}

void Log::Recover(PositionHandler on_recovered) {
  // Learn the latest epoch first so our seal outbids everyone sealed-so-far.
  RefreshEpoch([this, on_recovered = std::move(on_recovered)](mal::Status status) {
    if (!status.ok()) {
      on_recovered(status, 0);
      return;
    }
    SealAndInstall(epoch_ + 1, std::nullopt, std::move(on_recovered));
  });
}

void Log::Reconfigure(uint32_t new_width, PositionHandler on_done) {
  if (new_width == 0) {
    on_done(mal::Status::InvalidArgument("stripe width must be positive"), 0);
    return;
  }
  RefreshEpoch([this, new_width, on_done = std::move(on_done)](mal::Status status) {
    if (!status.ok()) {
      on_done(status, 0);
      return;
    }
    SealAndInstall(epoch_ + 1, new_width, std::move(on_done));
  });
}

}  // namespace mal::zlog
