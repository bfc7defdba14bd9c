#include "service/shard_server.h"

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "core/checkpoint.h"
#include "service/shard_protocol.h"
#include "service/wire.h"

namespace moqo {

namespace {

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<uint8_t> TextBody(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

}  // namespace

ShardServer::ShardServer(ShardServerConfig config,
                         OptimizerFactory make_optimizer)
    : config_(std::move(config)),
      make_optimizer_(std::move(make_optimizer)) {
  if (config_.pump_interval_ms < 1) config_.pump_interval_ms = 1;
  if (config_.heartbeat_ms < 1) config_.heartbeat_ms = 1;
}

bool ShardServer::SendMessage(net::FrameChannel* channel, uint8_t type,
                              uint64_t request_id,
                              std::vector<uint8_t> body) {
  Message message;
  message.type = static_cast<MsgType>(type);
  message.request_id = request_id;
  message.body = std::move(body);
  if (channel->Send(EncodeMessage(message)) != net::IoStatus::kOk) {
    return false;
  }
  last_send_millis_ = NowMillis();
  return true;
}

bool ShardServer::HandleSubmit(net::FrameChannel* channel,
                               OnlineScheduler* scheduler,
                               SnapshotState* snapshots, uint64_t request_id,
                               const std::vector<uint8_t>& body) {
  auto reject = [&](const std::string& reason) {
    return SendMessage(channel, static_cast<uint8_t>(MsgType::kReject),
                       request_id, TextBody(reason));
  };
  if (index_by_request_.count(request_id) != 0) {
    return reject("duplicate request id");
  }
  WireTask wire;
  std::string why;
  if (!DecodeWireTask(body, &wire, &why)) {
    return reject("bad task frame: " + why);
  }
  size_t index = 0;
  std::future<BatchTaskResult> future;
  if (wire.checkpoint.empty()) {
    auto ticket = scheduler->Submit(wire.task);
    if (!ticket.has_value()) return reject("admission refused");
    future = std::move(*ticket);
  } else {
    std::promise<BatchTaskResult> promise;
    future = promise.get_future();
    SuspendedTask rebuilt =
        ToSuspendedTask(std::move(wire), std::move(promise));
    if (!scheduler->Resume(rebuilt)) {
      // The refusal is reported over the wire; silence the abandonment
      // error the rebuilt task's destructor would raise into the future
      // we are about to drop.
      rebuilt.MarkConsumed();
      return reject("resume refused");
    }
  }
  // This thread is the only admitter, so the task's index is the latest
  // submission.
  index = scheduler->stats().submitted - 1;
  pending_[index] = PendingReply{request_id, std::move(future)};
  index_by_request_[request_id] = index;
  {
    MutexLock lock(snapshots->mu);
    snapshots->request_ids[index] = request_id;
  }
  return true;
}

bool ShardServer::HandleSuspend(net::FrameChannel* channel,
                                OnlineScheduler* scheduler,
                                SnapshotState* snapshots,
                                uint64_t request_id) {
  auto it = index_by_request_.find(request_id);
  if (it == index_by_request_.end()) {
    return SendMessage(channel, static_cast<uint8_t>(MsgType::kSuspendFail),
                       request_id, TextBody("unknown request id"));
  }
  size_t index = it->second;
  std::optional<SuspendedTask> suspended = scheduler->Suspend(index);
  if (!suspended.has_value()) {
    return SendMessage(channel, static_cast<uint8_t>(MsgType::kSuspendFail),
                       request_id,
                       TextBody("task already finished or not suspendable"));
  }
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(*suspended));
  // The promise feeding our server-side future dies with `suspended`; the
  // client re-attaches the original submitter promise to the shipped
  // frame, so this is the transport-moved case, not an abandonment.
  suspended->MarkConsumed();
  pending_.erase(index);
  index_by_request_.erase(it);
  {
    MutexLock lock(snapshots->mu);
    snapshots->request_ids.erase(index);
  }
  return SendMessage(channel, static_cast<uint8_t>(MsgType::kSuspended),
                     request_id, std::move(frame));
}

bool ShardServer::Pump(net::FrameChannel* channel, SnapshotState* snapshots,
                       bool force_heartbeat) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++it;
      continue;
    }
    size_t index = it->first;
    uint64_t request_id = it->second.request_id;
    std::vector<uint8_t> body;
    bool ok = true;
    std::string error;
    try {
      BatchTaskResult result = it->second.future.get();
      // Message body inside the shard protocol envelope, which already
      // carries kNetMagic + kNetVersion (shard_protocol.cc).
      CheckpointWriter writer;  // moqo-lint: allow(checkpoint-magic)
      EncodeTaskResult(&writer, result);
      body = writer.Take();
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    it = pending_.erase(it);
    index_by_request_.erase(request_id);
    {
      MutexLock lock(snapshots->mu);
      snapshots->request_ids.erase(index);
    }
    if (!SendMessage(channel,
                     static_cast<uint8_t>(ok ? MsgType::kResult
                                             : MsgType::kTaskError),
                     request_id, ok ? std::move(body) : TextBody(error))) {
      return false;
    }
  }

  std::vector<std::vector<uint8_t>> queued;
  {
    MutexLock lock(snapshots->mu);
    queued.swap(snapshots->outbox);
  }
  for (std::vector<uint8_t>& payload : queued) {
    // Already-encoded kSnapshot messages from the worker-side sink. A
    // snapshot of a task whose result was just flushed may still be
    // queued; the client ignores snapshots for finished tasks.
    if (channel->Send(payload) != net::IoStatus::kOk) return false;
    last_send_millis_ = NowMillis();
  }

  if (force_heartbeat ||
      NowMillis() - last_send_millis_ >= config_.heartbeat_ms) {
    return SendMessage(channel, static_cast<uint8_t>(MsgType::kPing), 0, {});
  }
  return true;
}

bool ShardServer::Serve(net::FrameChannel* channel) {
  pending_.clear();
  index_by_request_.clear();

  // The sink outlives every scheduler worker because the scheduler below
  // is declared after it (destroyed first) and Stop() joins the workers.
  SnapshotState snapshots;
  ShardServerConfig config = config_;
  if (config.scheduler.snapshot_every > 0) {
    SnapshotState* state = &snapshots;
    config.scheduler.snapshot_sink = [state](TaskSnapshot&& snapshot) {
      // Encode outside the lock; it is the expensive part.
      std::vector<uint8_t> frame =
          EncodeWireTask(MakeWireTask(snapshot));
      MutexLock lock(state->mu);
      auto it = state->request_ids.find(snapshot.submission_index);
      // A snapshot can race admission bookkeeping or arrive after the
      // result was flushed; dropping it is safe — the previous frame the
      // client holds stays valid recovery state.
      if (it == state->request_ids.end()) return;
      Message message;
      message.type = MsgType::kSnapshot;
      message.request_id = it->second;
      message.body = std::move(frame);
      state->outbox.push_back(EncodeMessage(message));
    };
  }

  OnlineScheduler scheduler(config.scheduler, make_optimizer_);
  scheduler.Start();
  last_send_millis_ = NowMillis();
  bool clean = false;
  bool done = false;
  while (!done) {
    std::vector<uint8_t> payload;
    net::IoStatus status = channel->Recv(&payload, config_.pump_interval_ms);
    switch (status) {
      case net::IoStatus::kOk: {
        Message message;
        std::string why;
        if (!DecodeMessage(payload, &message, &why)) {
          // The request id is unrecoverable from a corrupt message;
          // request id 0 marks a connection-level rejection.
          if (!SendMessage(channel, static_cast<uint8_t>(MsgType::kReject),
                           0, TextBody("undecodable message: " + why))) {
            done = true;
          }
          break;
        }
        switch (message.type) {
          case MsgType::kSubmit:
            if (!HandleSubmit(channel, &scheduler, &snapshots,
                              message.request_id, message.body) ||
                !Pump(channel, &snapshots, false)) {
              done = true;
            }
            break;
          case MsgType::kSuspend:
            if (!HandleSuspend(channel, &scheduler, &snapshots,
                               message.request_id) ||
                !Pump(channel, &snapshots, false)) {
              done = true;
            }
            break;
          case MsgType::kShutdown:
            scheduler.Drain();
            if (Pump(channel, &snapshots, false) &&
                SendMessage(channel, static_cast<uint8_t>(MsgType::kBye), 0,
                            {})) {
              clean = true;
            }
            done = true;
            break;
          default:
            // Shard-to-router types arriving here are a peer bug, not a
            // transport failure; ignore rather than kill the connection.
            break;
        }
        break;
      }
      case net::IoStatus::kTimeout:
        if (!Pump(channel, &snapshots, false)) done = true;
        break;
      case net::IoStatus::kClosed:
      case net::IoStatus::kError:
        done = true;
        break;
    }
  }
  // Joins the workers before `snapshots` goes out of scope; remaining
  // futures are dropped (their submitter is gone with the connection).
  scheduler.Stop();
  pending_.clear();
  index_by_request_.clear();
  return clean;
}

}  // namespace moqo
