#include "service/shard_supervisor.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "net/frame_channel.h"

extern char** environ;

namespace moqo {

namespace {

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardSupervisor::ShardSupervisor(ShardSupervisorConfig config,
                                 ShardRouter* router)
    : config_(std::move(config)), router_(router) {
  monitor_ = std::thread([this] { MonitorLoop(); });
}

ShardSupervisor::~ShardSupervisor() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (monitor_.joinable()) monitor_.join();
  MutexLock lock(mu_);
  for (auto& [shard, info] : children_) {
    ReapLocked(&info, /*force=*/true);
  }
}

void ShardSupervisor::ReapLocked(ChildInfo* info, bool force) {
  if (info->reaped || info->pid <= 0) return;
  if (force) kill(info->pid, SIGKILL);
  int status = 0;
  // The child either exited (killed, crashed, or clean shutdown after
  // kBye) or just got SIGKILL; either way this wait terminates.
  while (waitpid(info->pid, &status, 0) < 0 && errno == EINTR) {
  }
  info->reaped = true;
}

size_t ShardSupervisor::SpawnShard() {
  std::string socket_path;
  {
    MutexLock lock(mu_);
    socket_path = config_.socket_dir + "/moqo-shard-" +
                  std::to_string(getpid()) + "-" +
                  std::to_string(next_socket_seq_++) + ".sock";
  }

  std::vector<std::string> args;
  args.push_back(config_.server_binary);
  args.push_back("--socket=" + socket_path);
  for (const std::string& arg : config_.server_args) args.push_back(arg);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_t pid = -1;
  int rc = posix_spawn(&pid, config_.server_binary.c_str(),
                       /*file_actions=*/nullptr, /*attrp=*/nullptr,
                       argv.data(), environ);
  if (rc != 0) return static_cast<size_t>(-1);
  {
    MutexLock lock(mu_);
    ++stats_.spawned;
  }

  // Connect, retrying until the child's listener is up. A child that
  // exits before accepting (bad flags, bind failure) ends the retry loop
  // early instead of burning the full timeout.
  std::optional<net::FrameChannel> channel;
  int64_t give_up = NowMillis() + config_.connect_timeout_ms;
  for (;;) {
    std::string error;
    channel = net::ConnectUnix(socket_path, /*timeout_ms=*/200, &error);
    if (channel.has_value()) break;
    int status = 0;
    pid_t waited = waitpid(pid, &status, WNOHANG);
    if (waited == pid) {
      // Child already exited; nothing to connect to and nothing to reap.
      return static_cast<size_t>(-1);
    }
    if (NowMillis() >= give_up) {
      kill(pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      return static_cast<size_t>(-1);
    }
    usleep(20 * 1000);
  }

  auto shard =
      std::make_unique<RemoteShard>(config_.remote, std::move(*channel));
  RemoteShard* ptr = shard.get();
  shard->set_label("remote shard (pid " + std::to_string(pid) + ")");
  shard->set_death_callback([this](RemoteShard* dead) {
    // Receiver thread: enqueue only (see file header).
    MutexLock lock(mu_);
    dead_.push_back(dead);
    cv_.NotifyAll();
  });
  {
    // Registered before AddShard starts the receiver, so a death callback
    // firing immediately still finds the child (shard_id is patched in
    // below; the monitor waits for it).
    MutexLock lock(mu_);
    children_[ptr] = ChildInfo{pid, static_cast<size_t>(-1), false};
  }

  size_t shard_id = router_->AddShard(std::move(shard));
  MutexLock lock(mu_);
  if (shard_id == static_cast<size_t>(-1)) {
    // Router refused (stopped); the shard object is already destroyed.
    ReapLocked(&children_[ptr], /*force=*/true);
    children_.erase(ptr);
    return static_cast<size_t>(-1);
  }
  children_[ptr].shard_id = shard_id;
  cv_.NotifyAll();
  return shard_id;
}

void ShardSupervisor::MonitorLoop() {
  for (;;) {
    RemoteShard* dead = nullptr;
    size_t shard_id = static_cast<size_t>(-1);
    {
      MutexLock lock(mu_);
      cv_.Wait(lock,
               [this]() REQUIRES(mu_) { return stop_ || !dead_.empty(); });
      if (dead_.empty() && stop_) return;
      dead = dead_.front();
      dead_.pop_front();
      // Registration may still be in flight (death raced SpawnShard);
      // wait for the shard id to be patched in.
      cv_.WaitFor(lock, std::chrono::seconds(5),
                  [this, dead]() REQUIRES(mu_) {
                    auto it = children_.find(dead);
                    return it == children_.end() ||
                           it->second.shard_id != static_cast<size_t>(-1);
                  });
      auto it = children_.find(dead);
      if (it == children_.end()) continue;
      shard_id = it->second.shard_id;
      // The process is dead or dying; make sure and reap before failover
      // so a half-dead child cannot keep the socket breathing.
      ReapLocked(&it->second, /*force=*/true);
    }
    if (shard_id != static_cast<size_t>(-1)) {
      router_->FailShard(shard_id);
    }
    MutexLock lock(mu_);
    ++stats_.failovers;
    cv_.NotifyAll();
  }
}

bool ShardSupervisor::KillShard(size_t shard_id, int signal) {
  MutexLock lock(mu_);
  for (auto& [shard, info] : children_) {
    if (info.shard_id != shard_id || info.reaped) continue;
    return kill(info.pid, signal) == 0;
  }
  return false;
}

pid_t ShardSupervisor::ShardPid(size_t shard_id) const {
  MutexLock lock(mu_);
  for (const auto& [shard, info] : children_) {
    if (info.shard_id == shard_id) return info.pid;
  }
  return -1;
}

bool ShardSupervisor::WaitForFailovers(size_t count, int timeout_ms) {
  MutexLock lock(mu_);
  return cv_.WaitFor(
      lock, std::chrono::milliseconds(timeout_ms),
      [this, count]() REQUIRES(mu_) { return stats_.failovers >= count; });
}

ShardSupervisorStats ShardSupervisor::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace moqo
