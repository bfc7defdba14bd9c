// Service workloads: latency and saturation throughput of RMQ requests
// through the online scheduler in process (service_local) or through the
// shard router, the wire and two shardd processes (service_remote).
//
// Per run: set up (traffic, scheduler or router + shardd, warm-up
// requests) several times. Phase A sends an open-loop Poisson stream at
// 60 requests/s for 80 % of --seconds and times each request from its
// scheduled send time to the moment the client sees its future ready.
// Phase B keeps 4 requests outstanding for the remaining 20 % and counts
// completions. The two phases alternate in kSegments segments. One client
// thread submits and polls every future. After
// the run, delivered frontiers are checked against blocking reference
// runs of the same requests.
//
// service_remote sends no exact repeats: every request carries a fresh
// seed, so shardd's frontier cache serves warm starts but never an exact
// hit. RemoteShard::SubmitFrame registers a request only after sending
// it, and an exact hit is answered fast enough to arrive first; the reply
// is then dropped and the future never resolves (every 25 s run with
// repeats hung). Until that is fixed, traced runs measure the exact-hit
// path in process (MeasureFrontierCache), and the client gives up on its
// outstanding futures once none completes for kStallNs, so a lost reply
// fails its request instead of hanging the run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/deadline.h"
#include "core/rmq.h"
#include "layers.h"
#include "pareto/epsilon_indicator.h"
#include "query/generator.h"
#include "service/online_scheduler.h"
#include "service/shard_router.h"
#include "service/shard_supervisor.h"
#include "workloads.h"

namespace moqo {
namespace perfbench {

namespace {

/// RMQ iterations per request: about 5 ms of work. At 60 requests/s that
/// keeps the 2 workers (or the 2 single-thread shards) about 15 % busy, so
/// p99 reflects per-query cost rather than arrival bursts, and a remote
/// result nearly always makes the first tick of shardd's 10 ms result
/// pump. At 40 iterations (60 % busy) p99 differed by up to 3x between
/// seeds; at 20 iterations remote p50 jumped between 10.8 and 20.5 ms
/// with the side of a pump tick most requests finished on.
constexpr int kIterations = 10;
constexpr int kTables = 8;
constexpr double kRatePerSecond = 60.0;
constexpr double kPhaseAShare = 0.8;
/// Phases A and B alternate in this many segments, so that both sample
/// the host over the whole run. Phase-B throughput follows the host's
/// speed, which drifts over seconds: with one phase B in the last 20 % of
/// the run, sat_qps on service_local spread up to 25 % between runs on a
/// 4-core x86-64 KVM guest.
constexpr int kSegments = 5;
constexpr size_t kOutstanding = 4;
/// Phase-B request supply, about 3x what the workers can complete.
constexpr double kSupplyPerSecond = 1200.0;
/// Scheduler workers of service_local; shardd processes (one thread each)
/// of service_remote.
constexpr int kWorkers = 2;
constexpr int kWarmupRequests = 8;
constexpr int kSetupReps = 5;
constexpr int kRemoteShapes = 64;
/// shardd's default steps per slice (remote slices are counted from it).
constexpr int kRemoteSliceSteps = 8;
/// Every 8th delivered frontier is checked against a blocking run.
constexpr size_t kCheckEvery = 8;
/// When no outstanding future has become ready for this long, the client
/// counts every outstanding one as a lost reply, so a lost reply fails its
/// request instead of hanging the run. It is about 100x the slowest
/// phase-A p99 measured. The clock restarts at every completion, not at
/// each submit: a slow build (sanitizers) that falls seconds behind keeps
/// completing requests and is not mistaken for lost replies.
constexpr int64_t kStallNs = 5'000'000'000;
/// The in-process frontier-cache probe gives every 9th request a fresh
/// seed; the others repeat their shape's seed.
constexpr size_t kFreshSeedEvery = 9;
/// Queries the traced replica replays and scores against DP(1.01).
constexpr size_t kSample = 16;
/// Tasks whose transport layers are timed in traced runs.
constexpr size_t kTransportTasks = 64;
constexpr int kVerifyThreads = 4;
constexpr int64_t kPollNs = 50000;
/// Phase B polls less often: with 4 requests outstanding the workers stay
/// busy while a completion waits up to 1 ms to be seen, and the client
/// thread takes less CPU from them. In 10 paired service_local runs on a
/// 4-core x86-64 KVM guest, sat_qps had the same median (307 vs 301/s)
/// and spread 11 % instead of 16 %.
constexpr int64_t kClosedLoopPollNs = 1000000;

OptimizerFactory MakeRmq(int iterations) {
  return [iterations] {
    RmqConfig config;
    config.max_iterations = iterations;
    return std::make_unique<Rmq>(config);
  };
}

/// The metrics every scheduler and shardd serves (OnlineConfig default).
std::shared_ptr<const CostModel> ServiceModel() {
  return std::make_shared<CostModel>(OnlineConfig().metrics);
}

QueryPtr ServiceQuery(uint64_t stream_seed, size_t index) {
  Rng rng(stream_seed);
  GeneratorConfig config;
  config.num_tables = kTables;
  config.graph_type = index % 2 == 0 ? GraphType::kChain : GraphType::kStar;
  return GenerateQuery(config, &rng);
}

/// Everything a run sends, generated from the seed alone.
struct Traffic {
  /// Phase A requests first, then the phase B supply.
  std::vector<BatchTask> stream;
  size_t phase_a = 0;
  /// Phase A scheduled send times, since the phase started.
  std::vector<int64_t> arrival_ns;
  std::vector<BatchTask> warmup;
  /// service_remote: the shape pool, a seed per shape that request seeds
  /// derive from, and the shape of each stream request.
  std::vector<QueryPtr> shapes;
  std::vector<uint64_t> shape_seeds;
  std::vector<size_t> shape_of;
};

Traffic MakeTraffic(bool remote, uint64_t seed, double phase_a_s,
                    double phase_b_s) {
  Traffic traffic;
  Rng arrivals(CombineSeed(seed, 0x61727276ull /* "arrv" */));
  for (double t = 0.0;;) {
    t += -std::log(1.0 - arrivals.Uniform01()) / kRatePerSecond;
    if (t >= phase_a_s) break;
    traffic.arrival_ns.push_back(static_cast<int64_t>(t * 1e9));
  }
  traffic.phase_a = traffic.arrival_ns.size();
  const size_t total =
      traffic.phase_a + static_cast<size_t>(kSupplyPerSecond * phase_b_s) + 1;
  traffic.stream.resize(total);
  if (!remote) {
    for (size_t i = 0; i < total; ++i) {
      BatchTask& task = traffic.stream[i];
      task.query = ServiceQuery(CombineSeed(seed, 0x6c6f63616cull, i), i);
      task.seed = CombineSeed(seed, i, 2);
    }
  } else {
    for (int k = 0; k < kRemoteShapes; ++k) {
      const size_t shape = static_cast<size_t>(k);
      traffic.shapes.push_back(
          ServiceQuery(CombineSeed(seed, 0x7368617065ull, shape), shape));
      traffic.shape_seeds.push_back(CombineSeed(seed, shape, 3));
    }
    // Zipf(1.0) over shape ranks: shape k with probability ~ 1/(k+1).
    std::vector<double> cumulative;
    double sum = 0.0;
    for (int k = 0; k < kRemoteShapes; ++k) {
      sum += 1.0 / static_cast<double>(k + 1);
      cumulative.push_back(sum);
    }
    Rng zipf(CombineSeed(seed, 0x7a697066ull /* "zipf" */));
    for (size_t i = 0; i < total; ++i) {
      const double draw = zipf.Uniform01() * sum;
      const size_t k = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end() - 1, draw) -
          cumulative.begin());
      traffic.shape_of.push_back(k);
      traffic.stream[i].query = traffic.shapes[k];
      // A fresh seed per request: no exact repeats (see file header).
      traffic.stream[i].seed = CombineSeed(traffic.shape_seeds[k], i + 1);
    }
  }
  for (size_t j = 0; j < kWarmupRequests; ++j) {
    BatchTask task;
    task.query = ServiceQuery(CombineSeed(seed, 0x7761726dull, j), j);
    task.seed = CombineSeed(seed, j, 4);
    traffic.warmup.push_back(std::move(task));
  }
  return traffic;
}

/// The system under test behind one Submit().
class Service {
 public:
  virtual ~Service() = default;
  virtual std::optional<std::future<BatchTaskResult>> Submit(
      const BatchTask& task) = 0;
  /// Drains and stops; false if the service lost a shard.
  virtual bool Stop() = 0;
};

class LocalService : public Service {
 public:
  LocalService() {
    OnlineConfig config;
    config.num_threads = kWorkers;
    config.steps_per_slice = 1;
    config.policy = SchedulingPolicy::kFifo;
    config.retain_frontiers = false;
    epoch_ns_ = NowNs();
    scheduler_ =
        std::make_unique<OnlineScheduler>(config, MakeRmq(kIterations));
    scheduler_->Start();
  }

  std::optional<std::future<BatchTaskResult>> Submit(
      const BatchTask& task) override {
    return scheduler_->Submit(task);
  }

  bool Stop() override {
    scheduler_->Stop();
    return true;
  }

  /// NowNs() just before the scheduler (and its epoch) was created.
  int64_t epoch_ns() const { return epoch_ns_; }

 private:
  int64_t epoch_ns_ = 0;
  std::unique_ptr<OnlineScheduler> scheduler_;
};

class RemoteService : public Service {
 public:
  explicit RemoteService(const RunOptions& options) {
    ShardRouterConfig router;
    router.num_shards = 0;
    router_ =
        std::make_unique<ShardRouter>(router, MakeRmq(kIterations));
    router_->Start();
    ShardSupervisorConfig supervisor;
    supervisor.server_binary = MOQO_SHARDD_PATH;
    // A snapshot after every slice of 8 steps: each request ships one
    // mid-run recovery snapshot, as 40 iterations do at the default 4.
    supervisor.server_args = {"--threads=1",
                              "--iterations=" + std::to_string(kIterations),
                              "--snapshot-every=1"};
    supervisor.socket_dir = options.socket_dir;
    supervisor_ = std::make_unique<ShardSupervisor>(supervisor, router_.get());
    for (int i = 0; i < kWorkers; ++i) {
      if (supervisor_->SpawnShard() == static_cast<size_t>(-1)) {
        throw std::runtime_error(std::string("cannot spawn ") +
                                 MOQO_SHARDD_PATH);
      }
    }
  }

  ~RemoteService() override {
    if (!stopped_) router_->Stop();
  }

  std::optional<std::future<BatchTaskResult>> Submit(
      const BatchTask& task) override {
    return router_->Submit(task);
  }

  bool Stop() override {
    const bool healthy = router_->failed_shards() == 0;
    router_->Stop();
    stopped_ = true;
    // Reaps the shardd children (they exit after the shutdown handshake).
    supervisor_.reset();
    return healthy;
  }

 private:
  bool stopped_ = false;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<ShardSupervisor> supervisor_;
};

/// One sent request.
struct Sample {
  size_t request = 0;
  int phase = 0;
  /// Scheduled send time (phase A) or actual send time (phase B).
  int64_t due_ns = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t seen_ns = 0;
  bool traced = false;
  bool accepted = false;
  bool delivered = false;
  BatchTaskResult result;
};

/// The load generator's client: submits and polls futures on one thread.
class Client {
 public:
  Client(Service* service, Tracer* tracer)
      : service_(service), tracer_(tracer) {}

  void Send(const BatchTask& task, size_t request, int phase,
            int64_t due_ns) {
    Sample sample;
    sample.request = request;
    sample.phase = phase;
    sample.due_ns = due_ns;
    sample.traced = tracer_->enabled();
    sample.submit_start_ns = NowNs();
    std::optional<std::future<BatchTaskResult>> future =
        service_->Submit(task);
    sample.submit_end_ns = NowNs();
    sample.accepted = future.has_value();
    if (future.has_value() && inflight_.empty()) {
      progress_ns_ = sample.submit_end_ns;
    }
    samples_.push_back(std::move(sample));
    if (future.has_value()) {
      inflight_.push_back({samples_.size() - 1, std::move(*future)});
    }
  }

  /// Harvests every ready future; returns how many. Once no future has
  /// become ready for kStallNs, gives up on every outstanding one.
  size_t Collect() {
    size_t harvested = 0;
    const bool stalled =
        !inflight_.empty() && NowNs() - progress_ns_ > kStallNs;
    for (size_t i = 0; i < inflight_.size();) {
      const bool ready = inflight_[i].future.wait_for(
                             std::chrono::seconds(0)) ==
                         std::future_status::ready;
      if (!ready && !stalled) {
        ++i;
        continue;
      }
      Sample& sample = samples_[inflight_[i].sample];
      sample.seen_ns = NowNs();
      if (!ready) {
        std::fprintf(stderr, "request %zu: no reply, nor any other, in %.0f "
                     "ms\n", sample.request, NsToMs(kStallNs));
      } else {
        progress_ns_ = sample.seen_ns;
        try {
          sample.result = inflight_[i].future.get();
          sample.delivered = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request %zu failed: %s\n", sample.request,
                       e.what());
        }
      }
      if (sample.traced) {
        const int64_t id = static_cast<int64_t>(sample.request);
        const int root = tracer_->Add("service.request", sample.due_ns,
                                      sample.seen_ns, -1, id);
        tracer_->Add("service.submit", sample.submit_start_ns,
                     sample.submit_end_ns, root, id);
        tracer_->Add("service.await", sample.submit_end_ns, sample.seen_ns,
                     root, id);
      }
      inflight_[i] = std::move(inflight_.back());
      inflight_.pop_back();
      ++harvested;
    }
    return harvested;
  }

  /// Harvests ready futures, or waits until the oldest completes, `poll_ns`
  /// passes or `until_ns` comes, whichever is first.
  void CollectOrWait(int64_t until_ns, int64_t poll_ns = kPollNs) {
    if (Collect() > 0) return;
    const auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(std::min(until_ns, NowNs() + poll_ns)));
    if (inflight_.empty()) {
      std::this_thread::sleep_until(deadline);
    } else {
      inflight_.front().future.wait_until(deadline);
    }
  }

  size_t outstanding() const { return inflight_.size(); }
  std::vector<Sample>& samples() { return samples_; }

 private:
  struct InFlight {
    size_t sample;
    std::future<BatchTaskResult> future;
  };

  Service* service_;
  Tracer* tracer_;
  std::vector<Sample> samples_;
  std::vector<InFlight> inflight_;
  /// When a future last became ready, or the first of the current
  /// outstanding ones was sent.
  int64_t progress_ns_ = 0;
};

/// Sends phase-A requests [begin, end) on schedule, their arrival times
/// shifted back by `offset_ns`, then waits for them.
void RunPhaseA(const Traffic& traffic, size_t begin, size_t end,
               int64_t offset_ns, Client* client) {
  const int64_t start = NowNs() - offset_ns;
  size_t next = begin;
  while (next < end || client->outstanding() > 0) {
    const int64_t now = NowNs();
    const int64_t due =
        next < end ? start + traffic.arrival_ns[next] : now + kPollNs;
    if (next < end && now >= due) {
      client->Send(traffic.stream[next], next, 0, due);
      ++next;
      continue;
    }
    client->CollectOrWait(due);
  }
}

/// Closed loop for `duration_ns`, sending the phase-B supply from `*next`
/// on; returns the window [start, end). In a traced run the 2nd and 4th
/// quarters are traced, the others not, so trace.overhead compares both
/// under the same cache state.
std::pair<int64_t, int64_t> RunPhaseB(const Traffic& traffic,
                                      int64_t duration_ns, bool traced,
                                      Tracer* tracer, Client* client,
                                      size_t* next, bool* exhausted) {
  const int64_t start = NowNs();
  const int64_t end = start + duration_ns;
  for (;;) {
    const int64_t now = NowNs();
    if (traced) tracer->set_enabled((now - start) * 4 / duration_ns % 2 == 1);
    if (now < end && client->outstanding() < kOutstanding) {
      if (*next < traffic.stream.size()) {
        client->Send(traffic.stream[*next], *next, 1, now);
        ++*next;
        continue;
      }
      *exhausted = true;
    }
    if (now >= end && client->outstanding() == 0) break;
    client->CollectOrWait(end, kClosedLoopPollNs);
  }
  tracer->set_enabled(traced);
  return {start, end};
}

/// Blocking reference runs: one per distinct (query, seed).
std::map<std::pair<const Query*, uint64_t>, std::vector<CostVector>>
ColdFrontiers(const std::vector<BatchTask>& tasks) {
  std::map<std::pair<const Query*, uint64_t>, std::vector<CostVector>> out;
  std::vector<BatchTask> distinct;
  for (const BatchTask& task : tasks) {
    if (out.emplace(std::make_pair(task.query.get(), task.seed),
                    std::vector<CostVector>())
            .second) {
      distinct.push_back(task);
    }
  }
  std::vector<std::vector<CostVector>> frontiers(distinct.size());
  const std::shared_ptr<const CostModel> model = ServiceModel();
  ParallelFor(distinct.size(), kVerifyThreads, [&](size_t i) {
    QueryUnderTest q;
    q.query = distinct[i].query;
    q.model = model;
    q.seed = distinct[i].seed;
    q.k = kIterations;
    frontiers[i] = ColdFrontier(q);
  });
  for (size_t i = 0; i < distinct.size(); ++i) {
    out[{distinct[i].query.get(), distinct[i].seed}] =
        std::move(frontiers[i]);
  }
  return out;
}

/// The frontier-cache layer, which service_remote cannot reach through
/// shardd with exact repeats (see the file header). An in-process
/// scheduler set up as the workload's shardd runs (one worker, slices of
/// 8 steps, a 64 MB frontier cache) serves the phase-A shape sequence one
/// request at a time. Every kFreshSeedEvery-th request gets a fresh seed;
/// the others repeat their shape's seed and are exact hits unless a
/// fresh-seed run has replaced the shape's entry since. An exact hit must
/// repeat the last frontier delivered for its (shape, seed) bitwise, and
/// every delivery must contain the cold frontier of its request.
void MeasureFrontierCache(const Traffic& traffic, Tracer* tracer,
                          RunRecord* record) {
  std::vector<BatchTask> tasks(traffic.phase_a);
  for (size_t i = 0; i < tasks.size(); ++i) {
    const size_t k = traffic.shape_of[i];
    tasks[i].query = traffic.shapes[k];
    tasks[i].seed = (i + 1) % kFreshSeedEvery == 0 ? traffic.stream[i].seed
                                                   : traffic.shape_seeds[k];
  }
  OnlineConfig config;
  config.num_threads = 1;
  config.steps_per_slice = kRemoteSliceSteps;
  config.retain_frontiers = false;
  config.frontier_cache = std::make_shared<FrontierCache>();
  OnlineScheduler scheduler(config, MakeRmq(kIterations));
  scheduler.Start();
  std::map<std::pair<const Query*, uint64_t>, std::vector<CostVector>> last;
  std::vector<std::optional<BatchTaskResult>> results(tasks.size());
  double hits = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    ++record->attempted;
    const int64_t start = NowNs();
    std::optional<std::future<BatchTaskResult>> future =
        scheduler.Submit(tasks[i]);
    try {
      if (future.has_value()) results[i] = future->get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cache probe request %zu failed: %s\n", i,
                   e.what());
    }
    const int64_t end = NowNs();
    record->Check("cache_probe_delivered", results[i].has_value());
    if (!results[i].has_value()) {
      ++record->failed;
      continue;
    }
    const BatchTaskResult& r = *results[i];
    const std::pair<const Query*, uint64_t> key(tasks[i].query.get(),
                                                tasks[i].seed);
    const bool exact = r.served_from_cache;
    tracer->Add(exact ? "cache.exact_hit" : "cache.run", start, end, -1,
                static_cast<int64_t>(traffic.stream.size() + i));
    if (exact) {
      hits += 1.0;
      const auto it = last.find(key);
      const bool repeats = it != last.end() && BitwiseEqual(r.frontier,
                                                            it->second);
      record->Check("cache_exact_hits_repeat_frontier", repeats);
      if (!repeats) ++record->failed;
    }
    last[key] = r.frontier;
    record->samples[exact ? "cache.hit_lat_ms" : "cache.miss_lat_ms"]
        .push_back(NsToMs(end - start));
  }
  scheduler.Stop();
  record->scalars["cache.exact_share"] =
      tasks.empty() ? 0.0 : hits / static_cast<double>(tasks.size());

  const auto cold = ColdFrontiers(tasks);
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!results[i].has_value()) continue;
    const bool ok = ContainsAll(
        results[i]->frontier, cold.at({tasks[i].query.get(), tasks[i].seed}));
    record->Check("cache_probe_contains_cold_runs", ok);
    if (!ok) ++record->failed;
  }
}

}  // namespace

RunRecord RunService(const RunOptions& options) {
  const bool remote = options.workload == "service_remote";
  if (!remote && options.workload != "service_local") {
    throw std::runtime_error("not a service workload: " + options.workload);
  }
  RunRecord record;
  record.kind = "service";
  const double phase_a_s = options.seconds * kPhaseAShare;
  const double phase_b_s = options.seconds - phase_a_s;
  record.config["phase_a_s"] = phase_a_s;
  record.config["phase_b_s"] = phase_b_s;

  Tracer tracer(options.traced());
  Traffic traffic;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < (options.smoke ? 2 : kSetupReps); ++rep) {
    if (service != nullptr) {
      service->Stop();
      service.reset();
    }
    const Stopwatch setup;
    traffic = MakeTraffic(remote, options.seed, phase_a_s, phase_b_s);
    if (remote) {
      service = std::make_unique<RemoteService>(options);
    } else {
      service = std::make_unique<LocalService>();
    }
    Tracer untraced(false);
    Client warmup(service.get(), &untraced);
    for (size_t j = 0; j < traffic.warmup.size(); ++j) {
      warmup.Send(traffic.warmup[j], j, -1, NowNs());
    }
    while (warmup.outstanding() > 0) warmup.CollectOrWait(NowNs() + kPollNs);
    for (const Sample& sample : warmup.samples()) {
      record.Check("warmup_delivered", sample.delivered);
    }
    record.setup_s.push_back(static_cast<double>(setup.ElapsedMicros()) / 1e6);
  }
  const int64_t epoch_ns =
      remote ? 0 : static_cast<LocalService*>(service.get())->epoch_ns();

  Client client(service.get(), &tracer);
  const int64_t a_segment_ns =
      static_cast<int64_t>(phase_a_s * 1e9) / kSegments;
  const int64_t b_segment_ns =
      static_cast<int64_t>(phase_b_s * 1e9) / kSegments;
  auto first_arrival_at = [&](int64_t t) {
    return static_cast<size_t>(std::lower_bound(traffic.arrival_ns.begin(),
                                                traffic.arrival_ns.end(), t) -
                               traffic.arrival_ns.begin());
  };
  std::vector<std::pair<int64_t, int64_t>> b_windows;
  size_t next_b = traffic.phase_a;
  bool exhausted = false;
  for (int j = 0; j < kSegments; ++j) {
    const size_t end = j + 1 == kSegments
                           ? traffic.phase_a
                           : first_arrival_at((j + 1) * a_segment_ns);
    RunPhaseA(traffic, first_arrival_at(j * a_segment_ns), end,
              j * a_segment_ns, &client);
    b_windows.push_back(RunPhaseB(traffic, b_segment_ns, options.traced(),
                                  &tracer, &client, &next_b, &exhausted));
  }
  record.Check("phase_b_supply_sufficient", !exhausted);
  const double rss_mb = PeakRssMb();
  record.Check("no_failed_shards", service->Stop());
  service.reset();
  record.scalars["peak_rss_mb"] = std::max(rss_mb, ChildrenPeakRssMb());

  const std::vector<Sample>& samples = client.samples();
  record.attempted = static_cast<int64_t>(samples.size());
  // Phase-B completions seen inside a window, by quarter parity (the odd
  // quarters are the traced ones in a traced run), and the last one seen
  // in each window.
  double window_completions[2] = {0.0, 0.0};
  std::vector<int64_t> last_seen_ns;
  for (const auto& window : b_windows) last_seen_ns.push_back(window.first);
  double window_optimize_ms = 0.0;
  double window_slices = 0.0;
  const int slice_steps = remote ? kRemoteSliceSteps : 1;
  for (const Sample& s : samples) {
    record.Check("requests_accepted", s.accepted);
    record.Check("futures_delivered", !s.accepted || s.delivered);
    if (!s.delivered) {
      ++record.failed;
      continue;
    }
    const BatchTaskResult& r = s.result;
    const double latency_ms = NsToMs(s.seen_ns - s.due_ns);
    record.samples["sched.queue_ms"].push_back(r.elapsed_millis -
                                               r.optimize_millis);
    record.samples["sched.run_ms"].push_back(r.optimize_millis);
    if (s.phase == 0) {
      record.samples["lat_ms"].push_back(latency_ms);
      record.samples["gen.late_ms"].push_back(
          NsToMs(s.submit_start_ns - s.due_ns));
      const double submit_us = NsToUs(s.submit_end_ns - s.submit_start_ns);
      record.samples[remote ? "router.submit_us" : "sched.submit_us"]
          .push_back(submit_us);
      if (remote) {
        record.samples["remote.overhead_ms"].push_back(latency_ms -
                                                       r.elapsed_millis);
      } else {
        const double finish_ns =
            static_cast<double>(epoch_ns) +
            (r.admit_millis + r.elapsed_millis) * 1e6;
        record.samples["sched.deliver_ms"].push_back(
            (static_cast<double>(s.seen_ns) - finish_ns) / 1e6);
      }
    } else if (s.phase == 1) {
      for (size_t w = 0; w < b_windows.size(); ++w) {
        const auto [start, end] = b_windows[w];
        if (s.seen_ns < start || s.seen_ns >= end) continue;
        window_completions[(s.seen_ns - start) * 4 / (end - start) % 2] += 1.0;
        last_seen_ns[w] = std::max(last_seen_ns[w], s.seen_ns);
        window_optimize_ms += r.optimize_millis;
        window_slices += std::ceil(static_cast<double>(r.steps) / slice_steps);
      }
    }
  }
  // Rates over the spans from each window's start to the last completion
  // in it, so the estimate is not quantized by the fixed window length.
  int64_t window_ns = 0;
  for (size_t w = 0; w < b_windows.size(); ++w) {
    window_ns += last_seen_ns[w] - b_windows[w].first;
  }
  const double window_s = NsToMs(window_ns) / 1e3;
  const double completions = window_completions[0] + window_completions[1];
  record.scalars["sat_qps"] = window_s > 0.0 ? completions / window_s : 0.0;
  record.scalars["sched.slice_overhead_us"] =
      window_slices == 0.0
          ? 0.0
          : (kWorkers * window_s * 1e3 - window_optimize_ms) / window_slices *
                1e3;
  double late_max = 0.0;
  for (double late : record.samples["gen.late_ms"]) {
    late_max = std::max(late_max, late);
  }
  record.scalars["gen.late_ms_max"] = late_max;
  if (options.traced()) {
    // Traced and untraced quarters have equal length.
    record.scalars["trace.overhead"] =
        window_completions[0] == 0.0
            ? 0.0
            : window_completions[1] / window_completions[0];
  }

  // Output checks against blocking, deadline-free runs of the same
  // requests. service_local must reproduce them bitwise; on service_remote
  // a warm start may widen a frontier but never lose a point. alpha_gmean
  // scores the same deliveries against them: 1 means the service delivers
  // at least the optimizer's own quality.
  auto checked = [&](const Sample& s) {
    return s.delivered && s.request % kCheckEvery == 0;
  };
  std::vector<BatchTask> to_check;
  for (const Sample& s : samples) {
    if (checked(s)) to_check.push_back(traffic.stream[s.request]);
  }
  const auto cold = ColdFrontiers(to_check);
  for (const Sample& s : samples) {
    if (!checked(s)) continue;
    const BatchTask& task = traffic.stream[s.request];
    const std::vector<CostVector>& want =
        cold.at({task.query.get(), task.seed});
    const bool ok = remote ? ContainsAll(s.result.frontier, want)
                           : BitwiseEqual(s.result.frontier, want);
    record.Check("frontiers_match_cold_runs", ok);
    if (!ok) ++record.failed;
    record.alpha.push_back(AlphaError(s.result.frontier, want));
  }

  if (options.traced()) {
    // The RMQ layers on a sample of the workload's queries: service_local
    // samples requests evenly over phase A, service_remote takes the most
    // frequent shapes. DP(1.01) references score the replica's frontiers.
    const size_t sample_size = options.smoke ? 4 : kSample;
    std::vector<QueryUnderTest> sampled;
    std::vector<BatchTask> sampled_tasks;
    for (size_t j = 0; j < sample_size; ++j) {
      BatchTask task;
      if (remote) {
        task.query = traffic.shapes[j];
        task.seed = traffic.shape_seeds[j];
      } else {
        task = traffic.stream[j * traffic.phase_a / sample_size];
      }
      QueryUnderTest q;
      q.query = task.query;
      q.model = ServiceModel();
      q.seed = task.seed;
      q.k = kIterations;
      sampled.push_back(std::move(q));
      sampled_tasks.push_back(std::move(task));
    }
    ParallelFor(sampled.size(), kVerifyThreads, [&](size_t j) {
      sampled[j].reference = DpReference(sampled[j].query, *sampled[j].model);
    });
    ReplicaTotals totals;
    bool identical = true;
    for (size_t j = 0; j < sampled.size(); ++j) {
      const ReplicaRun run = RunReplica(sampled[j], &tracer,
                                        static_cast<int64_t>(j), &totals);
      identical = identical && BitwiseEqual(run.frontier,
                                            ColdFrontier(sampled[j]));
      record.samples["rmq.alpha_at_k"].push_back(
          AlphaError(run.frontier, sampled[j].reference));
    }
    record.Check("replica_identical", identical);
    RecordRmqLayers(tracer, totals, &record);
    record.scalars["rmq.replica_identical"] = identical ? 1.0 : 0.0;
    record.Check("rmq_coverage_at_least_0.9",
                 record.scalars["rmq.coverage"] >= 0.9);
    std::vector<const QueryUnderTest*> naive;
    for (const QueryUnderTest& q : sampled) naive.push_back(&q);
    record.scalars["climb.naive_ratio"] = NaiveClimbRatio(naive, &tracer);

    // Transport layers on the workload's own tasks, plus one mid-run
    // snapshot (half the iterations) per sampled request.
    std::vector<BatchTask> tasks;
    if (remote) {
      for (size_t k = 0; k < traffic.shapes.size(); ++k) {
        BatchTask task;
        task.query = traffic.shapes[k];
        task.seed = traffic.shape_seeds[k];
        tasks.push_back(std::move(task));
      }
    } else {
      tasks.assign(traffic.stream.begin(),
                   traffic.stream.begin() + static_cast<std::ptrdiff_t>(
                       std::min(kTransportTasks, traffic.phase_a)));
    }
    std::vector<WireTask> snapshots;
    for (size_t j = 0; j < sampled.size(); ++j) {
      WireTask snapshot = MakeWireTask(sampled_tasks[j]);
      snapshot.checkpoint = MidRunCheckpoint(sampled[j], kIterations / 2);
      snapshot.steps = kIterations / 2;
      snapshots.push_back(std::move(snapshot));
    }
    MeasureTransportLayers(std::move(tasks), snapshots, &tracer, &record);
    if (remote) MeasureFrontierCache(traffic, &tracer, &record);
    if (!tracer.WriteChromeJson(options.trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n",
                   options.trace_path.c_str());
    }
  }
  return record;
}

}  // namespace perfbench
}  // namespace moqo
