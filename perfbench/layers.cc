#include "layers.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "core/frontier_approximation.h"
#include "core/pareto_climb.h"
#include "core/plan_cache.h"
#include "core/query_fingerprint.h"
#include "core/rmq.h"
#include "net/frame_channel.h"
#include "plan/plan_factory.h"
#include "plan/random_plan.h"
#include "service/shard_protocol.h"

namespace moqo {
namespace perfbench {

namespace {

/// Each transport operation is timed this many times per frame.
constexpr int kTransportReps = 3;

double PerIteration(double total, const ReplicaTotals& totals) {
  return totals.iterations == 0
             ? 0.0
             : total / static_cast<double>(totals.iterations);
}

double Share(int64_t part, int64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

ReplicaRun RunReplica(const QueryUnderTest& q, Tracer* tracer,
                      int64_t request, ReplicaTotals* totals) {
  PlanFactory factory(q.query, q.model.get());
  Rng rng(q.seed);
  PlanCache cache;
  const TableSet all = q.query->AllTables();
  const RmqConfig config;
  ReplicaRun run;
  const int64_t start = NowNs();
  const int root = tracer->Begin("rmq.query", -1, request);
  for (int i = 1; i <= q.k; ++i) {
    const int64_t built = factory.plans_built();
    ScopedSpan iteration(tracer, "rmq.iteration", root, request);
    PlanPtr plan;
    {
      ScopedSpan span(tracer, "plan.random", iteration.id(), request);
      plan = RandomPlan(&factory, &rng);
    }
    ClimbStats climb;
    {
      ScopedSpan span(tracer, "core.pareto_climb", iteration.id(), request);
      plan = ParetoClimb(plan, &factory, &climb, Deadline(),
                         PlanSpace::kBushy);
    }
    {
      ScopedSpan span(tracer, "core.approximate_frontiers", iteration.id(),
                      request);
      totals->inserted += ApproximateFrontiers(
          plan, &cache, RmqAlphaFor(config, i), &factory);
    }
    {
      ScopedSpan span(tracer, "plan_cache.lookup", iteration.id(), request);
      cache.Lookup(all);
    }
    totals->climb_steps += climb.steps;
    totals->plans_examined += climb.plans_examined;
    totals->plans_built += factory.plans_built() - built;
    ++totals->iterations;
  }
  tracer->End(root);
  run.ttk_ns = NowNs() - start;
  run.frontier = CanonicalFrontier(cache.Lookup(all));
  totals->cache_sets += static_cast<int64_t>(cache.NumTableSets());
  totals->cache_plans += static_cast<int64_t>(cache.TotalPlans());
  ++totals->runs;
  return run;
}

double NaiveClimbRatio(const std::vector<const QueryUnderTest*>& queries,
                       Tracer* tracer) {
  constexpr int kPlansPerQuery = 3;
  constexpr int64_t kNaiveCapMs = 2000;
  int64_t pareto_ns = 0;
  int64_t naive_ns = 0;
  for (const QueryUnderTest* q : queries) {
    PlanFactory factory(q->query, q->model.get());
    Rng rng(CombineSeed(q->seed, 0x6e61697665ull /* "naive" */));
    for (int i = 0; i < kPlansPerQuery; ++i) {
      PlanPtr plan = RandomPlan(&factory, &rng);
      int64_t t = NowNs();
      {
        ScopedSpan span(tracer, "climb.pareto_sample");
        ParetoClimb(plan, &factory);
      }
      pareto_ns += NowNs() - t;
      t = NowNs();
      {
        ScopedSpan span(tracer, "climb.naive_sample");
        NaiveClimb(plan, &factory, nullptr,
                   Deadline::AfterMillis(kNaiveCapMs));
      }
      naive_ns += NowNs() - t;
    }
  }
  return pareto_ns == 0 ? 0.0
                        : static_cast<double>(naive_ns) /
                              static_cast<double>(pareto_ns);
}

void RecordRmqLayers(const Tracer& tracer, const ReplicaTotals& totals,
                     RunRecord* record) {
  const int64_t iteration = tracer.TotalNs("rmq.iteration");
  const int64_t random = tracer.TotalNs("plan.random");
  const int64_t climb = tracer.TotalNs("core.pareto_climb");
  const int64_t approx = tracer.TotalNs("core.approximate_frontiers");
  const int64_t lookup = tracer.TotalNs("plan_cache.lookup");
  auto& s = record->scalars;
  s["plan.random_us"] = PerIteration(NsToUs(random), totals);
  s["plan.built_per_iter"] =
      PerIteration(static_cast<double>(totals.plans_built), totals);
  s["climb.ms"] = PerIteration(NsToMs(climb), totals);
  s["climb.share"] = Share(climb, iteration);
  s["climb.path"] =
      PerIteration(static_cast<double>(totals.climb_steps), totals);
  s["climb.examined"] =
      PerIteration(static_cast<double>(totals.plans_examined), totals);
  s["approx.ms"] = PerIteration(NsToMs(approx), totals);
  s["approx.share"] = Share(approx, iteration);
  s["approx.inserted"] =
      PerIteration(static_cast<double>(totals.inserted), totals);
  s["cache.lookup_us"] = PerIteration(NsToUs(lookup), totals);
  const double runs = std::max(1, totals.runs);
  s["cache.sets"] = static_cast<double>(totals.cache_sets) / runs;
  s["cache.plans"] = static_cast<double>(totals.cache_plans) / runs;
  s["rmq.coverage"] = Share(random + climb + approx + lookup, iteration);
}

std::vector<uint8_t> MidRunCheckpoint(const QueryUnderTest& q, int steps) {
  PlanFactory factory(q.query, q.model.get());
  Rng rng(q.seed);
  RmqConfig config;
  config.max_iterations = q.k;
  RmqSession session(config);
  session.Begin(&factory, &rng);
  for (int i = 0; i < steps; ++i) session.Step();
  return session.Checkpoint();
}

void MeasureTransportLayers(std::vector<BatchTask> tasks,
                            const std::vector<WireTask>& snapshots,
                            Tracer* tracer, RunRecord* record) {
  int64_t fingerprint_ns = 0;
  for (BatchTask& task : tasks) {
    for (int rep = 0; rep < kTransportReps; ++rep) {
      ScopedSpan span(tracer, "core.fingerprint");
      const int64_t t = NowNs();
      task.fingerprint = QueryFingerprint(*task.query);
      fingerprint_ns += NowNs() - t;
    }
  }

  std::vector<WireTask> wire;
  for (const BatchTask& task : tasks) wire.push_back(MakeWireTask(task));
  wire.insert(wire.end(), snapshots.begin(), snapshots.end());

  int64_t encode_ns = 0, decode_ns = 0, crc_ns = 0;
  int64_t proto_encode_ns = 0, proto_decode_ns = 0, roundtrip_ns = 0;
  double submit_bytes = 0.0, snapshot_bytes = 0.0;
  int64_t roundtrips = 0;
  bool intact = true;
  net::FrameChannel client;
  net::FrameChannel server;
  const bool paired = net::FrameChannel::Pair(&client, &server);
  intact = intact && paired;
  for (size_t i = 0; i < wire.size(); ++i) {
    const bool is_submit = i < tasks.size();
    std::vector<uint8_t> frame;
    for (int rep = 0; rep < kTransportReps; ++rep) {
      ScopedSpan span(tracer, "wire.encode");
      const int64_t t = NowNs();
      frame = EncodeWireTask(wire[i]);
      encode_ns += NowNs() - t;
    }
    (is_submit ? submit_bytes : snapshot_bytes) +=
        static_cast<double>(frame.size());
    for (int rep = 0; rep < kTransportReps; ++rep) {
      ScopedSpan span(tracer, "wire.decode");
      WireTask decoded;
      const int64_t t = NowNs();
      const bool ok = DecodeWireTask(frame, &decoded);
      decode_ns += NowNs() - t;
      intact = intact && ok && *decoded.task.query == *wire[i].task.query;
    }
    // The frame ends in a little-endian CRC32 of everything before it.
    uint32_t trailer = 0;
    for (size_t b = 0; b < 4; ++b) {
      trailer |= static_cast<uint32_t>(frame[frame.size() - 4 + b]) << (8 * b);
    }
    for (int rep = 0; rep < kTransportReps; ++rep) {
      ScopedSpan span(tracer, "wire.crc");
      const int64_t t = NowNs();
      const uint32_t crc = Crc32(frame.data(), frame.size() - 4);
      crc_ns += NowNs() - t;
      intact = intact && crc == trailer;
    }
    Message message;
    message.type = MsgType::kSubmit;
    message.request_id = i + 1;
    message.body = std::move(frame);
    std::vector<uint8_t> payload;
    for (int rep = 0; rep < kTransportReps; ++rep) {
      ScopedSpan span(tracer, "proto.encode");
      const int64_t t = NowNs();
      payload = EncodeMessage(message);
      proto_encode_ns += NowNs() - t;
    }
    for (int rep = 0; rep < kTransportReps; ++rep) {
      ScopedSpan span(tracer, "proto.decode");
      Message decoded;
      const int64_t t = NowNs();
      const bool ok = DecodeMessage(payload, &decoded, nullptr);
      proto_decode_ns += NowNs() - t;
      intact = intact && ok && decoded.body == message.body;
    }
    // Only submit messages cross the socket pair: both ends live on this
    // thread, and a snapshot larger than the socket buffer would block
    // Send() before Recv() could drain it.
    if (!is_submit || !paired) continue;
    for (int rep = 0; rep < kTransportReps; ++rep) {
      ScopedSpan span(tracer, "net.roundtrip");
      std::vector<uint8_t> received;
      const int64_t t = NowNs();
      const bool ok = client.Send(payload) == net::IoStatus::kOk &&
                      server.Recv(&received, 1000) == net::IoStatus::kOk;
      roundtrip_ns += NowNs() - t;
      ++roundtrips;
      intact = intact && ok && received == payload;
    }
  }

  const double frames = static_cast<double>(wire.size() * kTransportReps);
  auto per_frame = [frames](int64_t ns) {
    return frames == 0.0 ? 0.0 : NsToUs(ns) / frames;
  };
  auto& s = record->scalars;
  s["fingerprint.us"] =
      tasks.empty() ? 0.0
                    : NsToUs(fingerprint_ns) /
                          static_cast<double>(tasks.size() * kTransportReps);
  s["wire.encode_us"] = per_frame(encode_ns);
  s["wire.decode_us"] = per_frame(decode_ns);
  s["wire.crc_us"] = per_frame(crc_ns);
  s["proto.encode_us"] = per_frame(proto_encode_ns);
  s["proto.decode_us"] = per_frame(proto_decode_ns);
  s["wire.submit_bytes"] =
      tasks.empty() ? 0.0 : submit_bytes / static_cast<double>(tasks.size());
  s["wire.snapshot_bytes"] =
      snapshots.empty()
          ? 0.0
          : snapshot_bytes / static_cast<double>(snapshots.size());
  s["net.roundtrip_us"] =
      roundtrips == 0 ? 0.0
                      : NsToUs(roundtrip_ns) / static_cast<double>(roundtrips);
  record->Check("transport_roundtrip_intact", intact);
}

}  // namespace perfbench
}  // namespace moqo
