// The layer suite of a traced run: single-threaded replays that call each
// layer's public functions directly (data, algorithms, rng, workload,
// serialize, net, serve), plus reduced replays of the workloads the run
// itself does not drive. Every replayed call is recorded as a span; the
// per-layer metrics are computed from the same timestamps.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/algorithms/mechanism.h"
#include "src/common/lockstep.h"
#include "src/common/rng.h"
#include "src/data/datasets.h"
#include "src/data/sampler.h"
#include "src/engine/net.h"
#include "src/engine/serialize.h"
#include "src/engine/serve.h"
#include "src/workload/workload.h"

namespace dpbench {
namespace perf {
namespace {

void Layer(Report* r, const std::string& name, double value,
           const char* unit) {
  r->per_layer[name] = Metric{value, unit};
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Spans are buffered locally while allocations are being counted (the
/// tracer's own bookkeeping allocates) and flushed afterwards.
struct SpanBuffer {
  struct Pending {
    const char* name;
    double start, end;
    uint64_t task;
  };
  std::vector<Pending> pending;
  explicit SpanBuffer(size_t n) { pending.reserve(n); }
  void Add(const char* name, double a, double b, uint64_t task) {
    pending.push_back({name, a, b, task});
  }
  void Flush(Tracer* tracer, uint64_t parent) {
    for (const Pending& p : pending) {
      tracer->Record(p.name, p.start, p.end, parent, p.task);
    }
    pending.clear();
  }
};

/// Execute + evaluate totals shared by the replays.
struct ExecTally {
  uint64_t allocs = 0;
  uint64_t trials = 0;
};

/// Times `trials` ExecuteInto + EvaluateInto calls after two warm-up
/// trials. Returns (execute seconds, evaluate seconds, rng draws).
struct ScalarTimes {
  double exec_s = 0.0;
  double eval_s = 0.0;
  uint64_t draws = 0;
};
ScalarTimes TimeScalar(const MechanismPlan& plan, const DataVector& x,
                       const Workload& w, uint64_t seed, size_t trials,
                       Tracer* tracer, uint64_t parent, ExecTally* tally) {
  Rng rng(seed);
  ExecScratch scratch;
  DataVector est;
  std::vector<double> cum, answers;
  ExecContext ctx{x, &rng, &scratch};
  for (int i = 0; i < 2; ++i) {
    MustOk(plan.ExecuteInto(ctx, &est), "ExecuteInto");
    w.EvaluateInto(est, &cum, &answers);
  }
  SpanBuffer spans(2 * trials);
  ScalarTimes t;
  uint64_t allocs0 = ThreadAllocations();
  uint64_t pos0 = rng.generator().position();
  for (size_t i = 0; i < trials; ++i) {
    double a = NowSeconds();
    MustOk(plan.ExecuteInto(ctx, &est), "ExecuteInto");
    double b = NowSeconds();
    w.EvaluateInto(est, &cum, &answers);
    double c = NowSeconds();
    t.exec_s += b - a;
    t.eval_s += c - b;
    spans.Add("algorithms.execute_into", a, b, i);
    spans.Add("workload.evaluate_into", b, c, i);
  }
  t.draws = rng.generator().position() - pos0;
  tally->allocs += ThreadAllocations() - allocs0;
  tally->trials += trials;
  spans.Flush(tracer, parent);
  return t;
}

/// Replay of grid_1d cells: for each algorithm of the grid, on one
/// representative (dataset, scale, eps) cell, SampleAtScale -> Plan ->
/// ExecuteMany (lockstep) + EvaluateMany -> ExecuteInto + EvaluateInto.
void Replay1D(const Options& o, Tracer* tracer, Report* r,
              ExecTally* tally) {
  ExperimentConfig config = Grid1DConfig(o.seed, o.size());
  const size_t domain = config.domain_sizes[0];
  const size_t batches = o.tiny ? 4 : 96;
  const size_t scalar_trials = o.tiny ? 4 : 256;
  const size_t lanes = lockstep::ActiveLaneWidth();
  DataVector shape = Must(DatasetRegistry::ShapeAtDomain("ADULT", domain),
                          "ShapeAtDomain");
  Rng data_rng(SeedMixer(o.seed).Mix(std::string("replay-1d")).seed());
  std::vector<double> sample_s;
  DataVector x;
  for (uint64_t scale : config.scales) {
    DataVector sample;
    sample_s.push_back(TimedSpan(tracer, "data.sample", 0, scale, [&] {
      sample = Must(SampleAtScale(shape, scale, &data_rng), "SampleAtScale");
    }));
    if (scale <= 1000000) x = std::move(sample);
  }
  Layer(r, "data.sample_ms", Mean(sample_s) * 1e3, "ms");

  Workload w = Workload::Prefix1D(domain);
  std::vector<double> eval_lockstep_s, eval_scalar_s;
  for (size_t a = 0; a < config.algorithms.size(); ++a) {
    const std::string& alg = config.algorithms[a];
    const std::string key = "algorithms.us_per_trial." + MetricSafe(alg);
    MechanismPtr mech = Must(MechanismRegistry::Get(alg), "registry");
    uint64_t cell = tracer->NextId();
    double cell0 = NowSeconds();
    PlanPtr plan;
    TimedSpan(tracer, "algorithms.plan", cell, a, [&] {
      plan = Must(mech->Plan(PlanContext{x.domain(), w, 0.1, {x.Scale()}}),
                  "Plan");
    });
    const uint64_t seed = SeedMixer(o.seed).Mix(alg).seed();
    {
      // ExecuteMany at the active width (a plain scalar loop for plans
      // without a lockstep override), so the metric exists on every tier.
      Rng rng(seed);
      ExecScratch scratch;
      std::vector<double> est_lanes, cum, answers;
      ExecContext ctx{x, &rng, &scratch};
      for (int i = 0; i < 2; ++i) {
        MustOk(plan->ExecuteMany(ctx, lanes, &est_lanes), "ExecuteMany");
        w.EvaluateMany(est_lanes.data(), lanes, &cum, &answers);
      }
      SpanBuffer spans(2 * batches);
      double exec_s = 0.0, eval_s = 0.0;
      uint64_t allocs0 = ThreadAllocations();
      for (size_t b = 0; b < batches; ++b) {
        double t0 = NowSeconds();
        MustOk(plan->ExecuteMany(ctx, lanes, &est_lanes), "ExecuteMany");
        double t1 = NowSeconds();
        w.EvaluateMany(est_lanes.data(), lanes, &cum, &answers);
        double t2 = NowSeconds();
        exec_s += t1 - t0;
        eval_s += t2 - t1;
        spans.Add("algorithms.execute_many", t0, t1, b);
        spans.Add("workload.evaluate_many", t1, t2, b);
      }
      tally->allocs += ThreadAllocations() - allocs0;
      tally->trials += batches * lanes;
      spans.Flush(tracer, cell);
      const double n = static_cast<double>(batches * lanes);
      Layer(r, key + ".lockstep", exec_s / n * 1e6, "us");
      eval_lockstep_s.push_back(eval_s / n);
    }
    ScalarTimes s =
        TimeScalar(*plan, x, w, seed, scalar_trials, tracer, cell, tally);
    const double n = static_cast<double>(scalar_trials);
    Layer(r, key + ".scalar", s.exec_s / n * 1e6, "us");
    Layer(r, "rng.draws_per_trial." + MetricSafe(alg),
          static_cast<double>(s.draws) / n, "count");
    eval_scalar_s.push_back(s.eval_s / n);
    tracer->RecordWithId(cell, "replay.cell_1d", cell0, NowSeconds(), 0, a);
  }
  Layer(r, "workload.eval_us_per_trial.prefix",
        Mean(eval_lockstep_s) * 1e6, "us");
  Layer(r, "workload.eval_us_per_trial.prefix_scalar",
        Mean(eval_scalar_s) * 1e6, "us");
}

/// Replay of distrib_2d cells: every 2D algorithm on one GOWALLA cell with
/// the 2000-rectangle workload, through the scalar ExecuteInto path.
void Replay2D(const Options& o, Tracer* tracer, Report* r,
              ExecTally* tally) {
  ExperimentConfig config = Distrib2DConfig(o.seed, o.size());
  const size_t side = config.domain_sizes[0];
  const size_t trials = o.tiny ? 2 : 12;
  DataVector shape = Must(DatasetRegistry::ShapeAtDomain("GOWALLA", side),
                          "ShapeAtDomain");
  Rng data_rng(SeedMixer(o.seed).Mix(std::string("replay-2d")).seed());
  DataVector x;
  TimedSpan(tracer, "data.sample", 0, 0, [&] {
    x = Must(SampleAtScale(shape, config.scales.back(), &data_rng),
             "SampleAtScale");
  });
  Workload w = Workload::RandomRange(x.domain(), config.random_queries,
                                     o.seed);
  std::vector<double> plan_s, eval_s;
  for (size_t a = 0; a < config.algorithms.size(); ++a) {
    const std::string& alg = config.algorithms[a];
    MechanismPtr mech = Must(MechanismRegistry::Get(alg), "registry");
    uint64_t cell = tracer->NextId();
    double cell0 = NowSeconds();
    PlanPtr plan;
    plan_s.push_back(TimedSpan(tracer, "algorithms.plan", cell, a, [&] {
      plan = Must(mech->Plan(PlanContext{x.domain(), w, 0.1, {x.Scale()}}),
                  "Plan");
    }));
    ScalarTimes s = TimeScalar(*plan, x, w, SeedMixer(o.seed).Mix(alg).seed(),
                               trials, tracer, cell, tally);
    const double n = static_cast<double>(trials);
    Layer(r, "algorithms.us_per_trial." + MetricSafe(alg) + ".scalar_2d",
          s.exec_s / n * 1e6, "us");
    eval_s.push_back(s.eval_s / n);
    tracer->RecordWithId(cell, "replay.cell_2d", cell0, NowSeconds(), 0, a);
  }
  Layer(r, "algorithms.plan_ms", Mean(plan_s) * 1e3, "ms");
  Layer(r, "workload.eval_us_per_trial.rect2000", Mean(eval_s) * 1e6, "us");
}

/// Noise fills: ns per draw of FillLaplace, FillLaplaceLanes, FillGumbel.
void RngLayers(const Options& o, Tracer* tracer, Report* r) {
  const size_t n = 4096;
  const int calls = o.tiny ? 20 : 400;
  const size_t lanes = lockstep::ActiveLaneWidth();
  std::vector<double> buf(n);
  Rng rng(o.seed);
  auto per_draw_ns = [&](const char* span, auto&& fill) {
    double s = MedianSeconds(5, [&] {
      TimedSpan(tracer, span, 0, 0, [&] {
        for (int i = 0; i < calls; ++i) fill();
      });
    });
    return s / (static_cast<double>(calls) * n) * 1e9;
  };
  Layer(r, "rng.laplace_ns_per_draw",
        per_draw_ns("rng.fill_laplace",
                    [&] { rng.FillLaplace(buf.data(), n, 1.0); }),
        "ns");
  Layer(r, "rng.laplace_lanes_ns_per_draw",
        per_draw_ns("rng.fill_laplace_lanes",
                    [&] {
                      rng.FillLaplaceLanes(buf.data(), n / lanes, 1.0, lanes);
                    }),
        "ns");
  Layer(r, "rng.gumbel_ns_per_draw",
        per_draw_ns("rng.fill_gumbel",
                    [&] { rng.FillGumbel(buf.data(), n); }),
        "ns");
}

/// Loopback SendFrame/RecvFrame echo of a serve-sized frame.
double NetLayers(const Options& o, Tracer* tracer, Report* r) {
  const int rounds = o.tiny ? 50 : 2000;
  net::Listener listener = Must(net::Listener::Bind(0), "Bind");
  net::Socket client = Must(net::Connect(listener.port(), 5000), "Connect");
  net::Socket server = Must(listener.Accept(5000), "Accept");
  std::thread echo([&server, rounds] {
    for (int i = 0; i < rounds + 10; ++i) {
      auto f = server.RecvFrame(10000);
      if (!f.ok() || f->timed_out || !server.SendFrame(f->bytes).ok()) return;
    }
  });
  const std::string payload(256, 'x');
  std::vector<double> rtt;
  SpanBuffer spans(rounds);
  bool ok = true;
  for (int i = 0; i < rounds + 10 && ok; ++i) {
    double t0 = NowSeconds();
    ok = client.SendFrame(payload).ok();
    auto f = client.RecvFrame(10000);
    ok = ok && f.ok() && !f->timed_out && f->bytes == payload;
    double t1 = NowSeconds();
    if (i >= 10) {
      rtt.push_back(t1 - t0);
      spans.Add("net.frame_rtt", t0, t1, i);
    }
  }
  echo.join();
  spans.Flush(tracer, 0);
  r->Check(ok, 0, "loopback frame echo failed");
  double us = Median(rtt) * 1e6;
  Layer(r, "net.frame_rtt_us", us, "us");
  return us;
}

/// The serve request path replayed layer by layer. Returns the summed
/// per-request microseconds of codec + admission + journal + execute.
double ServeLayers(const Options& o, Tracer* tracer, Report* r) {
  const int rounds = o.tiny ? 50 : 2000;
  serve::QueryRequest q[2] = {ServeQuery1D("user0", o.seed),
                              ServeQuery2D("user0", o.seed)};

  // Codec: query encode + decode, reply encode + decode.
  double codec_s = 0.0;
  for (int c = 0; c < 2; ++c) {
    serve::QueryResponse reply;
    reply.spent = 1.0;
    reply.remaining = 2.0;
    reply.answers.assign(q[c].lo_row.size(), 12345.678);
    codec_s += MedianSeconds(5, [&] {
      TimedSpan(tracer, "serve.codec", 0, c, [&] {
        for (int i = 0; i < rounds; ++i) {
          auto dq = serve::DecodeQuery(serve::EncodeQuery(q[c]));
          auto dr = serve::DecodeReply(serve::EncodeReply(reply));
          if (!dq.ok() || !dr.ok()) std::exit(3);
        }
      });
    }) / rounds;
  }
  const double codec_us = codec_s / 2.0 * 1e6;
  Layer(r, "serve.codec_us", codec_us, "us");

  // Admission: LedgerAccountant::Charge (the work done under accountant_mu).
  serve::LedgerAccountant accountant(1e9);
  serve::LedgerKey keys[2] = {{"user0", "ADULT"}, {"user0", "GOWALLA"}};
  const double admission_us =
      MedianSeconds(5, [&] {
        TimedSpan(tracer, "serve.admission", 0, 0, [&] {
          for (int i = 0; i < rounds; ++i) {
            Must(accountant.Charge(keys[i % 2], kServeEpsilon), "Charge");
          }
        });
      }) / rounds * 1e6;
  Layer(r, "serve.admission_us", admission_us, "us");

  // Journal: EncodeJournalRecord + AppendFileBytes on a private file.
  const std::string path = o.tmp_dir + "/journal-replay.dpbj";
  std::remove(path.c_str());
  double bytes = 0.0;
  uint64_t seq = 0;
  const double journal_us =
      MedianSeconds(5, [&] {
        TimedSpan(tracer, "serve.journal_append", 0, 0, [&] {
          for (int i = 0; i < rounds; ++i) {
            JournalRecord rec;
            rec.seq = ++seq;
            rec.user = "user0";
            rec.dataset = keys[i % 2].dataset;
            rec.epsilon = kServeEpsilon;
            rec.ordinal = seq;
            rec.budget = 1e9;
            rec.spent_after = kServeEpsilon * static_cast<double>(seq);
            std::string framed = EncodeJournalRecord(rec);
            bytes = static_cast<double>(framed.size());
            MustOk(AppendFileBytes(path, framed), "AppendFileBytes");
          }
        });
      }) / rounds * 1e6;
  std::remove(path.c_str());
  Layer(r, "serve.journal_append_us", journal_us, "us");
  Layer(r, "serve.journal_bytes_per_record", bytes, "B");

  // Execute: the cached plan's single-trial ExecuteInto plus the answer
  // pass over the request's ranges, as the server does per request.
  double execute_us[2] = {0.0, 0.0};
  const char* names[2] = {"q1d", "q2d"};
  for (int c = 0; c < 2; ++c) {
    const size_t side = q[c].domain_size;
    DataVector shape = Must(DatasetRegistry::ShapeAtDomain(q[c].dataset, side),
                            "ShapeAtDomain");
    Rng data_rng(StreamSeed(o.seed, "replay/" + q[c].dataset));
    DataVector x = Must(SampleAtScale(shape, q[c].scale, &data_rng),
                        "SampleAtScale");
    Workload planning = c == 0 ? Workload::Prefix1D(side)
                               : Workload::RandomRange(x.domain(), 2000,
                                                       o.seed);
    std::vector<RangeQuery> ranges;
    for (size_t i = 0; i < q[c].lo_row.size(); ++i) {
      ranges.push_back(c == 0 ? RangeQuery::D1(q[c].lo_row[i], q[c].hi_row[i])
                              : RangeQuery::D2(q[c].lo_row[i], q[c].hi_row[i],
                                               q[c].lo_col[i],
                                               q[c].hi_col[i]));
    }
    Workload answer(x.domain(), ranges, names[c]);
    MechanismPtr mech =
        Must(MechanismRegistry::Get(q[c].algorithm), "registry");
    PlanPtr plan = Must(
        mech->Plan(PlanContext{x.domain(), planning, kServeEpsilon,
                               {x.Scale()}}),
        "Plan");
    ExecScratch scratch;
    DataVector est;
    std::vector<double> cum, answers;
    uint64_t i = 0;
    auto one = [&] {
      Rng rng(SeedMixer(o.seed).Mix(std::string(names[c])).Mix(i++).seed());
      MustOk(plan->ExecuteInto(ExecContext{x, &rng, &scratch}, &est),
             "ExecuteInto");
      answer.EvaluateInto(est, &cum, &answers);
    };
    one();
    execute_us[c] = MedianSeconds(5, [&] {
                      TimedSpan(tracer, "serve.execute", 0, c, [&] {
                        for (int k = 0; k < rounds; ++k) one();
                      });
                    }) / rounds * 1e6;
    Layer(r, std::string("serve.execute_us.") + names[c], execute_us[c], "us");
  }
  return codec_us + admission_us + journal_us +
         0.5 * (execute_us[0] + execute_us[1]);
}

}  // namespace

void RunLayerSuite(const Options& o, Tracer* tracer, Report* r) {
  // Cold shape builds were recorded by this process's own set-up.
  auto totals = tracer->Aggregate();
  const auto& shapes = totals["data.shape_build"];
  Layer(r, "data.shape_build_ms",
        shapes.count > 0 ? shapes.total_s / shapes.count * 1e3 : 0.0, "ms");

  if (r->per_layer.count("runner.parallel_efficiency") == 0) {
    GridSection(o, tracer, r);
  }
  if (r->per_layer.count("distrib.overhead_s") == 0) {
    DistribSection(o, tracer, r);
  }
  if (r->per_layer.count("serve.qps") == 0) ServeSection(o, tracer, r);
  SingleClientSection(o, tracer, r);

  ExecTally tally;
  Replay1D(o, tracer, r, &tally);
  Replay2D(o, tracer, r, &tally);
  const double allocs =
      tally.trials > 0 ? static_cast<double>(tally.allocs) /
                             static_cast<double>(tally.trials)
                       : 0.0;
  Layer(r, "algorithms.allocs_per_trial", allocs, "count");
  if (allocs > 0.0) {
    std::fprintf(stderr, "warning: execute path allocates %.3f times per "
                         "trial (expected 0)\n", allocs);
  }
  RngLayers(o, tracer, r);
  double rtt_us = NetLayers(o, tracer, r);
  double request_us = ServeLayers(o, tracer, r) + rtt_us;
  // Share of the persistent clients' mean latency (q1d and q2d alternate,
  // so the mean weighs both classes equally, like the replay sum) that the
  // replayed layers -- codec, admission, journal, execute, one frame round
  // trip -- account for.
  double mean_us = r->per_layer["serve.latency_mean_ms"].value * 1e3;
  Layer(r, "serve.accounted_share", mean_us > 0.0 ? request_us / mean_us : 0.0,
        "ratio");
  r->extra["trace_spans"] = {static_cast<double>(tracer->size()), "count"};
}

}  // namespace perf
}  // namespace dpbench
