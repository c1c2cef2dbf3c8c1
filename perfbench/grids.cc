// grid_1d and distrib_2d: the batch engine measured from outside, through
// Runner::Run and through an in-process coordinator with two workers.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/algorithms/mechanism.h"
#include "src/data/datasets.h"
#include "src/engine/distrib.h"
#include "src/engine/serialize.h"

namespace dpbench {
namespace perf {
namespace {
constexpr size_t kGridThreads = 4;       // grid_1d Runner threads
constexpr size_t kReferenceThreads = 2;  // the single-process distrib twin
constexpr size_t kDistribWorkers = 2;
}  // namespace

bool Options::Golden(const std::string& key, const std::string& name,
                     uint32_t* out) const {
  auto it = golden.find(key + " " + std::to_string(seed) + " " + name);
  if (it == golden.end()) return false;
  *out = it->second;
  return true;
}

void MustOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
    std::exit(3);
  }
}

ExperimentConfig Grid1DConfig(uint64_t seed, Size size) {
  ExperimentConfig c;
  c.algorithms = {"IDENTITY", "PRIVELET", "H", "HB", "GREEDY_H", "UNIFORM"};
  for (const DatasetInfo& d : DatasetRegistry::All1D()) {
    c.datasets.push_back(d.name);
  }
  c.scales = {1000, 10000, 100000, 1000000, 10000000, 100000000};
  c.domain_sizes = {4096};
  c.epsilons = {0.01, 0.1, 1.0};
  if (size == Size::kReduced) {
    c.datasets.resize(6);
    c.epsilons = {0.1};
  } else if (size == Size::kTiny) {
    c.datasets.resize(2);
    c.scales = {1000, 1000000};
    c.domain_sizes = {1024};
    c.epsilons = {0.1};
    c.data_samples = 1;
  }
  // data_samples x runs_per_sample stays 5 x 10 (tiny: 1 x 10): with 8
  // lanes, 2 of every 10 trials take the scalar remainder path.
  c.workload = WorkloadKind::kPrefix1D;
  c.seed = seed;
  c.threads = kGridThreads;
  return c;
}

ExperimentConfig Distrib2DConfig(uint64_t seed, Size size) {
  ExperimentConfig c;
  c.algorithms = MechanismRegistry::NamesForDims(2);
  c.datasets = {"GOWALLA", "ADULT-2D", "BJ-CABS-S"};
  c.scales = {10000, 1000000};
  c.domain_sizes = {128};
  c.epsilons = {0.1};
  c.random_queries = 2000;
  if (size != Size::kFull) {
    c.datasets = {"GOWALLA"};
    c.scales = {10000};
    c.domain_sizes = {32};
    c.random_queries = 200;
    c.data_samples = 1;
  }
  c.workload = WorkloadKind::kRandomRange2D;
  c.seed = seed;
  c.threads = kReferenceThreads;
  return c;
}

namespace {

uint64_t DistribTasks(Size size) { return size == Size::kFull ? 16 : 4; }

Size SuiteSize(const Options& o) {
  return o.tiny ? Size::kTiny : Size::kReduced;
}

/// Expected digest for a check: the golden entry when the table has one,
/// else `first` (later passes must repeat the first). The self-test's
/// bad_digest flips one bit, which every comparison must then catch.
uint32_t Expect(const Options& o, const std::string& key,
                const std::string& name, uint32_t first) {
  uint32_t crc = first;
  o.Golden(key, name, &crc);
  return o.bad_digest ? crc ^ 1u : crc;
}

void Layer(Report* r, const std::string& name, double value,
           const char* unit) {
  r->per_layer[name] = Metric{value, unit};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct GridPass {
  double wall = 0.0;
  uint32_t digest = 0;
  RunDiagnostics diag;
  std::vector<CellResult> cells;
};

GridPass RunGridPass(const ExperimentConfig& config, Tracer* tracer,
                     const char* span, uint64_t task) {
  GridPass p;
  double t0 = NowSeconds();
  p.cells = Must(Runner::Run(config, nullptr, &p.diag), "Runner::Run");
  double t1 = NowSeconds();
  p.wall = t1 - t0;
  tracer->Record(span, t0, t1, 0, task);
  p.digest = CellsDigest(p.cells);
  return p;
}

/// Runner and thread-pool metrics from a threads=4 pass, plus the
/// threads=1 baseline run for parallel efficiency (its cells must match
/// the threads=4 digest bit for bit).
void RunnerLayers(const ExperimentConfig& config, double wall4,
                  const RunDiagnostics& diag, uint32_t digest, Tracer* tracer,
                  Report* r) {
  Layer(r, "runner.plan_s", diag.plan_seconds, "s");
  Layer(r, "runner.execute_s", diag.execute_seconds, "s");
  Layer(r, "runner.lockstep_share",
        Ratio(static_cast<double>(diag.lockstep_trials),
              static_cast<double>(diag.trials)),
        "ratio");
  Layer(r, "thread_pool.tasks_stolen",
        static_cast<double>(diag.pool_tasks_stolen), "count");
  // Analytic, not measured: 8 B per rng draw + estimate write + workload
  // read per domain cell (RunDiagnostics::bytes_per_trial).
  Layer(r, "runner.bytes_per_trial_computed", diag.bytes_per_trial, "B");

  ExperimentConfig single = config;
  single.threads = 1;
  GridPass p1 = RunGridPass(single, tracer, "runner.run.threads1", 0);
  r->attempted += p1.cells.size();
  r->Check(p1.digest == digest, p1.cells.size(),
           "threads=1 cells digest differs from the threads=4 run");
  Layer(r, "runner.single_thread_wall_s", p1.wall, "s");
  Layer(r, "runner.parallel_efficiency",
        Ratio(p1.wall, static_cast<double>(config.threads) * wall4), "ratio");
}

std::string GridKey(const Options& o) {
  return o.tiny ? "grid_1d-tiny" : "grid_1d";
}

/// Cold shape build for every dataset x domain of `config`, on the calling
/// thread, before any pool or worker thread exists.
double BuildShapes(const ExperimentConfig& config, Tracer* tracer) {
  double t0 = NowSeconds();
  for (const std::string& name : config.datasets) {
    for (size_t domain : config.domain_sizes) {
      TimedSpan(tracer, "data.shape_build", 0, 0, [&] {
        Must(DatasetRegistry::ShapeAtDomain(name, domain), "ShapeAtDomain");
      });
    }
  }
  return NowSeconds() - t0;
}

}  // namespace

double SetupGrid1D(const Options& o) {
  Tracer off(false);
  return BuildShapes(Grid1DConfig(o.seed, o.size()), &off);
}

void RunGrid1D(const Options& o, Tracer* tracer, Report* r) {
  ExperimentConfig config = Grid1DConfig(o.seed, o.size());
  r->setup_samples.push_back(BuildShapes(config, tracer));

  std::vector<double> walls, traced, untraced;
  GridPass last;
  uint32_t expected = 0;
  const int min_passes = o.trace ? 2 : 1;
  double start = NowSeconds();
  for (int pass = 0; pass < min_passes || NowSeconds() - start < o.seconds;
       ++pass) {
    // Traced runs alternate untraced and traced passes; the ratio of
    // their middle means is the tracing overhead.
    bool record = o.trace && pass % 2 == 1;
    tracer->set_recording(record);
    GridPass p = RunGridPass(config, tracer, "runner.run", pass);
    tracer->set_recording(true);
    if (pass == 0) expected = Expect(o, GridKey(o), "cells", p.digest);
    r->attempted += p.cells.size();
    r->Check(p.digest == expected, p.cells.size(),
             "grid_1d cells digest " + std::to_string(p.digest) +
                 " != expected " + std::to_string(expected));
    walls.push_back(p.wall);
    (record ? traced : untraced).push_back(p.wall);
    last = std::move(p);
  }
  double wall = MiddleMean(walls);
  r->end_to_end["wall_s"] = {wall, "s"};
  r->end_to_end["trials_per_s"] = {
      Ratio(static_cast<double>(last.diag.trials), wall), "1/s"};
  r->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  r->AddPassDetail(walls);
  r->extra["cells_per_pass"] = {static_cast<double>(last.cells.size()),
                                "count"};
  r->extra["cells_digest"] = {static_cast<double>(last.digest), "crc32c"};
  if (o.trace) {
    Layer(r, "trace.overhead",
          Ratio(MiddleMean(traced), MiddleMean(untraced)), "ratio");
    RunnerLayers(config, wall, last.diag, expected, tracer, r);
  }
}

void GridSection(const Options& o, Tracer* tracer, Report* r) {
  ExperimentConfig config = Grid1DConfig(o.seed, SuiteSize(o));
  BuildShapes(config, tracer);
  GridPass p = RunGridPass(config, tracer, "suite.runner.run", 0);
  r->attempted += p.cells.size();
  RunnerLayers(config, p.wall, p.diag, p.digest, tracer, r);
}

// ---------------------------------------------------------------------------
// distrib_2d
// ---------------------------------------------------------------------------

namespace {

struct DistribPass {
  double wall = 0.0;
  uint32_t digest = 0;
  size_t cells = 0;
  distrib::CoordinatorSummary summary;
};

/// One coordinated run: Serve on one thread, two RunWorker threads with
/// threads=1 each. The wall time ends when the merged cells come back.
DistribPass RunDistribPass(distrib::Coordinator coord, Tracer* tracer,
                           uint64_t task, Report* r) {
  DistribPass p;
  Result<MergedRun> merged = Status::Internal("coordinator never served");
  const uint16_t port = coord.port();
  std::vector<Result<distrib::WorkerStats>> stats(
      kDistribWorkers, Status::Internal("worker never ran"));
  double t0 = NowSeconds();
  std::thread serve([&] { merged = coord.Serve(&p.summary); });
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kDistribWorkers; ++w) {
    workers.emplace_back([&stats, w, port] {
      distrib::WorkerOptions wo;
      wo.name = "w" + std::to_string(w);
      wo.port = port;
      wo.threads = 1;
      stats[w] = distrib::RunWorker(wo);
    });
  }
  serve.join();
  double t1 = NowSeconds();
  for (std::thread& t : workers) t.join();
  tracer->Record("distrib.run", t0, t1, 0, task);
  p.wall = t1 - t0;
  MergedRun run = Must(std::move(merged), "Coordinator::Serve");
  for (const auto& s : stats) {
    r->Check(s.ok(), 0, "RunWorker: " + s.status().ToString());
  }
  p.digest = CellsDigest(run.cells);
  p.cells = run.cells.size();
  return p;
}

/// Shard serialization on the run's own shards. Task t of T holds the
/// cells whose canonical index is t mod T, so the shards are rebuilt from
/// the single-process cells; the merge must reproduce them exactly.
void SerializeLayers(const ExperimentConfig& config,
                     const std::vector<CellResult>& cells, uint64_t tasks,
                     uint32_t digest, Tracer* tracer, Report* r) {
  std::vector<ShardFile> shards(tasks);
  for (uint64_t t = 0; t < tasks; ++t) {
    shards[t].shard_index = t;
    shards[t].shard_count = tasks;
    shards[t].total_cells = cells.size();
    shards[t].config = config;
  }
  for (const CellResult& c : cells) {
    shards[c.grid_index % tasks].cells.push_back(c);
  }

  std::vector<std::string> images;
  double encode_s = 0.0, decode_s = 0.0, bytes = 0.0;
  std::vector<ShardFile> decoded;
  for (uint64_t t = 0; t < tasks; ++t) {
    std::string image;
    encode_s += TimedSpan(tracer, "serialize.encode_shard", 0, t,
                          [&] { image = EncodeShardFile(shards[t]); });
    decode_s += TimedSpan(tracer, "serialize.decode_shard", 0, t, [&] {
      decoded.push_back(Must(DecodeShardFile(image), "DecodeShardFile"));
    });
    bytes += static_cast<double>(image.size());
    images.push_back(std::move(image));
  }
  Result<MergedRun> merged = Status::Internal("not merged");
  double merge_s = TimedSpan(tracer, "serialize.merge", 0, 0, [&] {
    merged = MergeShards(std::move(decoded));
  });
  MergedRun run = Must(std::move(merged), "MergeShards");
  r->attempted += run.cells.size();
  r->Check(CellsDigest(run.cells) == digest, run.cells.size(),
           "merged shard replay differs from the single-process cells");
  Layer(r, "serialize.shard_bytes", bytes, "B");
  Layer(r, "serialize.shard_encode_ms", encode_s * 1e3, "ms");
  Layer(r, "serialize.shard_decode_ms", decode_s * 1e3, "ms");
  Layer(r, "serialize.merge_ms", merge_s * 1e3, "ms");

  // Computed: after its k-th completed task the coordinator rewrites a
  // checkpoint holding all k images, so the run writes sum_k size(k).
  CheckpointFile ckpt;
  ckpt.num_tasks = tasks;
  ckpt.config = config;
  double written = 0.0;
  for (uint64_t t = 0; t < tasks; ++t) {
    ckpt.task_indices.push_back(t);
    ckpt.shard_images.push_back(images[t]);
    written += static_cast<double>(EncodeCheckpointFile(ckpt).size());
  }
  Layer(r, "checkpoint.bytes_written_computed", written, "B");
}

void DistribLayers(const ExperimentConfig& config, const GridPass& ref,
                   double wall, const distrib::CoordinatorSummary& summary,
                   uint64_t tasks, uint32_t digest, Tracer* tracer,
                   Report* r) {
  Layer(r, "distrib.single_process_wall_s", ref.wall, "s");
  Layer(r, "distrib.overhead_s", wall - ref.wall, "s");
  Layer(r, "distrib.wasted_results",
        Ratio(static_cast<double>(summary.duplicate_results +
                                  summary.speculative_issued +
                                  summary.tasks_reissued),
              static_cast<double>(summary.tasks)),
        "ratio");
  SerializeLayers(config, ref.cells, tasks, digest, tracer, r);
}

std::string CheckpointPath(const std::string& dir, int pass) {
  return dir + "/checkpoint-" + std::to_string(pass) + ".dpbs";
}

/// A fresh coordinator: an existing checkpoint would be resumed, so any
/// file left at `checkpoint` is removed first.
distrib::Coordinator CreateCoordinator(const ExperimentConfig& config,
                                       uint64_t tasks,
                                       const std::string& checkpoint) {
  std::remove(checkpoint.c_str());
  distrib::CoordinatorOptions opts;
  opts.num_tasks = tasks;
  opts.checkpoint_path = checkpoint;
  return Must(distrib::Coordinator::Create(config, opts),
              "Coordinator::Create");
}

}  // namespace

double SetupDistrib2D(const Options& o, const std::string& dir) {
  Tracer off(false);
  ExperimentConfig config = Distrib2DConfig(o.seed, o.size());
  double t0 = NowSeconds();
  BuildShapes(config, &off);
  distrib::Coordinator coord =
      CreateCoordinator(config, DistribTasks(o.size()), CheckpointPath(dir, 0));
  return NowSeconds() - t0;
}

void RunDistrib2D(const Options& o, Tracer* tracer, Report* r) {
  ExperimentConfig config = Distrib2DConfig(o.seed, o.size());
  const uint64_t tasks = DistribTasks(o.size());
  // Set-up: every shape on this thread before any worker exists, then
  // the first pass's coordinator.
  double t0 = NowSeconds();
  BuildShapes(config, tracer);
  distrib::Coordinator first =
      CreateCoordinator(config, tasks, CheckpointPath(o.tmp_dir, 0));
  double t1 = NowSeconds();
  tracer->Record("setup", t0, t1);
  r->setup_samples.push_back(t1 - t0);

  // The single-process twin (threads=2) defines the expected cells.
  GridPass ref = RunGridPass(config, tracer, "runner.run.threads2", 0);
  uint32_t expected = Expect(o, "distrib_2d", "cells", ref.digest);
  r->attempted += ref.cells.size();
  r->Check(ref.digest == expected, ref.cells.size(),
           "single-process distrib_2d cells differ from the expected digest");
  r->extra["peak_rss_after_single_process_mb"] = {PeakRssMb(), "MB"};

  std::vector<double> walls, traced, untraced;
  distrib::CoordinatorSummary summary;
  const int min_passes = o.trace ? 2 : 1;
  double start = NowSeconds();
  for (int pass = 0; pass < min_passes || NowSeconds() - start < o.seconds;
       ++pass) {
    bool record = o.trace && pass % 2 == 1;
    distrib::Coordinator coord =
        pass == 0 ? std::move(first)
                  : CreateCoordinator(config, tasks,
                                      CheckpointPath(o.tmp_dir, pass));
    tracer->set_recording(record);
    DistribPass p = RunDistribPass(std::move(coord), tracer, pass, r);
    tracer->set_recording(true);
    std::remove(CheckpointPath(o.tmp_dir, pass).c_str());
    r->attempted += p.cells;
    r->Check(p.digest == expected && p.cells == ref.cells.size(), p.cells,
             "distrib_2d merged digest " + std::to_string(p.digest) +
                 " != single-process " + std::to_string(expected));
    walls.push_back(p.wall);
    (record ? traced : untraced).push_back(p.wall);
    summary = p.summary;
  }
  double wall = MiddleMean(walls);
  r->end_to_end["wall_s"] = {wall, "s"};
  r->end_to_end["trials_per_s"] = {
      Ratio(static_cast<double>(ref.diag.trials), wall), "1/s"};
  r->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  r->AddPassDetail(walls);
  r->extra["single_process_wall_s"] = {ref.wall, "s"};
  r->extra["cells_digest"] = {static_cast<double>(ref.digest), "crc32c"};
  if (o.trace) {
    Layer(r, "trace.overhead",
          Ratio(MiddleMean(traced), MiddleMean(untraced)), "ratio");
    DistribLayers(config, ref, wall, summary, tasks, expected, tracer, r);
  }
}

void DistribSection(const Options& o, Tracer* tracer, Report* r) {
  ExperimentConfig config = Distrib2DConfig(o.seed, SuiteSize(o));
  const uint64_t tasks = DistribTasks(SuiteSize(o));
  BuildShapes(config, tracer);
  GridPass ref = RunGridPass(config, tracer, "suite.runner.run.threads2", 0);
  std::string checkpoint = o.tmp_dir + "/suite-checkpoint.dpbs";
  DistribPass p = RunDistribPass(CreateCoordinator(config, tasks, checkpoint),
                                 tracer, 0, r);
  std::remove(checkpoint.c_str());
  r->attempted += p.cells;
  r->Check(p.digest == ref.digest, p.cells,
           "suite distrib merge differs from the single-process cells");
  DistribLayers(config, ref, p.wall, p.summary, tasks, ref.digest, tracer, r);
}

}  // namespace perf
}  // namespace dpbench
