// The benchmark's three workloads and its layer suite.
//
//   grid_1d        Runner::Run, threads=4, the data-independent 1D family
//                  over the full 1D dataset x scale x epsilon grid.
//   distrib_2d     the 2D random-range grid through an in-process
//                  distrib::Coordinator (16 tasks, checkpointing) and two
//                  distrib::RunWorker threads.
//   serve_journal  an in-process serve::Server with ledger + journal,
//                  driven by two persistent closed-loop clients and one
//                  connection-per-request churn client.
//
// Each workload has a cold set-up (Setup*, run in forked children so every
// set-up sample is cold) and a timed phase (Run*). Traced runs add
// per-layer metrics: the workload's own sections, then RunLayerSuite for
// every layer the workload does not reach itself.
//
// Every set-up builds all shapes on the calling thread before any pool,
// worker or connection thread starts: DatasetRegistry's shape cache is an
// unsynchronized static map.
#ifndef DPBENCH_PERFBENCH_WORKLOADS_H_
#define DPBENCH_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/perf_common.h"
#include "src/common/status.h"
#include "src/engine/runner.h"
#include "src/engine/serve.h"

namespace dpbench {
namespace perf {

/// Grid sizes: the workload as specified, the reduced form the layer
/// suite replays inside another workload's traced run, and the tiny form
/// of the self-test.
enum class Size { kFull, kReduced, kTiny };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  /// Self-test hook: perturb every expected digest, which must surface as
  /// failed ops and correct=false.
  bool bad_digest = false;
  std::string tmp_dir;  ///< private scratch directory (inside the checkout)
  std::map<std::string, uint32_t> golden;  ///< "<key> <seed> <name>" -> crc
  Size size() const { return tiny ? Size::kTiny : Size::kFull; }
  /// Golden digest lookup; false when the table has no entry.
  bool Golden(const std::string& key, const std::string& name,
              uint32_t* out) const;
};

/// Aborts the benchmark (exit 3, no result line) on an error the workload
/// is built never to produce.
template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(r).value();
}
void MustOk(const Status& s, const char* what);

ExperimentConfig Grid1DConfig(uint64_t seed, Size size);
ExperimentConfig Distrib2DConfig(uint64_t seed, Size size);

/// One cold set-up of each workload, torn down again; returns seconds.
/// `dir` is a private scratch directory for files the set-up creates.
double SetupGrid1D(const Options& o);
double SetupDistrib2D(const Options& o, const std::string& dir);
double SetupServe(const Options& o, const std::string& dir);

/// The timed phases. Each pushes its own cold set-up time onto
/// r->setup_samples, fills r->end_to_end, and in traced runs adds the
/// per-layer metrics of the layers it drives.
void RunGrid1D(const Options& o, Tracer* tracer, Report* r);
void RunDistrib2D(const Options& o, Tracer* tracer, Report* r);
void RunServeJournal(const Options& o, Tracer* tracer, Report* r);

/// Reduced replays of each workload for the layer suite: the same
/// per-layer metrics a workload's own traced run produces, measured on a
/// smaller grid or a shorter session.
void GridSection(const Options& o, Tracer* tracer, Report* r);
void DistribSection(const Options& o, Tracer* tracer, Report* r);
void ServeSection(const Options& o, Tracer* tracer, Report* r);

/// One client alone on a fresh server: the request latency without
/// contention from the second client, to split the served latency into
/// contention and per-request work.
void SingleClientSection(const Options& o, Tracer* tracer, Report* r);

/// The serve_journal request classes: q1d is IDENTITY on ADULT (domain
/// 1024, 8 ranges), q2d is HB on GOWALLA (64x64, 16 rectangles); ranges
/// come from the seed. Every request spends kServeEpsilon.
inline constexpr double kServeEpsilon = 0.01;
serve::QueryRequest ServeQuery1D(const std::string& user, uint64_t seed);
serve::QueryRequest ServeQuery2D(const std::string& user, uint64_t seed);

/// Every per-layer metric the workload's own run did not produce.
void RunLayerSuite(const Options& o, Tracer* tracer, Report* r);

}  // namespace perf
}  // namespace dpbench

#endif  // DPBENCH_PERFBENCH_WORKLOADS_H_
