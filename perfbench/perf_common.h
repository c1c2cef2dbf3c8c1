// Shared plumbing for the repository benchmark (dpbench_perf): clocks,
// order statistics, named metrics, the in-memory span tracer, process
// memory probes, a per-thread allocation counter, and the machine stamp.
#ifndef DPBENCH_PERFBENCH_PERF_COMMON_H_
#define DPBENCH_PERFBENCH_PERF_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/runner.h"

namespace dpbench {
namespace perf {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (mean of the two middle values for even sizes); 0 for an
/// empty vector.
double Median(std::vector<double> v);

/// Mean of the middle half: sorts, drops floor(n/4) values from each end
/// and averages the rest (the mean for n < 4). The per-run statistic of
/// repeated passes: steadier than the median when pass times are
/// quantized (the coordinator's heartbeat waits), robust to one outlier.
double MiddleMean(std::vector<double> v);

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

/// Latency histogram with fixed memory (log buckets, 0.5% wide, 100 ns to
/// 100 s), so recording a request costs no allocation and the benchmark's
/// own footprint does not grow with throughput.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double seconds);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double Mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }
  /// Nearest-rank percentile, p in [0, 1], at bucket resolution; 0 when
  /// empty.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Operator-new calls made by the calling thread so far. The benchmark
/// binary replaces the global operator new with a counting one; the count
/// is thread-local so the serving and pool threads never contend on it.
uint64_t ThreadAllocations();

/// VmSize / VmHWM of this process in MiB, from /proc/self/status.
double VmSizeMb();
double PeakRssMb();

/// Named metrics in insertion-independent (sorted) order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Outcome of one benchmark invocation, printed as the final JSON line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Workload-specific metrics outside the JSON result line (qps,
  /// latency percentiles, digests, pass counts); printed on stderr with
  /// their units.
  Metrics extra;
  /// Cold set-up durations: forked children's and this process's own.
  std::vector<double> setup_samples;

  void Check(bool ok, uint64_t ops, const std::string& what);
  /// Pass count and the fastest and slowest pass, for the stderr detail.
  void AddPassDetail(const std::vector<double>& walls);
};

/// One traced interval. `parent` is the id of the enclosing span (0 for a
/// root); `task` is the task, cell or request id the span belongs to.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t task = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call. Thread-safe: serve clients record concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Pauses or resumes recording (traced and untraced passes alternate
  /// within one traced run to measure the tracing overhead).
  void set_recording(bool on) { recording_.store(on); }
  bool recording() const { return enabled_ && recording_.load(); }

  /// Records a finished span and returns its id (0 when not recording).
  uint64_t Record(const std::string& name, double start, double end,
                  uint64_t parent = 0, uint64_t task = 0);
  /// Reserves an id for a span whose children are recorded before it ends.
  uint64_t NextId();
  void RecordWithId(uint64_t id, const std::string& name, double start,
                    double end, uint64_t parent = 0, uint64_t task = 0);

  /// Per-name totals: count, summed duration and summed self time (a
  /// span's duration minus the union of its children's intervals).
  struct Totals {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> Aggregate() const;

  size_t size() const;
  /// Writes every span as JSON lines (one object per line).
  bool WriteJsonl(const std::string& path,
                  const std::string& header_json) const;

 private:
  const bool enabled_;
  std::atomic<bool> recording_{true};
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;       // guarded by mu_
  std::vector<Span> spans_;    // guarded by mu_
};

/// Times `fn` as a span named `name` (when recording) and returns seconds.
template <typename Fn>
double TimedSpan(Tracer* tracer, const std::string& name, uint64_t parent,
                 uint64_t task, Fn&& fn) {
  double t0 = NowSeconds();
  fn();
  double t1 = NowSeconds();
  if (tracer != nullptr) tracer->Record(name, t0, t1, parent, task);
  return t1 - t0;
}

/// CRC32C over a grid's cells in result order: each cell's key, grid
/// index and raw error bit patterns. Bit-identical output gives an
/// identical digest on any thread count, ISA tier or NUMA placement.
uint32_t CellsDigest(const std::vector<CellResult>& cells);

/// Machine and build stamp as a JSON object (git SHA and source digest
/// come from the environment set by run.py).
std::string StampJson();

/// Metric names may not contain '*' (MWEM*, AHP*): spelled "_star".
std::string MetricSafe(const std::string& name);

/// Runs `fn` `reps` times and returns the median seconds per call.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    double t0 = NowSeconds();
    fn();
    t.push_back(NowSeconds() - t0);
  }
  return Median(t);
}

}  // namespace perf
}  // namespace dpbench

#endif  // DPBENCH_PERFBENCH_PERF_COMMON_H_
