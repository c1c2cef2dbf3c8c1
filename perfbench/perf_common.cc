#include "perfbench/perf_common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include "src/common/crc32c.h"
#include "src/common/lockstep.h"
#include "src/common/topology.h"

// ---------------------------------------------------------------------------
// Counting allocator: every operator new bumps a thread-local counter, so a
// single-threaded replay can assert its execute path allocates nothing.
// ---------------------------------------------------------------------------
namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dpbench {
namespace perf {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double MiddleMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t drop = v.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

namespace {
constexpr double kHistMin = 1e-7;
const double kHistLogStep = std::log(1.005);
const size_t kHistBuckets =
    static_cast<size_t>(std::log(1e2 / kHistMin) / kHistLogStep) + 2;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::Add(double seconds) {
  double x = std::max(seconds, kHistMin);
  size_t b = static_cast<size_t>(std::log(x / kHistMin) / kHistLogStep);
  ++buckets_[std::min(b, buckets_.size() - 1)];
  ++count_;
  sum_ += seconds;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * count_));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Geometric middle of the bucket.
      return kHistMin * std::exp((static_cast<double>(i) + 0.5) * kHistLogStep);
    }
  }
  return kHistMin *
         std::exp(static_cast<double>(buckets_.size()) * kHistLogStep);
}

uint64_t ThreadAllocations() { return t_allocations; }

namespace {
double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}
}  // namespace

double VmSizeMb() { return StatusFieldMb("VmSize:"); }
double PeakRssMb() { return StatusFieldMb("VmHWM:"); }

void Report::Check(bool ok, uint64_t ops, const std::string& what) {
  if (ok) return;
  correct = false;
  failed += ops;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::AddPassDetail(const std::vector<double>& walls) {
  extra["passes"] = {static_cast<double>(walls.size()), "count"};
  extra["wall_min_s"] = {Percentile(walls, 0.0), "s"};
  extra["wall_max_s"] = {Percentile(walls, 1.0), "s"};
}

uint64_t Tracer::NextId() {
  if (!recording()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Record(const std::string& name, double start, double end,
                        uint64_t parent, uint64_t task) {
  if (!recording()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  spans_.push_back(Span{id, parent, task, name, start, end});
  return id;
}

void Tracer::RecordWithId(uint64_t id, const std::string& name, double start,
                          double end, uint64_t parent, uint64_t task) {
  if (id == 0 || !recording()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, task, name, start, end});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals clipped to the parent (children
      // on concurrent threads may overlap each other).
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : it->second) {
        double a = std::max(c->start, s.start), b = std::min(c->end, s.end);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      double cur_a = 0.0, cur_b = -1.0;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += s.end - s.start;
    t.self_s += (s.end - s.start) - covered;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path,
                        const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header_json << "\n";
  std::lock_guard<std::mutex> lock(mu_);
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"task\":%llu,\"name\":\"%s\","
                  "\"start\":%.9f,\"end\":%.9f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.task), s.name.c_str(),
                  s.start, s.end);
    out << buf;
  }
  return static_cast<bool>(out);
}

uint32_t CellsDigest(const std::vector<CellResult>& cells) {
  uint32_t crc = 0;
  for (const CellResult& c : cells) {
    std::string key = c.key.ToString();
    crc = Crc32c(key, crc);
    uint64_t index = c.grid_index;
    crc = Crc32c(&index, sizeof(index), crc);
    crc = Crc32c(c.errors.data(), c.errors.size() * sizeof(double), crc);
  }
  return crc;
}

namespace {
std::string ReadTrimmed(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}
}  // namespace

std::string StampJson() {
  std::string llc =
      ReadTrimmed("/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (llc.empty()) llc = "unknown";
  std::ostringstream os;
  os << "{\"git_sha\":\"" << EnvOr("PERFBENCH_GIT_SHA", "unknown")
     << "\",\"source_digest\":\"" << EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown")
     << "\",\"isa_tier\":\"" << lockstep::TierName(lockstep::ActiveTier())
     << "\",\"lane_width\":" << lockstep::ActiveLaneWidth()
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"numa_nodes\":" << topology::Detect().num_nodes()
     << ",\"llc\":\"" << llc << "\",\"compiler\":\"" << __VERSION__
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

std::string MetricSafe(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == '*') {
      out += "_star";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perf
}  // namespace dpbench
