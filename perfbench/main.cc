// dpbench_perf: the repository benchmark binary (run through run.py).
//
//   dpbench_perf --workload grid_1d|distrib_2d|serve_journal --seed N
//                --seconds S --trace 0|1 [--tiny] [--bad-digest]
//                [--tmp DIR] [--golden FILE] [--trace-out FILE]
//                [--setup-samples K]
//
// Prints the metrics by name and unit on stderr, and as its last stdout
// line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace dpbench {
namespace perf {
namespace {

struct Args {
  Options options;
  std::string golden_path;
  std::string trace_out;
  int setup_samples = -1;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "dpbench_perf: %s\nusage: dpbench_perf --workload "
               "grid_1d|distrib_2d|serve_journal --seed N --seconds S "
               "--trace 0|1 [--tiny] [--bad-digest] [--tmp DIR] "
               "[--golden FILE] [--trace-out FILE] [--setup-samples K]\n",
               why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  Options& o = a.options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("bad --seed " + v);
      have_seed = true;
    } else if (flag == "--seconds") {
      std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        Usage("bad --seconds " + v);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      o.trace = v == "1";
      have_trace = true;
    } else if (flag == "--tiny") {
      o.tiny = true;
    } else if (flag == "--bad-digest") {
      o.bad_digest = true;
    } else if (flag == "--tmp") {
      o.tmp_dir = value();
    } else if (flag == "--golden") {
      a.golden_path = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--setup-samples") {
      a.setup_samples = std::atoi(value().c_str());
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.workload != "grid_1d" && o.workload != "distrib_2d" &&
      o.workload != "serve_journal") {
    Usage("unknown --workload '" + o.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  if (o.tmp_dir.empty()) {
    o.tmp_dir = ".bench_results/tmp-" + std::to_string(getpid());
  }
  if (a.setup_samples < 0) a.setup_samples = o.tiny ? 1 : 10;
  return a;
}

/// Golden digest table: lines "<key> <seed> <name> <crc32c>"; '#' starts a
/// comment. A missing file is an empty table.
void LoadGolden(const std::string& path, Options* o) {
  if (path.empty()) return;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, seed, name;
    unsigned long long crc = 0;
    if (ls >> key >> seed >> name >> crc) {
      o->golden[key + " " + seed + " " + name] = static_cast<uint32_t>(crc);
    }
  }
}

double SetupOnce(const Options& o, const std::string& dir) {
  if (o.workload == "grid_1d") return SetupGrid1D(o);
  if (o.workload == "distrib_2d") return SetupDistrib2D(o, dir);
  return SetupServe(o, dir);
}

/// Cold set-up samples from forked children: DatasetRegistry caches shapes
/// for the life of a process, so only a fresh process sets up cold. Runs
/// before this process starts any thread.
std::vector<double> ForkedSetups(const Options& o, int samples) {
  std::vector<double> out;
  for (int i = 0; i < samples; ++i) {
    std::string dir = o.tmp_dir + "/setup-" + std::to_string(i);
    std::filesystem::create_directories(dir);
    int fds[2];
    if (pipe(fds) != 0) MustOk(Status::Internal("pipe"), "setup");
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0) MustOk(Status::Internal("fork"), "setup");
    if (pid == 0) {
      close(fds[0]);
      double s = SetupOnce(o, dir);
      ssize_t n = write(fds[1], &s, sizeof(s));
      _exit(n == static_cast<ssize_t>(sizeof(s)) ? 0 : 1);
    }
    close(fds[1]);
    double s = 0.0;
    ssize_t n = read(fds[0], &s, sizeof(s));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (n != static_cast<ssize_t>(sizeof(s)) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      MustOk(Status::Internal("set-up child failed"), "setup");
    }
    out.push_back(s);
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const Report& r, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void PrintMetrics(const char* section, const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    // Digests print whole so run.py --record-golden can read them back.
    std::fprintf(stderr,
                 m.unit == "crc32c" ? "  %-8s %-48s %16.10g %s\n"
                                    : "  %-8s %-48s %16.6g %s\n",
                 section, name.c_str(), m.value, m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  Options& o = args.options;
  LoadGolden(args.golden_path, &o);
  std::filesystem::create_directories(o.tmp_dir);

  Report report;
  report.setup_samples = ForkedSetups(o, args.setup_samples);
  Tracer tracer(o.trace);
  if (o.workload == "grid_1d") {
    RunGrid1D(o, &tracer, &report);
  } else if (o.workload == "distrib_2d") {
    RunDistrib2D(o, &tracer, &report);
  } else {
    RunServeJournal(o, &tracer, &report);
  }
  report.end_to_end["setup_s"] = {Median(report.setup_samples), "s"};
  report.extra["setup_min_s"] = {Percentile(report.setup_samples, 0.0), "s"};
  report.extra["setup_max_s"] = {Percentile(report.setup_samples, 1.0), "s"};
  if (o.trace) {
    RunLayerSuite(o, &tracer, &report);
    if (!args.trace_out.empty()) {
      std::string header = "{\"workload\":\"" + o.workload + "\",\"seed\":" +
                           std::to_string(o.seed) +
                           ",\"stamp\":" + StampJson() + "}";
      if (!tracer.WriteJsonl(args.trace_out, header)) {
        std::fprintf(stderr, "warning: could not write %s\n",
                     args.trace_out.c_str());
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(o.tmp_dir, ec);

  std::fprintf(stderr, "workload=%s seed=%llu seconds=%g trace=%d stamp=%s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0, StampJson().c_str());
  std::fprintf(stderr, "  %-8s %-48s %16llu count\n", "ops", "ops_attempted",
               static_cast<unsigned long long>(report.attempted));
  std::fprintf(stderr, "  %-8s %-48s %16llu count\n", "ops", "ops_failed",
               static_cast<unsigned long long>(report.failed));
  PrintMetrics("e2e", report.end_to_end);
  PrintMetrics("detail", report.extra);
  PrintMetrics("layer", report.per_layer);
  if (o.trace) {
    // Where the traced time went, per span name: total and self time.
    for (const auto& [name, t] : tracer.Aggregate()) {
      std::fprintf(stderr,
                   "  %-8s %-40s %8llu spans %12.6f s total %12.6f s self\n",
                   "span", name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_s,
                   t.self_s);
    }
  }
  std::printf("%s\n",
              ResultJson(report, o.trace ? report.per_layer
                                         : report.end_to_end)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace dpbench

int main(int argc, char** argv) { return dpbench::perf::Main(argc, argv); }
