// serve_journal: an in-process serve::Server with its ledger and charge
// journal on, driven as a closed loop by two persistent clients (one user
// each, alternating the q1d and q2d request classes) plus one churn client
// that opens a new connection per request, as dpbench_client does.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/data/datasets.h"
#include "src/engine/net.h"
#include "src/engine/serialize.h"
#include "src/engine/serve.h"

namespace dpbench {
namespace perf {
namespace {

constexpr double kEpsilon = kServeEpsilon;
constexpr double kBudget = 1e9;  // never refuses within a run
constexpr int kRecvTimeoutMs = 30000;

/// Request-count plan of one session.
struct SessionPlan {
  size_t requests_per_pass = 0;  ///< per persistent client
  size_t churn_requests = 0;     ///< fixed per run: threads join at Stop()
  size_t digest_requests = 0;    ///< leading answers folded into digests
  double seconds = 0.0;
  int min_passes = 1;
};

SessionPlan PlanFor(Size size, double seconds, bool trace) {
  SessionPlan p;
  switch (size) {
    case Size::kFull:
      p = {6000, 30, 256, seconds, 1};
      break;
    case Size::kReduced:  // one full-size pass
      p = {6000, 30, 256, 0.0, 1};
      break;
    case Size::kTiny:
      p = {100, 4, 16, 0.0, 1};
      break;
  }
  if (trace) p.min_passes = std::max(p.min_passes, 2);
  return p;
}

}  // namespace

serve::QueryRequest ServeQuery1D(const std::string& user, uint64_t seed) {
  serve::QueryRequest q;
  q.user = user;
  q.dataset = "ADULT";
  q.algorithm = "IDENTITY";
  q.epsilon = kEpsilon;
  q.scale = 100000;
  q.domain_size = 1024;
  Rng rng(SeedMixer(seed).Mix(std::string("q1d")).seed());
  for (int i = 0; i < 8; ++i) {
    uint64_t a = rng.UniformInt(1024), b = rng.UniformInt(1024);
    q.lo_row.push_back(std::min(a, b));
    q.hi_row.push_back(std::max(a, b));
  }
  return q;
}

serve::QueryRequest ServeQuery2D(const std::string& user, uint64_t seed) {
  serve::QueryRequest q;
  q.user = user;
  q.dataset = "GOWALLA";
  q.algorithm = "HB";
  q.epsilon = kEpsilon;
  q.scale = 100000;
  q.domain_size = 64;
  Rng rng(SeedMixer(seed).Mix(std::string("q2d")).seed());
  for (int i = 0; i < 16; ++i) {
    uint64_t r0 = rng.UniformInt(64), r1 = rng.UniformInt(64);
    uint64_t c0 = rng.UniformInt(64), c1 = rng.UniformInt(64);
    q.lo_row.push_back(std::min(r0, r1));
    q.hi_row.push_back(std::max(r0, r1));
    q.lo_col.push_back(std::min(c0, c1));
    q.hi_col.push_back(std::max(c0, c1));
  }
  return q;
}

namespace {

/// One persistent client: a user with its own two ledgers (ADULT for
/// q1d, GOWALLA for q2d), alternating the classes request by request.
struct Client {
  std::string user;
  net::Socket sock;
  std::string encoded[2];
  double eps_sum[2] = {0.0, 0.0};     ///< epsilon summed in request order
  double last_spent[2] = {0.0, 0.0};  ///< ledger spent from the last reply
  uint32_t digest = 0;                ///< CRC32C of the leading answers
  uint64_t digested = 0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  LatencyHistogram latencies;  ///< timed requests only
};

Client MakeClient(const std::string& user, uint64_t seed) {
  Client c;
  c.user = user;
  c.encoded[0] = serve::EncodeQuery(ServeQuery1D(user, seed));
  c.encoded[1] = serve::EncodeQuery(ServeQuery2D(user, seed));
  return c;
}

/// Sends one request on `sock` and decodes the reply; false on any
/// transport failure or non-kOk status.
bool Exchange(net::Socket* sock, const std::string& encoded,
              serve::QueryResponse* reply) {
  if (!sock->SendFrame(encoded).ok()) return false;
  auto frame = sock->RecvFrame(kRecvTimeoutMs);
  if (!frame.ok() || frame->timed_out) return false;
  auto decoded = serve::DecodeReply(frame->bytes);
  if (!decoded.ok() || decoded->status != serve::ReplyStatus::kOk) {
    return false;
  }
  *reply = std::move(decoded).value();
  return true;
}

void ClientRequest(Client* c, size_t digest_requests, bool timed,
                   Tracer* tracer, uint64_t parent) {
  const int cls = static_cast<int>(c->sent % 2);
  const uint64_t id = c->sent++;
  serve::QueryResponse reply;
  double t0 = NowSeconds();
  bool ok = Exchange(&c->sock, c->encoded[cls], &reply);
  double t1 = NowSeconds();
  if (!ok) {
    ++c->failed;
    return;
  }
  ++c->ok;
  c->eps_sum[cls] += kEpsilon;
  c->last_spent[cls] = reply.spent;
  if (c->digested < digest_requests) {
    c->digest = Crc32c(reply.answers.data(),
                       reply.answers.size() * sizeof(double), c->digest);
    ++c->digested;
  }
  if (timed) c->latencies.Add(t1 - t0);
  if (tracer->recording()) {
    tracer->Record(cls == 0 ? "serve.request.q1d" : "serve.request.q2d", t0,
                   t1, parent, id);
  }
}

/// The churn client: connect, one q1d request, close.
struct Churn {
  std::string encoded;
  double eps_sum = 0.0;
  double last_spent = 0.0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  LatencyHistogram latencies;  ///< connect to reply
};

void ChurnRequest(uint16_t port, Churn* churn, bool timed) {
  double t0 = NowSeconds();
  auto sock = net::Connect(port, 5000);
  serve::QueryResponse reply;
  bool ok = sock.ok() && Exchange(&*sock, churn->encoded, &reply);
  double t1 = NowSeconds();
  if (!ok) {
    ++churn->failed;
    return;
  }
  ++churn->ok;
  churn->eps_sum += kEpsilon;
  churn->last_spent = reply.spent;
  if (timed) churn->latencies.Add(t1 - t0);
}

/// A running server plus its connected, warmed clients. Stops and joins
/// the serving thread on destruction.
struct Rig {
  std::string ledger_path;
  std::string journal_path;
  std::unique_ptr<serve::Server> server;
  std::thread serving;
  std::vector<Client> clients;
  Churn churn;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { Stop(); }

  void Stop() {
    if (serving.joinable()) {
      server->Stop();
      serving.join();
    }
  }
};

/// Set-up: shapes on this thread before any connection thread exists (the
/// race guard), server Create, client connects and plan-cache warm-up.
std::unique_ptr<Rig> StartRig(const Options& o, const std::string& dir,
                              size_t digest_requests, Tracer* tracer) {
  auto rig = std::make_unique<Rig>();
  TimedSpan(tracer, "data.shape_build", 0, 0, [] {
    Must(DatasetRegistry::ShapeAtDomain("ADULT", 1024), "ShapeAtDomain");
  });
  TimedSpan(tracer, "data.shape_build", 0, 0, [] {
    Must(DatasetRegistry::ShapeAtDomain("GOWALLA", 64), "ShapeAtDomain");
  });
  serve::ServerOptions so;
  rig->ledger_path = so.ledger_path = dir + "/ledger.dpbs";
  rig->journal_path = so.journal_path = dir + "/journal.dpbj";
  so.default_budget = kBudget;
  so.seed = o.seed;
  std::remove(so.ledger_path.c_str());
  std::remove(so.journal_path.c_str());
  rig->server = std::make_unique<serve::Server>(
      Must(serve::Server::Create(so), "Server::Create"));
  serve::Server* server = rig->server.get();
  rig->serving = std::thread([server] { (void)server->Serve(); });
  const uint16_t port = server->port();
  for (int u = 0; u < 2; ++u) {
    Client c = MakeClient("user" + std::to_string(u), o.seed);
    c.sock = Must(net::Connect(port, 5000), "connect");
    rig->clients.push_back(std::move(c));
  }
  for (Client& c : rig->clients) {
    ClientRequest(&c, digest_requests, false, tracer, 0);
    ClientRequest(&c, digest_requests, false, tracer, 0);
  }
  rig->churn.encoded = serve::EncodeQuery(ServeQuery1D("churn", o.seed));
  ChurnRequest(port, &rig->churn, false);
  return rig;
}

void Layer(Report* r, const std::string& name, double value,
           const char* unit) {
  r->per_layer[name] = Metric{value, unit};
}

std::string MakeDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    MustOk(Status::Internal("cannot create " + dir), "mkdir");
  }
  return dir;
}

/// Checks after a session: every reply kOk, each ledger's spent equal to
/// its summed epsilon bit for bit (in the replies and in the journal),
/// one journal append per admission, and per-user answer digests that a
/// fresh server replays exactly.
void CheckSession(const Options& o, const std::string& dir, Rig* rig,
                  size_t digest_requests, uint64_t ops,
                  const std::string& golden_key, Report* r) {
  serve::ServeStats stats = rig->server->stats();
  rig->Stop();
  uint64_t failed = rig->churn.failed;
  for (const Client& c : rig->clients) failed += c.failed;
  r->Check(failed == 0, failed,
           std::to_string(failed) + " serve requests were not answered kOk");
  r->Check(stats.journal_appends == stats.admitted, 0,
           "journal_appends " + std::to_string(stats.journal_appends) +
               " != admitted " + std::to_string(stats.admitted));

  // Expected spent per ledger, from the client-side sums.
  std::map<std::pair<std::string, std::string>, double> want;
  for (const Client& c : rig->clients) {
    want[{c.user, "ADULT"}] = c.eps_sum[0];
    want[{c.user, "GOWALLA"}] = c.eps_sum[1];
    r->Check(c.last_spent[0] == c.eps_sum[0] &&
                 c.last_spent[1] == c.eps_sum[1],
             0, c.user + ": reply spent differs from the summed epsilon");
  }
  want[{"churn", "ADULT"}] = rig->churn.eps_sum;
  r->Check(rig->churn.last_spent == rig->churn.eps_sum, 0,
           "churn: reply spent differs from the summed epsilon");
  auto bytes = ReadFileBytes(rig->journal_path);
  auto journal = bytes.ok() ? DecodeJournal(*bytes)
                            : Result<Journal>(bytes.status());
  r->Check(journal.ok(), 0, "charge journal unreadable");
  if (journal.ok()) {
    std::map<std::pair<std::string, std::string>, double> got;
    for (const JournalRecord& rec : journal->records) {
      if (rec.outcome == JournalOutcome::kGrant) {
        got[{rec.user, rec.dataset}] = rec.spent_after;
      }
    }
    r->Check(got == want && journal->records.size() == stats.admitted, 0,
             "journal ledgers differ from the summed epsilons");
  }

  // Replay the leading requests of each user against a fresh server with
  // the same seed: answers must repeat bit for bit.
  Tracer off(false);
  auto replay = StartRig(o, MakeDir(dir + "/replay"), digest_requests, &off);
  for (size_t u = 0; u < rig->clients.size(); ++u) {
    Client& again = replay->clients[u];
    while (again.sent < rig->clients[u].digested) {
      ClientRequest(&again, digest_requests, false, &off, 0);
    }
    const Client& orig = rig->clients[u];
    // Expected: the golden digest for this seed when the table has one,
    // else this run's own; bad_digest flips a bit so the check must fail.
    uint32_t want_crc = orig.digest;
    if (!golden_key.empty()) o.Golden(golden_key, orig.user, &want_crc);
    if (o.bad_digest) want_crc ^= 1u;
    r->Check(again.digest == want_crc && orig.digest == want_crc &&
                 again.failed == 0,
             ops / rig->clients.size(),
             orig.user + " answer digest " + std::to_string(orig.digest) +
                 " does not repeat (replay " + std::to_string(again.digest) +
                 ", expected " + std::to_string(want_crc) + ")");
  }
}

/// Session results the callers turn into metrics.
struct Session {
  std::vector<double> walls, traced, untraced;
  LatencyHistogram latencies, churn_latencies;
  double vmsize_growth_mb = 0.0;
  serve::ServeStats stats;
  uint64_t requests_per_pass = 0;
};

/// The timed phase: passes of `requests_per_pass` requests on each
/// persistent client (run concurrently), while the churn thread spreads its
/// fixed request count evenly over the planned duration.
Session RunSession(const Options& o, const SessionPlan& plan, Rig* rig,
                   Tracer* tracer, Report* r) {
  Session s;
  s.requests_per_pass = plan.requests_per_pass * rig->clients.size();
  const uint16_t port = rig->server->port();
  const double vm_before = VmSizeMb();
  const double start = NowSeconds();
  const double interval =
      plan.churn_requests > 0 ? plan.seconds / plan.churn_requests : 0.0;
  std::thread churn([rig, port, start, interval, &plan] {
    for (size_t i = 0; i < plan.churn_requests; ++i) {
      double due = start + interval * static_cast<double>(i);
      double now = NowSeconds();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      ChurnRequest(port, &rig->churn, true);
    }
  });
  for (int pass = 0;
       pass < plan.min_passes || NowSeconds() - start < plan.seconds;
       ++pass) {
    bool record = o.trace && pass % 2 == 1;
    tracer->set_recording(record);
    uint64_t pass_span = tracer->NextId();
    double t0 = NowSeconds();
    std::vector<std::thread> threads;
    for (Client& c : rig->clients) {
      threads.emplace_back([&c, &plan, tracer, pass_span] {
        for (size_t i = 0; i < plan.requests_per_pass; ++i) {
          ClientRequest(&c, plan.digest_requests, true, tracer, pass_span);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    double t1 = NowSeconds();
    tracer->RecordWithId(pass_span, "serve.pass", t0, t1, 0, pass);
    tracer->set_recording(true);
    s.walls.push_back(t1 - t0);
    (record ? s.traced : s.untraced).push_back(t1 - t0);
  }
  churn.join();
  s.vmsize_growth_mb = VmSizeMb() - vm_before;
  s.stats = rig->server->stats();
  for (const Client& c : rig->clients) {
    s.latencies.Merge(c.latencies);
  }
  s.churn_latencies = rig->churn.latencies;
  r->attempted += s.latencies.count() + s.churn_latencies.count();
  for (const Client& c : rig->clients) r->attempted += c.failed;
  r->attempted += rig->churn.failed;
  return s;
}

void SessionLayers(const Session& s, Report* r) {
  double wall = MiddleMean(s.walls);
  Layer(r, "serve.qps",
        wall > 0.0 ? static_cast<double>(s.requests_per_pass) / wall : 0.0,
        "1/s");
  Layer(r, "serve.latency_p50_ms", s.latencies.Percentile(0.50) * 1e3, "ms");
  Layer(r, "serve.latency_p99_ms", s.latencies.Percentile(0.99) * 1e3, "ms");
  Layer(r, "serve.latency_mean_ms", s.latencies.Mean() * 1e3, "ms");
  Layer(r, "serve.churn_latency_p50_ms",
        s.churn_latencies.Percentile(0.50) * 1e3, "ms");
  Layer(r, "serve.vmsize_growth_mb", s.vmsize_growth_mb, "MB");
  const double lookups = static_cast<double>(s.stats.plan_cache_hits +
                                             s.stats.plan_cache_misses);
  Layer(r, "serve.plan_hit_ratio",
        lookups > 0.0 ? static_cast<double>(s.stats.plan_cache_hits) / lookups
                      : 0.0,
        "ratio");
  Layer(r, "serve.journal_appends_per_request",
        s.stats.requests > 0 ? static_cast<double>(s.stats.journal_appends) /
                                   static_cast<double>(s.stats.requests)
                             : 0.0,
        "ratio");
}

}  // namespace

double SetupServe(const Options& o, const std::string& dir) {
  Tracer off(false);
  double t0 = NowSeconds();
  auto rig = StartRig(o, MakeDir(dir + "/serve"), 0, &off);
  double t1 = NowSeconds();
  return t1 - t0;
}

void RunServeJournal(const Options& o, Tracer* tracer, Report* r) {
  SessionPlan plan = PlanFor(o.size(), o.seconds, o.trace);
  std::string dir = MakeDir(o.tmp_dir + "/serve");
  double t0 = NowSeconds();
  auto rig = StartRig(o, dir, plan.digest_requests, tracer);
  double t1 = NowSeconds();
  tracer->Record("setup", t0, t1);
  r->setup_samples.push_back(t1 - t0);

  Session s = RunSession(o, plan, rig.get(), tracer, r);
  // Before the checks, which read the whole journal into memory.
  r->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  CheckSession(o, dir, rig.get(), plan.digest_requests,
               s.latencies.count(), o.tiny ? "serve_journal-tiny"
                                          : "serve_journal", r);
  double wall = MiddleMean(s.walls);
  double qps = wall > 0.0 ? static_cast<double>(s.requests_per_pass) / wall
                          : 0.0;
  // One single-trial execution per request.
  r->end_to_end["wall_s"] = {wall, "s"};
  r->end_to_end["trials_per_s"] = {qps, "1/s"};
  r->AddPassDetail(s.walls);
  r->extra["qps"] = {qps, "1/s"};
  r->extra["latency_p50_ms"] = {s.latencies.Percentile(0.50) * 1e3, "ms"};
  r->extra["latency_p99_ms"] = {s.latencies.Percentile(0.99) * 1e3, "ms"};
  r->extra["latency_samples"] = {static_cast<double>(s.latencies.count()),
                                 "count"};
  r->extra["churn_latency_p50_ms"] = {
      s.churn_latencies.Percentile(0.50) * 1e3, "ms"};
  r->extra["churn_requests"] = {static_cast<double>(s.churn_latencies.count()),
                                "count"};
  r->extra["vmsize_growth_mb"] = {s.vmsize_growth_mb, "MB"};
  for (const Client& c : rig->clients) {
    r->extra["answer_digest." + c.user] = {static_cast<double>(c.digest),
                                           "crc32c"};
  }
  if (o.trace) {
    Layer(r, "trace.overhead",
          MiddleMean(s.traced) / std::max(MiddleMean(s.untraced), 1e-12),
          "ratio");
    SessionLayers(s, r);
  }
}

void SingleClientSection(const Options& o, Tracer* tracer, Report* r) {
  const size_t requests = o.tiny ? 100 : 2000;
  Tracer off(false);
  auto rig = StartRig(o, MakeDir(o.tmp_dir + "/serve-single"), 0, &off);
  Client& c = rig->clients[0];
  uint64_t span = tracer->NextId();
  double t0 = NowSeconds();
  for (size_t i = 0; i < requests; ++i) {
    ClientRequest(&c, 0, true, tracer, span);
  }
  tracer->RecordWithId(span, "serve.single_client", t0, NowSeconds());
  r->attempted += requests;
  r->Check(c.failed == 0, c.failed, "single-client serve requests failed");
  Layer(r, "serve.single_client_latency_mean_ms", c.latencies.Mean() * 1e3,
        "ms");
}

void ServeSection(const Options& o, Tracer* tracer, Report* r) {
  SessionPlan plan =
      PlanFor(o.tiny ? Size::kTiny : Size::kReduced, 0.0, false);
  std::string dir = MakeDir(o.tmp_dir + "/serve-suite");
  auto rig = StartRig(o, dir, plan.digest_requests, tracer);
  Session s = RunSession(o, plan, rig.get(), tracer, r);
  CheckSession(o, dir, rig.get(), plan.digest_requests, s.latencies.count(),
               "", r);
  SessionLayers(s, r);
}

}  // namespace perf
}  // namespace dpbench
