// serve_point and serve_mixed: the daemon over a ~200k-triple BSBM image,
// driven over its wire protocol from this process.
//
// serve_point is a closed loop of anchored cheap queries on about nproc/2
// connections with server defaults (plan cache on, parallelism 1): fixed
// per-request costs dominate. One connection would mostly measure thread
// wake-up latency, so it uses two on four cores.
//
// serve_mixed adds contention: the same cheap queries arrive open-loop at a
// fixed rate on the cheap connections while one closed-loop connection
// drains unanchored heavy queries at a fan-out that keeps busy threads
// within nproc. Cheap requests are timed from their scheduled send time, so
// a stall also charges the requests queued behind it.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "io/ntriples_writer.h"
#include "store/mmap_store.h"
#include "summary/summarizer.h"
#include "workloads.h"

namespace perf {

using rdfsum::Status;
using rdfsum::server::Client;
using rdfsum::server::QueryRequest;
using rdfsum::server::Server;
using rdfsum::server::ServerOptions;

namespace {

constexpr uint64_t kServeTriples = 200'000;
/// serve_mixed's cheap lane, requests per second over all its connections.
/// A constant well under serve_point's capacity (thousands per second on
/// four cores), never derived at run time.
constexpr double kCheapRate = 500.0;
/// Cheap requests replayed through the in-process layers when traced.
constexpr size_t kReplayRequests = 2000;
/// A run is rounds of one load interval of this length and one probe
/// step.
constexpr double kIntervalSeconds = 1.25;
/// Slices of a traced window, alternately untraced and traced.
constexpr size_t kTraceSlices = 8;
/// Summarizes per probe step; one takes about 10 ms.
constexpr size_t kSummarizeSamples = 8;

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

std::unique_ptr<Client> Connect(const Server& server, std::string* why) {
  auto c = Client::Connect("127.0.0.1", server.port());
  if (!c.ok()) {
    *why = "connect: " + c.status().ToString();
    return nullptr;
  }
  return std::move(c).value();
}

struct LaneResult {
  std::vector<double> latency_ms;
  /// Heavy lane: which heavy query each sample ran.
  std::vector<size_t> heavy_query;
  std::vector<double> lag_ms;
  /// (pool index, planner) of every cheap request, in send order.
  std::vector<std::pair<size_t, uint8_t>> picks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;
  Clock::time_point last_end{};

  void Count(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (reasons.size() < 4) reasons.push_back(why);
    }
  }
  void Merge(const LaneResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    heavy_query.insert(heavy_query.end(), o.heavy_query.begin(),
                       o.heavy_query.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    picks.insert(picks.end(), o.picks.begin(), o.picks.end());
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& r : o.reasons) {
      if (reasons.size() < 8) reasons.push_back(r);
    }
    last_end = std::max(last_end, o.last_end);
  }
};

uint8_t PlannerFor(uint64_t j) {
  return j % 2 == 0 ? kWireGreedy : kWireSummary;
}

/// One closed-loop cheap connection until `deadline`.
void ClosedCheapLane(Daemon* d, uint64_t seed, Clock::time_point deadline,
                     LaneResult* out, SpanLog* spans) {
  std::string why;
  std::unique_ptr<Client> c = Connect(*d->server, &why);
  if (c == nullptr) {
    out->Count(false, why);
    return;
  }
  rdfsum::Random rng(seed);
  for (uint64_t j = 0; Clock::now() < deadline; ++j) {
    const size_t idx = NextCheap(&rng, d->pool.size());
    const uint8_t planner = PlannerFor(j);
    const CheapQuery& q = d->pool[idx];
    const Clock::time_point t0 = Clock::now();
    Clock::time_point first;
    const bool ok = CheckedQuery(c.get(), q.text, q.expected, planner, 0,
                                 &why, &first);
    const Clock::time_point t1 = Clock::now();
    out->Count(ok, why);
    out->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    out->picks.emplace_back(idx, planner);
    out->last_end = t1;
    if (spans != nullptr) {
      spans->Add("client.request", j, t0, t1);
      spans->Add("client.first_row", j, t0, first);
    }
  }
}

/// One open-loop cheap connection: request k is due at start + k * period
/// (+ this connection's phase) and timed from that moment.
void OpenCheapLane(Daemon* d, uint64_t seed, double period_s, double phase_s,
                   Clock::time_point start, Clock::time_point deadline,
                   LaneResult* out, SpanLog* spans) {
  std::string why;
  std::unique_ptr<Client> c = Connect(*d->server, &why);
  if (c == nullptr) {
    out->Count(false, why);
    return;
  }
  rdfsum::Random rng(seed);
  for (uint64_t j = 0;; ++j) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase_s + period_s * j));
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const size_t idx = NextCheap(&rng, d->pool.size());
    const uint8_t planner = PlannerFor(j);
    const CheapQuery& q = d->pool[idx];
    Clock::time_point first;
    const bool ok = CheckedQuery(c.get(), q.text, q.expected, planner, 0,
                                 &why, &first);
    const Clock::time_point t1 = Clock::now();
    out->Count(ok, why);
    out->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - due).count());
    out->lag_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due).count());
    out->picks.emplace_back(idx, planner);
    out->last_end = t1;
    if (spans != nullptr) spans->Add("client.request", j, due, t1);
  }
}

/// The heavy lane: full drains, closed loop, each heavy query in turn
/// (the rotation starts at a seeded query).
void HeavyLane(Daemon* d, uint64_t seed, Clock::time_point deadline,
               LaneResult* out, SpanLog* spans) {
  std::string why;
  std::unique_ptr<Client> c = Connect(*d->server, &why);
  if (c == nullptr) {
    out->Count(false, why);
    return;
  }
  const uint64_t first = rdfsum::Random(seed).Uniform(d->heavy.size());
  for (uint64_t j = 0; Clock::now() < deadline; ++j) {
    const size_t idx = (first + j) % d->heavy.size();
    const Clock::time_point t0 = Clock::now();
    const bool ok =
        CheckedQuery(c.get(), d->heavy[idx], d->heavy_expected[idx],
                     kWireGreedy, HeavyParallelism(), &why);
    const Clock::time_point t1 = Clock::now();
    out->Count(ok, why);
    out->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    out->heavy_query.push_back(idx);
    out->last_end = t1;
    if (spans != nullptr) spans->Add("client.heavy", j, t0, t1);
  }
}

struct Window {
  LaneResult cheap;
  LaneResult heavy;
  double seconds = 0;
  std::map<std::string, std::string> before, after;
};

Window RunWindow(Daemon* d, bool mixed, double seconds, uint64_t salt,
                 SpanLog* spans) {
  Window w;
  w.before = ReadStats(*d->server);
  const uint32_t conns = CheapConnections();
  std::vector<LaneResult> lanes(conns + 1);
  // Each lane logs into its own copy (same origin); merged after the join.
  std::vector<SpanLog> lane_spans(
      conns + 1, spans != nullptr ? *spans : SpanLog(Clock::now()));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < conns; ++t) {
    const uint64_t seed = salt * 1000 + t + 1;
    SpanLog* s = spans != nullptr ? &lane_spans[t] : nullptr;
    if (mixed) {
      const double period = conns / kCheapRate;
      threads.emplace_back(OpenCheapLane, d, seed, period,
                           period * t / conns, start, deadline, &lanes[t], s);
    } else {
      threads.emplace_back(ClosedCheapLane, d, seed, deadline, &lanes[t], s);
    }
  }
  if (mixed) {
    SpanLog* s = spans != nullptr ? &lane_spans[conns] : nullptr;
    threads.emplace_back(HeavyLane, d, salt * 1000 + 999, deadline,
                         &lanes[conns], s);
  }
  for (std::thread& t : threads) t.join();
  for (uint32_t t = 0; t < conns; ++t) w.cheap.Merge(lanes[t]);
  w.heavy.Merge(lanes[conns]);
  w.seconds = std::chrono::duration<double>(
                  std::max(w.cheap.last_end, w.heavy.last_end) - start)
                  .count();
  w.after = ReadStats(*d->server);
  if (spans != nullptr) {
    for (const SpanLog& s : lane_spans) spans->Append(s);
  }
  return w;
}

/// Server defaults, with enough workers for every connection the harness
/// holds at once (cheap lane, heavy lane), which the default 4 is on hosts
/// of up to 7 cores.
ServerOptions Options() {
  ServerOptions o;
  o.num_workers = std::max(o.num_workers, CheapConnections() + 1);
  return o;
}

bool WarmUp(Daemon* d, std::string* why) {
  std::unique_ptr<Client> c = Connect(*d->server, why);
  if (c == nullptr) return false;
  // The first summary-planned request mints the weak summary and builds
  // the estimator; then every hot shape is planned once per mode.
  for (uint8_t planner : {kWireSummary, kWireGreedy}) {
    for (size_t i = 0; i < kHotShapes; ++i) {
      const CheapQuery& q = d->pool[i];
      if (!CheckedQuery(c.get(), q.text, q.expected, planner, 0, why)) {
        return false;
      }
    }
  }
  rdfsum::Random rng(7);
  for (int j = 0; j < 64; ++j) {
    const CheapQuery& q = d->pool[NextCheap(&rng, d->pool.size())];
    if (!CheckedQuery(c.get(), q.text, q.expected, PlannerFor(j), 0, why)) {
      return false;
    }
  }
  // The probe daemon mints its weak summary too.
  c = Connect(*d->probe, why);
  return c != nullptr && CheckedQuery(c.get(), d->pool[0].text,
                                      d->pool[0].expected, kWireSummary, 0,
                                      why);
}

/// One full set-up: generate, freeze, start, reference answers, warm-up.
bool SetUpServe(const Args& args, int index, Daemon* d,
                std::string* why) {
  d->target_triples =
      args.serve_triples > 0 ? args.serve_triples : kServeTriples;
  d->image = args.work_dir + "/serve_" + std::to_string(index) + ".rsb";
  {
    rdfsum::Graph g = MakeBsbmGraph(d->target_triples, args.seed, &d->num_products);
    Status st = rdfsum::store::FreezeGraphToFile(g, d->image);
    if (!st.ok()) {
      *why = "freeze: " + st.ToString();
      return false;
    }
  }
  d->image_bytes = FileBytes(d->image);
  d->server = std::make_unique<Server>();
  Status st = d->server->Start(d->image, Options());
  if (!st.ok()) {
    *why = "start: " + st.ToString();
    return false;
  }
  d->probe = std::make_unique<Server>();
  st = d->probe->Start(d->image, ServerOptions());
  if (!st.ok()) {
    *why = "start probe daemon: " + st.ToString();
    return false;
  }
  d->triples = d->server->snapshot()->num_triples();
  d->pool = MakeCheapPool(args.seed, d->num_products);
  d->heavy = HeavyQueries();
  if (!d->ComputeCheapExpected(why) || !d->ComputeHeavyExpected(why)) {
    return false;
  }
  return WarmUp(d, why);
}

/// Runs `args.setup_repeats` full set-ups, keeping the last; returns their
/// wall seconds.
std::vector<double> SetUpRepeatedly(const Args& args, Daemon* d,
                                    std::string* why) {
  std::vector<double> seconds;
  const int repeats =
      args.trace ? 1 : args.setup_repeats > 0 ? args.setup_repeats : 5;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) {
      d->server.reset();
      d->probe.reset();
      std::remove(d->image.c_str());
    }
    const Clock::time_point t0 = Clock::now();
    if (!SetUpServe(args, i, d, why)) return {};
    seconds.push_back(SecondsSince(t0));
  }
  return seconds;
}

double Delta(const Window& w, const std::string& key) {
  return StatNumber(w.after, key) - StatNumber(w.before, key);
}

/// Median over complete passes (one request of each heavy query, in
/// rotation) of the pass's mean latency. The heavy queries' costs differ
/// several-fold and each one's latency spreads over two modes, so a median
/// over single requests jumps between queries and modes; a pass mean does
/// not.
double HeavyP50(const std::vector<double>& ms,
                const std::vector<size_t>& query, size_t queries) {
  std::vector<double> pass_ms;
  double sum = 0;
  size_t in_pass = 0;
  for (size_t i = 0; i < ms.size(); ++i) {
    if (in_pass > 0 && query[i] != (query[i - 1] + 1) % queries) {
      sum = 0;  // the rotation restarted: drop the partial pass
      in_pass = 0;
    }
    sum += ms[i];
    if (++in_pass == queries) {
      pass_ms.push_back(sum / queries);
      sum = 0;
      in_pass = 0;
    }
  }
  return Median(pass_ms);
}

void CountLane(const LaneResult& lane, Report* report) {
  report->AddAttempts(lane.attempted, lane.failed, lane.reasons);
}

/// Checks shared by both serve workloads, over the merged window `all`.
void CheckWindow(const Daemon& d, const Window& all, bool mixed,
                 Report* report) {
  const double hits = Delta(all, "plan_cache_hits");
  const double misses = Delta(all, "plan_cache_misses");
  const double ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  std::ostringstream hit;
  hit << "hits " << hits << ", misses " << misses;
  report->Check("plan_cache_hit_and_miss", ratio > 0 && ratio < 1, hit.str());
  report->Stamp("plan_cache_hit_ratio", ratio);
  report->Stamp("shape_repeat_share", ShapeRepeatShare(d.pool, all.cheap.picks));
  const size_t n = all.cheap.latency_ms.size();
  // Samples strictly beyond the run's p99.
  const size_t beyond = n - std::min(n, (n * 99 + 99) / 100);
  report->Check("ten_samples_beyond_p99", beyond >= 10,
                std::to_string(n) + " samples, " + std::to_string(beyond) +
                    " beyond p99");
  if (mixed) {
    const double parallel = Delta(all, "parallel_queries");
    report->Check("heavy_lane_fans_out", parallel > 0,
                  "parallel_queries delta " + std::to_string(parallel));
    report->Check("heavy_lane_ran", !all.heavy.latency_ms.empty(),
                  std::to_string(all.heavy.latency_ms.size()) + " requests");
  }
}

void StampServe(const Daemon& d, bool mixed, Report* report) {
  report->Stamp("image_triples", static_cast<double>(d.triples));
  report->Stamp("cheap_connections", CheapConnections());
  report->Stamp("cheap_pool_queries", static_cast<double>(d.pool.size()));
  report->Stamp("hot_shapes", kHotShapes);
  report->Stamp("tail_shapes", kTailShapes);
  report->Stamp("hot_share", kHotShare);
  if (mixed) {
    report->Stamp("cheap_lane_rate_per_s", kCheapRate);
    report->Stamp("heavy_connections", 1);
  }
  report->Stamp("heavy_parallelism", HeavyParallelism());
  report->Stamp("server_workers", Options().num_workers);
}

/// The request latencies and throughput, over all of the run's requests.
/// They are not gated (README.md, "End-to-end metrics").
void ReportRequestFigures(const Window& all, bool mixed, bool traced,
                          Report* report) {
  const std::vector<double>& ms = all.cheap.latency_ms;
  report->Ungated("latency_p50_ms", Quantile(ms, 0.5), "ms", traced);
  report->Ungated("latency_p99_ms", Quantile(ms, 0.99), "ms", traced);
  // serve_mixed's cheap lane runs at a fixed rate, so its throughput is the
  // heavy lane's: the closed loop whose pace the program sets.
  report->Ungated(
      "throughput_per_s",
      (mixed ? all.heavy : all.cheap).latency_ms.size() / all.seconds, "1/s",
      traced);
}

/// The end-to-end metrics of another workload's path, measured on this
/// workload's image by a probe step after each load interval. The probes
/// reload and query the probe daemon, so the measured daemon's plan cache
/// and epoch are left alone, and they run while the load is paused, so
/// they share no cores with it.
struct Probes {
  std::vector<double> reload_to_first_row_ms;
  std::vector<double> summarize_ms;
  HeavySamples heavy;
};

struct ReloadSample {
  double to_first_row_ms = 0;
  double reload_ms = 0;
  double mint_ms = 0;
};

/// RELOADs the probe daemon onto the served image, then runs a
/// summary-planned query to its first row (which re-mints the weak
/// summary).
bool ReloadStep(const Daemon& d, Client* c, ReloadSample* out,
                Report* report) {
  std::string why;
  const Clock::time_point t0 = Clock::now();
  Status st = c->Reload("");
  out->reload_ms = MillisSince(t0);
  if (!st.ok()) {
    report->Attempt(false, "reload: " + st.ToString());
    return false;
  }
  const CheapQuery& q = d.pool[0];
  Clock::time_point first;
  const bool ok = CheckedQuery(c, q.text, q.expected, kWireSummary, 0, &why,
                               &first);
  report->Attempt(ok, why);
  out->to_first_row_ms =
      std::chrono::duration<double, std::milli>(first - t0).count();
  out->mint_ms = 1e3 * MintSeconds(ReadStats(*d.probe), "W");
  return ok;
}

/// Summarize W+S+TW+TS, first Dense() included, on a fresh graph of
/// `triples` triples.
double SummarizeOnce(uint64_t triples, uint64_t seed) {
  uint64_t products = 0;
  rdfsum::Graph g = MakeBsbmGraph(triples, seed, &products);
  const Clock::time_point t0 = Clock::now();
  g.Dense();
  for (rdfsum::summary::SummaryKind kind : rdfsum::summary::kAllQuotientKinds) {
    rdfsum::summary::Summarize(g, kind);
  }
  return MillisSince(t0);
}

/// One probe step: a reload to first row, kSummarizeSamples summarizes of
/// the ingest workload's graph and, on serve_point, a pass over the heavy
/// queries. With `timed` false the samples are dropped: the first step
/// leaves the allocator holding the memory later steps reuse, as in a
/// long-running process, instead of timing the kernel's page faults.
bool ProbeStep(const Args& args, Daemon* d, Client* probe, bool heavy,
               bool timed, Probes* p, Report* report) {
  ReloadSample r;
  if (!ReloadStep(*d, probe, &r, report)) return false;
  std::vector<double> summarize_ms;
  for (size_t i = 0; i < kSummarizeSamples; ++i) {
    summarize_ms.push_back(SummarizeOnce(IngestTriples(args), args.seed));
  }
  HeavySamples untimed;
  if (heavy && !HeavyPass(d, probe, timed ? &p->heavy : &untimed, report)) {
    return false;
  }
  if (timed) {
    p->reload_to_first_row_ms.push_back(r.to_first_row_ms);
    p->summarize_ms.insert(p->summarize_ms.end(), summarize_ms.begin(),
                           summarize_ms.end());
  }
  return true;
}

int RunServe(const Args& args, bool mixed, Report* report) {
  Daemon d;
  std::string why;
  const std::vector<double> setups = SetUpRepeatedly(args, &d, &why);
  if (setups.empty()) {
    std::cerr << "rdfsum_perf: set-up failed: " << why << "\n";
    return 1;
  }
  StampServe(d, mixed, report);
  if (args.corrupt_expected) d.CorruptExpected();

  if (!args.trace) {
    // Rounds of one load interval and one probe step. Latency quantiles
    // and throughput are taken over all of the run's requests; peak memory
    // is the median over the intervals' peaks.
    std::unique_ptr<Client> probe = Connect(*d.probe, &why);
    if (probe == nullptr) {
      std::cerr << "rdfsum_perf: probe daemon: " << why << "\n";
      return 1;
    }
    Probes probes;
    ProbeStep(args, &d, probe.get(), !mixed, /*timed=*/false, &probes,
              report);
    const size_t rounds = std::max<size_t>(
        1, static_cast<size_t>(args.seconds / kIntervalSeconds + 0.5));
    const bool rss_reset = ResetPeakRss();
    report->Stamp("peak_rss_scope", rss_reset ? "interval" : "process");
    Window all;
    all.before = ReadStats(*d.server);
    std::vector<double> rss;
    for (size_t r = 0; r < rounds; ++r) {
      TrimHeap();
      ResetPeakRss();
      Window w = RunWindow(&d, mixed, kIntervalSeconds, args.seed * 100 + r,
                           nullptr);
      rss.push_back(PeakRssMb());
      CountLane(w.cheap, report);
      CountLane(w.heavy, report);
      all.cheap.Merge(w.cheap);
      all.heavy.Merge(w.heavy);
      all.seconds += w.seconds;
      ProbeStep(args, &d, probe.get(), !mixed, /*timed=*/true, &probes,
                report);
    }
    all.after = ReadStats(*d.server);
    CheckWindow(d, all, mixed, report);
    if (!mixed) {
      const double parallel =
          StatNumber(ReadStats(*d.probe), "parallel_queries");
      report->Check("heavy_probe_fans_out", parallel > 0,
                    "probe daemon parallel_queries " +
                        std::to_string(parallel));
    }
    report->Stamp("intervals", static_cast<double>(rounds));
    report->Stamp("cheap_samples",
                  static_cast<double>(all.cheap.latency_ms.size()));
    report->Stamp("heavy_samples",
                  static_cast<double>(all.heavy.latency_ms.size()));
    ReportRequestFigures(all, mixed, /*traced=*/false, report);
    report->Metric("setup_s", Median(setups), "s");
    report->Metric("image_bytes_per_triple",
                   static_cast<double>(d.image_bytes) / d.triples, "B");
    report->Metric("peak_rss_mb", Median(rss), "MB");
    report->Metric("heavy_latency_p50_ms",
                   mixed ? HeavyP50(all.heavy.latency_ms,
                                    all.heavy.heavy_query, d.heavy.size())
                         : probes.heavy.P50(d.heavy.size()),
                   "ms");
    report->Metric("reload_to_first_row_ms",
                   Median(probes.reload_to_first_row_ms), "ms");
    // The upper quartile, not the median (README.md, "Steadiness").
    report->Metric("summarize_ms", Quantile(probes.summarize_ms, 0.75), "ms");
    return 0;
  }

  // Traced: the window is cut into kTraceSlices slices, untraced and traced
  // in the order U T T U U T T U, so drift over the run cancels out of
  // harness.tracing_overhead (the ratio of the two kinds' median p50s).
  // Each slice draws a fresh stream from the same distribution.
  SpanLog spans(Clock::now());
  Window all;
  all.before = ReadStats(*d.server);
  std::vector<double> plain_p50, traced_p50;
  for (size_t s = 0; s < kTraceSlices; ++s) {
    const bool traced = (s + 1) / 2 % 2 == 1;
    Window w = RunWindow(&d, mixed, args.seconds / kTraceSlices,
                         args.seed * 100 + s, traced ? &spans : nullptr);
    (traced ? traced_p50 : plain_p50)
        .push_back(Quantile(w.cheap.latency_ms, 0.5));
    CountLane(w.cheap, report);
    CountLane(w.heavy, report);
    all.cheap.Merge(w.cheap);
    all.heavy.Merge(w.heavy);
    all.seconds += w.seconds;
  }
  all.after = ReadStats(*d.server);
  CheckWindow(d, all, mixed, report);
  report->Metric("harness.tracing_overhead",
                 Median(traced_p50) / Median(plain_p50), "ratio");
  ReportRequestFigures(all, mixed, /*traced=*/true, report);
  // Zero on serve_point's closed loop, which follows no schedule.
  report->Metric("harness.send_lag_p99_ms", Quantile(all.cheap.lag_ms, 0.99),
                 "ms");
  report->Metric("query.shape_repeat_share",
                 ShapeRepeatShare(d.pool, all.cheap.picks), "ratio");
  ReportStatDeltas(all.before, all.after, report);

  std::vector<std::pair<size_t, uint8_t>> stream = all.cheap.picks;
  if (stream.size() > kReplayRequests) stream.resize(kReplayRequests);
  const double inproc_us = QueryLayerReplay(&d, stream, report);
  report->Metric("server.overhead_us",
                 Quantile(all.cheap.latency_ms, 0.5) * 1e3 - inproc_us, "us");

  std::vector<double> reload_ms, mint_ms;
  if (std::unique_ptr<Client> c = Connect(*d.probe, &why)) {
    for (int r = 0; r < 5; ++r) {
      ReloadSample s;
      if (!ReloadStep(d, c.get(), &s, report)) break;
      reload_ms.push_back(s.reload_ms);
      mint_ms.push_back(s.mint_ms);
    }
  } else {
    report->Attempt(false, why);
  }
  report->Metric("server.reload_ms", Median(reload_ms), "ms");
  report->Metric("summary.mint_ms", Median(mint_ms), "ms");

  // The ingest path's layers, replayed on this workload's graph.
  std::string text;
  {
    uint64_t products = 0;
    rdfsum::Graph g = MakeBsbmGraph(d.target_triples, args.seed, &products);
    text = rdfsum::io::NTriplesWriter::ToString(g);
  }
  IngestLayerReplay(text, args.work_dir + "/layers.rsb", 2, report);
  spans.WriteJsonLines(args.span_dir + "/" + args.workload + ".jsonl");
  return 0;
}

}  // namespace

uint32_t HeavyParallelism() {
  const uint32_t n = Nproc();
  return n > CheapConnections() + 1 ? n - CheapConnections() : 1;
}

uint32_t CheapConnections() { return std::max(1u, Nproc() / 2); }

Daemon::~Daemon() {
  for (auto* s : {&server, &probe}) {
    if (*s != nullptr) {
      (*s)->Stop();
      (*s)->Wait();
    }
  }
}

bool Daemon::ComputeCheapExpected(std::string* why) {
  std::shared_ptr<rdfsum::server::Snapshot> snap = server->snapshot();
  for (CheapQuery& q : pool) {
    auto e = ComputeExpected(snap->evaluator(), q.text);
    if (!e.ok()) {
      *why = "reference: " + e.status().ToString() + " for " + q.text;
      return false;
    }
    q.expected = *e;
  }
  return true;
}

void Daemon::CorruptExpected() {
  for (CheapQuery& q : pool) q.expected.hash ^= 1;
  for (Expected& e : heavy_expected) e.hash ^= 1;
}

bool Daemon::ComputeHeavyExpected(std::string* why) {
  std::shared_ptr<rdfsum::server::Snapshot> snap = server->snapshot();
  heavy_expected.clear();
  for (const std::string& text : heavy) {
    auto e = ComputeExpected(snap->evaluator(), text);
    if (!e.ok()) {
      *why = "heavy reference: " + e.status().ToString();
      return false;
    }
    heavy_expected.push_back(*e);
  }
  return true;
}

std::map<std::string, std::string> ReadStats(const Server& server) {
  std::map<std::string, std::string> out;
  std::istringstream in(server.StatsText());
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      out[line.substr(0, colon)] = line.substr(colon + 2);
    }
  }
  return out;
}

double StatNumber(const std::map<std::string, std::string>& stats,
                  const std::string& key) {
  auto it = stats.find(key);
  return it == stats.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

double MintSeconds(const std::map<std::string, std::string>& stats,
                   const std::string& kind) {
  auto it = stats.find("summary_mint_" + kind);
  if (it == stats.end() || it->second.rfind("ok ", 0) != 0) return -1.0;
  return std::strtod(it->second.c_str() + 3, nullptr);
}

bool CheckedQuery(Client* client, const std::string& text,
                  const Expected& expected, uint8_t planner,
                  uint32_t parallelism, std::string* why,
                  Clock::time_point* first_row) {
  QueryRequest req;
  req.planner = planner;
  req.parallelism = parallelism;
  Expected got;
  bool seen_row = false;
  Status st = client->Query(
      text, req,
      [&](const std::vector<std::string>& row) {
        if (!seen_row && first_row != nullptr) *first_row = Clock::now();
        seen_row = true;
        got.hash += RowDigest(row);
        ++got.rows;
        return true;
      });
  if (!seen_row && first_row != nullptr) *first_row = Clock::now();
  if (!st.ok()) {
    *why = "status: " + st.ToString();
    return false;
  }
  if (got.rows != expected.rows || got.hash != expected.hash) {
    *why = "wrong answer: " + std::to_string(got.rows) + " rows vs " +
           std::to_string(expected.rows) + " expected (planner " +
           std::to_string(planner) + "): " + text;
    return false;
  }
  return true;
}

bool HeavyPass(Daemon* d, Client* c, HeavySamples* out, Report* report) {
  std::string why;
  for (size_t i = 0; i < d->heavy.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = CheckedQuery(c, d->heavy[i], d->heavy_expected[i],
                                 kWireGreedy, HeavyParallelism(), &why);
    out->ms.push_back(MillisSince(t0));
    out->query.push_back(i);
    report->Attempt(ok, why);
    if (!ok) return false;
  }
  return true;
}

double HeavySamples::P50(size_t queries) const {
  return HeavyP50(ms, query, queries);
}

int RunServePoint(const Args& args, Report* report) {
  return RunServe(args, /*mixed=*/false, report);
}

int RunServeMixed(const Args& args, Report* report) {
  return RunServe(args, /*mixed=*/true, report);
}

}  // namespace perf
