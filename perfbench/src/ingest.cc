// ingest: many short write-path cycles per run. Each cycle parses a seeded
// BSBM N-Triples text at a fixed thread count, builds the paper's W, S, TW
// and TS summaries, freezes the graph to a .rsb image, RELOADs the running
// daemon onto it and runs one summary-planned query to its first row (the
// reload re-mints the weak summary the estimator needs). Every cycle is
// checked against the set-up's reference: the image bytes (freezing is
// deterministic), the summaries' node and edge counts, and the query's rows.
#include <sys/stat.h>

#include <array>
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "store/mmap_store.h"
#include "summary/summarizer.h"
#include "workloads.h"

namespace perf {

using rdfsum::Status;
using rdfsum::server::Client;
using rdfsum::summary::kAllQuotientKinds;

namespace {

constexpr uint64_t kIngestTriples = 20'000;
/// Distinct summary-planned queries the cycles rotate through.
constexpr size_t kCycleQueries = 64;
/// An untraced run follows every this many cycles with a pass over the
/// heavy queries on the cycle's image (the heavy_latency_p50_ms probe), so
/// the probe's samples spread over the run.
constexpr uint64_t kHeavyEvery = 4;
constexpr size_t kKinds = std::size(kAllQuotientKinds);

/// One parse -> summarize -> freeze pass, with the phase splits the public
/// calls return.
struct Pass {
  uint64_t triples = 0;
  double parse_ms = 0, intern_ms = 0;
  double dense_ms = 0;
  double summarize_ms = 0;  // first Dense() plus all four kinds
  std::array<double, kKinds> partition_ms{}, quotient_ms{};
  std::array<uint64_t, kKinds> nodes{}, edges{};
  double freeze_ms = 0, write_ms = 0;
};

bool RunPass(const std::string& text, const std::string& image, Pass* p,
             std::string* why, SpanLog* spans, uint64_t owner) {
  auto span = [&](const char* name, Clock::time_point t0) {
    if (spans != nullptr) spans->Add(name, owner, t0, Clock::now());
  };
  rdfsum::Graph g;
  rdfsum::io::ParseStats ps;
  rdfsum::io::ParseOptions po;
  po.num_threads = kParseThreads;
  Clock::time_point t = Clock::now();
  Status st = rdfsum::io::NTriplesParser::ParseString(text, &g, &ps, po);
  span("io.parse", t);
  if (!st.ok()) {
    *why = "parse: " + st.ToString();
    return false;
  }
  p->triples = g.NumTriples();
  p->parse_ms = 1e3 * ps.parse_seconds;
  p->intern_ms = 1e3 * ps.intern_seconds;

  t = Clock::now();
  g.Dense();
  p->dense_ms = MillisSince(t);
  span("rdf.dense", t);
  for (size_t k = 0; k < kKinds; ++k) {
    const Clock::time_point tk = Clock::now();
    auto r = rdfsum::summary::TrySummarize(g, kAllQuotientKinds[k]);
    span("summary.summarize", tk);
    if (!r.ok()) {
      *why = "summarize: " + r.status().ToString();
      return false;
    }
    p->partition_ms[k] = 1e3 * r->stats.partition_seconds;
    p->quotient_ms[k] = 1e3 * r->stats.quotient_seconds;
    p->nodes[k] = r->stats.num_all_nodes;
    p->edges[k] = r->stats.num_all_edges;
  }
  p->summarize_ms = MillisSince(t);

  double freeze_s = 0;
  rdfsum::store::FreezeOptions fo;
  fo.freeze_seconds = &freeze_s;
  t = Clock::now();
  st = rdfsum::store::FreezeGraphToFile(g, image, fo);
  const double wall_ms = MillisSince(t);
  span("store.freeze_to_file", t);
  if (!st.ok()) {
    *why = "freeze: " + st.ToString();
    return false;
  }
  p->freeze_ms = 1e3 * freeze_s;
  p->write_ms = wall_ms - p->freeze_ms;
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream s;
  s << f.rdbuf();
  *out = s.str();
  return static_cast<bool>(f);
}

double OpenImageMs(const std::string& image, std::string* why) {
  const Clock::time_point t = Clock::now();
  auto store = rdfsum::store::MmapStore::Open(image);
  const double ms = MillisSince(t);
  if (!store.ok()) {
    *why = "open: " + store.status().ToString();
    return -1;
  }
  return ms;
}

struct Ingest {
  std::string text;
  Pass reference;
  std::string reference_bytes;
  Daemon daemon;
  /// Declared after the daemon so it disconnects first: the server's
  /// shutdown waits for open connections.
  std::unique_ptr<Client> client;
};

bool SetUpIngest(const Args& args, int index, Ingest* in, std::string* why) {
  const uint64_t target = IngestTriples(args);
  {
    rdfsum::Graph g = MakeBsbmGraph(target, args.seed, &in->daemon.num_products);
    in->text = rdfsum::io::NTriplesWriter::ToString(g);
  }
  Daemon& d = in->daemon;
  d.target_triples = target;
  d.image = args.work_dir + "/ingest_ref_" + std::to_string(index) + ".rsb";
  if (!RunPass(in->text, d.image, &in->reference, why, nullptr, 0) ||
      !ReadFile(d.image, &in->reference_bytes)) {
    return false;
  }
  d.image_bytes = in->reference_bytes.size();
  d.server = std::make_unique<rdfsum::server::Server>();
  Status st = d.server->Start(d.image, rdfsum::server::ServerOptions());
  if (!st.ok()) {
    *why = "start: " + st.ToString();
    return false;
  }
  d.triples = d.server->snapshot()->num_triples();
  d.pool = MakeCheapPool(args.seed, d.num_products);
  d.pool.resize(kCycleQueries);  // hot entries: a shape mix, rotating anchors
  d.heavy = HeavyQueries();
  if (!d.ComputeCheapExpected(why) || !d.ComputeHeavyExpected(why)) {
    return false;
  }
  auto c = Client::Connect("127.0.0.1", d.server->port());
  if (!c.ok()) {
    *why = "connect: " + c.status().ToString();
    return false;
  }
  in->client = std::move(c).value();
  // Warm the reload path once: re-open, mint, answer.
  st = in->client->Reload("");
  if (!st.ok()) {
    *why = "reload: " + st.ToString();
    return false;
  }
  return CheckedQuery(in->client.get(), d.pool[0].text, d.pool[0].expected,
                      kWireSummary, 0, why);
}

struct Cycle {
  Pass pass;
  size_t query = 0;  // index into the daemon's pool
  double cycle_ms = 0;
  double reload_ms = 0;
  double reload_to_first_row_ms = 0;
  double mint_ms = 0;
  double open_ms = 0;
  double peak_rss_mb = 0;
};

/// Cycle `i`; a failed step or check is described in `why`. Cycles
/// alternate between two image files, so a cycle never rewrites the file
/// the daemon is serving.
bool RunCycle(Ingest* in, uint64_t i, const std::string& work_dir,
              Cycle* c, std::string* why, SpanLog* spans) {
  const std::string image =
      work_dir + (i % 2 == 0 ? "/ingest_a.rsb" : "/ingest_b.rsb");
  ResetPeakRss();
  const Clock::time_point t0 = Clock::now();
  if (!RunPass(in->text, image, &c->pass, why, spans, i)) return false;
  const Clock::time_point t_reload = Clock::now();
  Status st = in->client->Reload(image);
  c->reload_ms = MillisSince(t_reload);
  if (spans != nullptr) spans->Add("server.reload", i, t_reload, Clock::now());
  if (!st.ok()) {
    *why = "reload: " + st.ToString();
    return false;
  }
  c->query = i % in->daemon.pool.size();
  const CheapQuery& q = in->daemon.pool[c->query];
  Clock::time_point first;
  const Clock::time_point t_query = Clock::now();
  const bool answered = CheckedQuery(in->client.get(), q.text, q.expected,
                                     kWireSummary, 0, why, &first);
  c->cycle_ms = std::chrono::duration<double, std::milli>(first - t0).count();
  c->reload_to_first_row_ms =
      std::chrono::duration<double, std::milli>(first - t_reload).count();
  if (spans != nullptr) {
    spans->Add("client.first_row", i, t_query, first);
    spans->Add("ingest.cycle", i, t0, first);
  }
  c->peak_rss_mb = PeakRssMb();
  if (!answered) return false;

  // Checks and per-layer extras, outside the cycle's time.
  c->mint_ms = 1e3 * MintSeconds(ReadStats(*in->daemon.server), "W");
  std::string bytes;
  if (!ReadFile(image, &bytes) || bytes != in->reference_bytes) {
    *why = "image bytes differ from the reference freeze";
    return false;
  }
  if (c->pass.nodes != in->reference.nodes ||
      c->pass.edges != in->reference.edges) {
    *why = "summary node/edge counts differ from the reference";
    return false;
  }
  if (spans != nullptr) {
    c->open_ms = OpenImageMs(image, why);
    if (c->open_ms < 0) return false;
  }
  return true;
}

/// Cycles run for `seconds`. With `spans`, cycles are traced in the order
/// U T T U U T T U ..., so drift over the run cancels out of the ratio of
/// traced to untraced cycles, and no heavy pass runs between them.
struct CycleRun {
  std::vector<Cycle> plain;
  std::vector<Cycle> traced;
  HeavySamples heavy;
};

CycleRun RunCycles(Ingest* in, const Args& args, double seconds,
                   Report* report, SpanLog* spans) {
  CycleRun run;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (uint64_t i = 0; Clock::now() < deadline; ++i) {
    const bool traced = spans != nullptr && (i + 1) / 2 % 2 == 1;
    Cycle c;
    std::string why;
    const bool ok =
        RunCycle(in, i, args.work_dir, &c, &why, traced ? spans : nullptr);
    report->Attempt(ok, why);
    if (ok) (traced ? run.traced : run.plain).push_back(c);
    if (spans == nullptr && i % kHeavyEvery == kHeavyEvery - 1) {
      HeavyPass(&in->daemon, in->client.get(), &run.heavy, report);
    }
  }
  return run;
}

template <typename F>
std::vector<double> Collect(const std::vector<Cycle>& cycles, F f) {
  std::vector<double> out;
  for (const Cycle& c : cycles) out.push_back(f(c));
  return out;
}

/// The cycle latencies and ingest throughput. They are not gated
/// (README.md, "End-to-end metrics").
void ReportCycleFigures(const std::vector<Cycle>& cycles, bool traced,
                        Report* report) {
  const std::vector<double> cycle_ms =
      Collect(cycles, [](const Cycle& c) { return c.cycle_ms; });
  double triples = 0, busy_ms = 0;
  for (const Cycle& c : cycles) {
    triples += static_cast<double>(c.pass.triples);
    busy_ms += c.cycle_ms;
  }
  report->Ungated("latency_p50_ms", Quantile(cycle_ms, 0.5), "ms", traced);
  report->Ungated("latency_p99_ms", Quantile(cycle_ms, 0.99), "ms", traced);
  report->Ungated("throughput_per_s", triples / (busy_ms / 1e3), "1/s",
                  traced);
}

const char* KindName(size_t k) {
  return rdfsum::summary::SummaryKindName(kAllQuotientKinds[k]);
}

/// The ingest path's per-layer metrics: medians over `passes`.
void ReportPassLayers(const std::vector<Pass>& passes,
                      const std::vector<double>& open_ms,
                      uint64_t image_bytes, Report* report) {
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(f(p));
    return Median(v);
  };
  report->Metric("io.parse_ms", med([](const Pass& p) { return p.parse_ms; }),
                 "ms");
  report->Metric("io.intern_ms",
                 med([](const Pass& p) { return p.intern_ms; }), "ms");
  report->Metric("rdf.dense_ms",
                 med([](const Pass& p) { return p.dense_ms; }), "ms");
  for (size_t k = 0; k < kKinds; ++k) {
    report->Metric(std::string("summary.partition_ms.") + KindName(k),
                   med([&](const Pass& p) { return p.partition_ms[k]; }),
                   "ms");
    report->Metric(std::string("summary.quotient_ms.") + KindName(k),
                   med([&](const Pass& p) { return p.quotient_ms[k]; }),
                   "ms");
  }
  report->Metric("store.freeze_ms",
                 med([](const Pass& p) { return p.freeze_ms; }), "ms");
  report->Metric("store.image_write_ms",
                 med([](const Pass& p) { return p.write_ms; }), "ms");
  report->Metric("store.image_open_ms", Median(open_ms), "ms");
  report->Metric("store.image_bytes", static_cast<double>(image_bytes), "B");
}

}  // namespace

uint64_t IngestTriples(const Args& args) {
  return args.ingest_triples > 0 ? args.ingest_triples : kIngestTriples;
}

void IngestLayerReplay(const std::string& text, const std::string& image,
                       int repeats, Report* report) {
  std::vector<Pass> passes;
  std::vector<double> open_ms;
  for (int r = 0; r < repeats; ++r) {
    Pass p;
    std::string why;
    const bool ok = RunPass(text, image, &p, &why, nullptr, 0);
    const double open = ok ? OpenImageMs(image, &why) : -1;
    report->Attempt(ok && open >= 0, why);
    if (ok && open >= 0) {
      passes.push_back(p);
      open_ms.push_back(open);
    }
  }
  struct stat st;
  const uint64_t bytes =
      ::stat(image.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
  ReportPassLayers(passes, open_ms, bytes, report);
  std::remove(image.c_str());
}

int RunIngest(const Args& args, Report* report) {
  std::unique_ptr<Ingest> owned;
  std::string why;
  std::vector<double> setups;
  // A set-up here takes a fraction of a second, so more of them.
  const int repeats =
      args.trace ? 1 : args.setup_repeats > 0 ? args.setup_repeats : 9;
  for (int i = 0; i < repeats; ++i) {
    owned.reset();
    owned = std::make_unique<Ingest>();
    const Clock::time_point t0 = Clock::now();
    if (!SetUpIngest(args, i, owned.get(), &why)) {
      std::cerr << "rdfsum_perf: set-up failed: " << why << "\n";
      return 1;
    }
    setups.push_back(SecondsSince(t0));
  }
  Ingest& in = *owned;
  Daemon& d = in.daemon;
  if (args.corrupt_expected) d.CorruptExpected();
  report->Stamp("image_triples", static_cast<double>(d.triples));
  report->Stamp("parse_threads", kParseThreads);
  report->Stamp("summary_threads", 1);
  report->Stamp("cycle_queries", kCycleQueries);
  report->Stamp("heavy_parallelism", HeavyParallelism());
  TrimHeap();
  const bool rss_reset = ResetPeakRss();
  report->Stamp("peak_rss_scope", rss_reset ? "cycle" : "process");

  if (!args.trace) {
    // One untimed heavy pass first, so that the timed ones reuse the
    // memory it leaves in the allocator.
    HeavySamples untimed;
    HeavyPass(&d, in.client.get(), &untimed, report);
    const CycleRun run = RunCycles(&in, args, args.seconds, report, nullptr);
    const std::vector<Cycle>& cycles = run.plain;
    report->Stamp("cycles", static_cast<double>(cycles.size()));
    report->Check("many_cycles", cycles.size() >= 20,
                  std::to_string(cycles.size()) + " cycles");
    ReportCycleFigures(cycles, /*traced=*/false, report);
    report->Metric("setup_s", Median(setups), "s");
    report->Metric("reload_to_first_row_ms",
                   Median(Collect(cycles,
                                  [](const Cycle& c) {
                                    return c.reload_to_first_row_ms;
                                  })),
                   "ms");
    // The upper quartile, not the median (README.md, "Steadiness").
    report->Metric("summarize_ms",
                   Quantile(Collect(cycles,
                                    [](const Cycle& c) {
                                      return c.pass.summarize_ms;
                                    }),
                            0.75),
                   "ms");
    report->Metric("image_bytes_per_triple",
                   static_cast<double>(d.image_bytes) / d.triples, "B");
    report->Metric("peak_rss_mb",
                   Median(Collect(cycles,
                                  [](const Cycle& c) { return c.peak_rss_mb; })),
                   "MB");
    report->Metric("heavy_latency_p50_ms", run.heavy.P50(d.heavy.size()),
                   "ms");
    return 0;
  }

  SpanLog spans(Clock::now());
  const auto before = ReadStats(*d.server);
  const CycleRun run = RunCycles(&in, args, args.seconds, report, &spans);
  ReportStatDeltas(before, ReadStats(*d.server), report);
  const std::vector<Cycle>& traced = run.traced;
  std::vector<std::pair<size_t, uint8_t>> stream;
  for (const Cycle& c : traced) {
    stream.emplace_back(c.query, kWireSummary);
  }
  report->Metric("query.shape_repeat_share",
                 ShapeRepeatShare(d.pool, stream), "ratio");
  const double inproc_us = QueryLayerReplay(&d, stream, report);
  report->Metric("server.overhead_us",
                 1e3 * ServedReplayP50Ms(&d, stream, report) - inproc_us,
                 "us");
  auto p50 = [](const std::vector<Cycle>& cycles) {
    return Median(Collect(cycles, [](const Cycle& c) { return c.cycle_ms; }));
  };
  report->Metric("harness.tracing_overhead", p50(traced) / p50(run.plain),
                 "ratio");
  std::vector<Cycle> cycles = run.plain;
  cycles.insert(cycles.end(), traced.begin(), traced.end());
  ReportCycleFigures(cycles, /*traced=*/true, report);
  // Cycles run back to back and follow no schedule, so nothing is late.
  report->Metric("harness.send_lag_p99_ms", 0.0, "ms");
  std::vector<Pass> passes;
  for (const Cycle& c : traced) passes.push_back(c.pass);
  ReportPassLayers(passes,
                   Collect(traced, [](const Cycle& c) { return c.open_ms; }),
                   d.image_bytes, report);
  report->Metric("server.reload_ms",
                 Median(Collect(traced,
                                [](const Cycle& c) { return c.reload_ms; })),
                 "ms");
  report->Metric("summary.mint_ms",
                 Median(Collect(traced,
                                [](const Cycle& c) { return c.mint_ms; })),
                 "ms");
  spans.WriteJsonLines(args.span_dir + "/" + args.workload + ".jsonl");
  return 0;
}

}  // namespace perf
