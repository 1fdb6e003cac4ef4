// The three workloads and the probes and layer replays they share.
//
// Every run reports every end-to-end metric named in BENCHMARK.json and,
// when traced, every per-layer metric. A workload measures its own metrics
// in its timed window; the few that belong to another workload's path are
// measured on this workload's image by probes between its load intervals
// or cycles (README.md, "End-to-end metrics").
#ifndef RDFSUM_PERFBENCH_WORKLOADS_H_
#define RDFSUM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "queries.h"
#include "server/client.h"
#include "server/server.h"

namespace perf {

/// Planner bytes of the wire protocol (server::QueryRequest::planner).
inline constexpr uint8_t kWireGreedy = 1;
inline constexpr uint8_t kWireSummary = 2;

/// Thread count of the ingest parse and of every layer-replay parse.
inline constexpr uint32_t kParseThreads = 2;

/// Triples in the ingest workload's N-Triples text; the serve workloads'
/// summarize probe summarizes a graph of this size.
uint64_t IngestTriples(const Args& args);

/// Heavy-lane fan-out: what keeps busy threads within nproc next to the
/// cheap connections.
uint32_t HeavyParallelism();
/// Cheap-lane connections: about nproc/2.
uint32_t CheapConnections();

/// A running daemon over one image plus the queries checked against it.
struct Daemon {
  std::string image;
  /// The generator's target size, and the image's exact triple count.
  uint64_t target_triples = 0;
  uint64_t triples = 0;
  uint64_t image_bytes = 0;
  uint64_t num_products = 0;
  std::vector<CheapQuery> pool;
  std::vector<std::string> heavy;
  std::vector<Expected> heavy_expected;
  std::unique_ptr<rdfsum::server::Server> server;
  /// Serve workloads: a second daemon on the same image, which the probes
  /// reload and query, so that the measured daemon's plan cache and epoch
  /// are left alone.
  std::unique_ptr<rdfsum::server::Server> probe;

  ~Daemon();
  /// Reference answers for the cheap pool, in-process on the live image.
  bool ComputeCheapExpected(std::string* why);
  bool ComputeHeavyExpected(std::string* why);
  /// Self-test hook: flips a bit of every expected row hash.
  void CorruptExpected();
};

/// Parsed STATS text (`key: value` lines).
std::map<std::string, std::string> ReadStats(
    const rdfsum::server::Server& server);
double StatNumber(const std::map<std::string, std::string>& stats,
                  const std::string& key);
/// Seconds of the last completed mint of `kind` ("W", ...), or -1.
double MintSeconds(const std::map<std::string, std::string>& stats,
                   const std::string& kind);

/// One checked request: runs `text` on `client` and compares its rows with
/// `expected`. `first_row` (optional) receives when the first ROW arrived
/// (the call's end when there is none).
bool CheckedQuery(rdfsum::server::Client* client, const std::string& text,
                  const Expected& expected, uint8_t planner,
                  uint32_t parallelism, std::string* why,
                  Clock::time_point* first_row = nullptr);

/// Probes run after a window, each counting its requests into `report`.
/// Heavy-query latencies with the query each sample ran.
struct HeavySamples {
  std::vector<double> ms;
  std::vector<size_t> query;
  /// Median over complete passes of a pass's mean latency (ms); see
  /// HeavyP50 in serve.cc.
  double P50(size_t queries) const;
};
/// Drains every heavy query once on `c` at the heavy lane's fan-out.
bool HeavyPass(Daemon* d, rdfsum::server::Client* c, HeavySamples* out,
               Report* report);
/// Per-layer replays of the traced run.
/// The ingest path's layers on `text` (ingest.cc): parse, dense,
/// summaries, freeze, image open; `repeats` passes, medians reported.
void IngestLayerReplay(const std::string& text, const std::string& image,
                       int repeats, Report* report);
/// The query path's layers (layers.cc) on the daemon's live snapshot, over `stream`
/// (pool indexes with their planner bytes). Returns the median in-process
/// parse+plan+exec time in microseconds.
double QueryLayerReplay(Daemon* d,
                        const std::vector<std::pair<size_t, uint8_t>>& stream,
                        Report* report);

/// Share of `picks` whose shape, with its planner, came earlier in them.
double ShapeRepeatShare(const std::vector<CheapQuery>& pool,
                        const std::vector<std::pair<size_t, uint8_t>>& picks);
/// The per-layer metrics read off STATS deltas: plan-cache hit ratio,
/// phase means, fan-out, admission and failure counters.
void ReportStatDeltas(const std::map<std::string, std::string>& before,
                      const std::map<std::string, std::string>& after,
                      Report* report);
/// Median wire latency of `stream` replayed on one idle connection.
double ServedReplayP50Ms(Daemon* d,
                         const std::vector<std::pair<size_t, uint8_t>>& stream,
                         Report* report);

int RunServePoint(const Args& args, Report* report);
int RunServeMixed(const Args& args, Report* report);
int RunIngest(const Args& args, Report* report);

}  // namespace perf

#endif  // RDFSUM_PERFBENCH_WORKLOADS_H_
