// The traced run's query-path layers: in-process replays through the
// public query API (ParseSparql, BgpEvaluator::Plan/Open/Decode/Explain)
// on the daemon's live snapshot, and the daemon's own STATS counters taken
// as deltas over the traced window.
#include <set>

#include "query/sparql_parser.h"
#include "workloads.h"

namespace perf {

using rdfsum::query::BgpEvaluator;
using rdfsum::query::PlannerMode;

namespace {

constexpr int kHeavyRepeats = 3;

double Micros(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

double ShapeRepeatShare(const std::vector<CheapQuery>& pool,
                        const std::vector<std::pair<size_t, uint8_t>>& picks) {
  std::set<std::pair<std::string, uint8_t>> seen;
  uint64_t repeats = 0;
  for (const auto& [idx, planner] : picks) {
    if (!seen.emplace(pool[idx].shape, planner).second) ++repeats;
  }
  return picks.empty() ? 0.0 : static_cast<double>(repeats) / picks.size();
}

void ReportStatDeltas(const std::map<std::string, std::string>& before,
                      const std::map<std::string, std::string>& after,
                      Report* report) {
  auto delta = [&](const std::string& key) {
    return StatNumber(after, key) - StatNumber(before, key);
  };
  const double hits = delta("plan_cache_hits");
  const double misses = delta("plan_cache_misses");
  report->Metric("query.plan_cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  for (const char* phase : {"parse", "plan", "exec"}) {
    const std::string p = std::string("phase_") + phase;
    const double n = delta(p + "_count");
    report->Metric("server." + p + "_mean_us",
                   n > 0 ? delta(p + "_total_us") / n : 0.0, "us");
  }
  for (const char* counter : {"parallel_queries", "parallel_slots_trimmed",
                              "admission_rejected", "queries_failed"}) {
    report->Metric(std::string("server.") + counter, delta(counter), "count");
  }
}

double QueryLayerReplay(Daemon* d,
                        const std::vector<std::pair<size_t, uint8_t>>& stream,
                        Report* report) {
  std::shared_ptr<rdfsum::server::Snapshot> snap = d->server->snapshot();
  auto est = snap->Estimator();
  rdfsum::query::EvaluatorOptions eo;
  eo.estimator = est.ok() ? *est : nullptr;
  const BgpEvaluator ev(snap->dict(), snap->table(), eo);

  std::vector<double> parse_us, plan_greedy_us, plan_summary_us, exec_us,
      total_us;
  rdfsum::query::IdRow row;
  for (const auto& [idx, planner] : stream) {
    const CheapQuery& cq = d->pool[idx];
    const Clock::time_point t0 = Clock::now();
    auto q = rdfsum::query::ParseSparql(cq.text);
    const Clock::time_point t1 = Clock::now();
    if (!q.ok()) {
      report->Attempt(false, "replay parse: " + q.status().ToString());
      continue;
    }
    // Both planners are timed on every request; the request's own one is
    // executed and counted in its in-process total.
    const rdfsum::query::QueryPlan greedy = ev.Plan(*q, PlannerMode::kGreedy);
    const Clock::time_point tg = Clock::now();
    const rdfsum::query::QueryPlan summary =
        ev.Plan(*q, PlannerMode::kSummary);
    const Clock::time_point ts = Clock::now();
    const bool use_summary = planner == kWireSummary;
    const rdfsum::query::QueryPlan& plan = use_summary ? summary : greedy;
    const double plan_us = use_summary ? Micros(tg, ts) : Micros(t1, tg);
    const Clock::time_point t2 = Clock::now();
    auto cursor = ev.Open(*q, plan);
    uint64_t rows = 0;
    if (cursor.ok()) {
      while ((*cursor)->Next(&row)) ++rows;
    }
    const Clock::time_point t3 = Clock::now();
    const bool ok = cursor.ok() && (*cursor)->status().ok() &&
                    rows == cq.expected.rows;
    report->Attempt(ok, "replay rows differ for " + cq.text);
    parse_us.push_back(Micros(t0, t1));
    plan_greedy_us.push_back(Micros(t1, tg));
    plan_summary_us.push_back(Micros(tg, ts));
    exec_us.push_back(Micros(t2, t3));
    total_us.push_back(Micros(t0, t1) + plan_us + Micros(t2, t3));
  }
  report->Metric("query.sparql_parse_us", Median(parse_us), "us");
  report->Metric("query.plan_us.greedy", Median(plan_greedy_us), "us");
  report->Metric("query.plan_us.summary", Median(plan_summary_us), "us");
  report->Metric("query.exec_us", Median(exec_us), "us");

  // Heavy drains at parallelism 1 and at the heavy lane's fan-out.
  const uint32_t fan_out = HeavyParallelism();
  std::vector<double> p1_ms, pn_ms;
  double p1_total = 0, pn_total = 0, decode_us = 0, decoded_rows = 0,
         examined = 0, results = 0;
  for (const std::string& text : d->heavy) {
    auto q = rdfsum::query::ParseSparql(text);
    if (!q.ok()) {
      report->Attempt(false, "heavy parse: " + q.status().ToString());
      continue;
    }
    const rdfsum::query::QueryPlan plan = ev.Plan(*q, PlannerMode::kGreedy);
    for (uint32_t par : {1u, fan_out}) {
      std::vector<double> ms;
      for (int r = 0; r < kHeavyRepeats; ++r) {
        rdfsum::query::CursorOptions co;
        co.parallelism = par;
        const Clock::time_point t0 = Clock::now();
        auto cursor = ev.Open(*q, plan, co);
        bool ok = cursor.ok();
        while (ok && (*cursor)->Next(&row)) {
        }
        ok = ok && (*cursor)->status().ok();
        ms.push_back(1e-3 * Micros(t0, Clock::now()));
        report->Attempt(ok, "heavy drain failed");
      }
      (par == 1 ? p1_ms : pn_ms).insert((par == 1 ? p1_ms : pn_ms).end(),
                                        ms.begin(), ms.end());
      (par == 1 ? p1_total : pn_total) += Median(ms);
    }
    auto cursor = ev.Open(*q, plan);
    if (cursor.ok()) {
      while ((*cursor)->Next(&row)) {
        const Clock::time_point t0 = Clock::now();
        const rdfsum::query::Row decoded = ev.Decode(row);
        decode_us += Micros(t0, Clock::now());
        ++decoded_rows;
      }
    }
    auto explained = ev.Explain(*q);
    if (explained.ok()) {
      for (const auto& op : explained->operators) {
        examined += static_cast<double>(op.rows_produced);
      }
      results += static_cast<double>(explained->num_result_rows);
    }
  }
  report->Metric("query.drain_ms.p1", Median(p1_ms), "ms");
  report->Metric("query.drain_ms.pN", Median(pn_ms), "ms");
  report->Metric("query.parallel_speedup",
                 pn_total > 0 ? p1_total / pn_total : 0.0, "ratio");
  report->Metric("query.rows_examined_per_result",
                 results > 0 ? examined / results : 0.0, "ratio");
  report->Metric("query.decode_us_per_row",
                 decoded_rows > 0 ? decode_us / decoded_rows : 0.0, "us");
  return Median(total_us);
}

double ServedReplayP50Ms(Daemon* d,
                         const std::vector<std::pair<size_t, uint8_t>>& stream,
                         Report* report) {
  auto c = rdfsum::server::Client::Connect("127.0.0.1", d->server->port());
  if (!c.ok()) {
    report->Attempt(false, "connect: " + c.status().ToString());
    return 0.0;
  }
  std::vector<double> ms;
  std::string why;
  for (const auto& [idx, planner] : stream) {
    const CheapQuery& q = d->pool[idx];
    const Clock::time_point t0 = Clock::now();
    const bool ok =
        CheckedQuery(c->get(), q.text, q.expected, planner, 0, &why);
    ms.push_back(MillisSince(t0));
    report->Attempt(ok, why);
  }
  return Median(ms);
}

}  // namespace perf
