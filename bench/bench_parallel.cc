// The paper's §9 future work — parallel summarization — measured: the
// sharded weak partition, quotient, Summarize pipeline and bisimulation
// rounds, and the sharded load + Freeze, across a thread sweep against their
// one-thread runs, plus the streaming maintainer's per-triple cost. Wall
// times land in BENCH_parallel.json (override the path with
// RDFSUM_BENCH_JSON) so the scaling trajectory can be tracked and diffed
// across PRs.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "io/ntriples_parser.h"
#include "io/ntriples_writer.h"
#include "store/triple_table.h"
#include "summary/isomorphism.h"
#include "summary/maintenance.h"
#include "summary/node_partition.h"
#include "summary/summarizer.h"
#include "util/csv.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

using bench::BenchScales;
using bench::CachedBsbm;
using bench::Num;
using summary::ComputeBisimulationPartition;
using summary::ComputeWeakPartition;
using summary::NodePartition;
using summary::QuotientByPartition;
using summary::Summarize;
using summary::SummaryKind;

constexpr uint32_t kSweepThreads[] = {1, 2, 4, 8};

/// Best-of-two wall time; the first run doubles as warm-up (single-shot
/// timings at small scales are dominated by allocator/page-fault
/// cold-start, not the algorithm).
template <typename Fn>
double BestOfTwo(Fn&& fn) {
  Timer t1;
  fn();
  double first = t1.ElapsedSeconds();
  Timer t2;
  fn();
  return std::min(first, t2.ElapsedSeconds());
}

bool SamePartition(const NodePartition& a, const NodePartition& b) {
  return a.num_classes == b.num_classes && a.class_of == b.class_of;
}

/// One sweep measurement: wall time, whether the result matched the
/// reference run, and the thread count the runtime actually spawned for the
/// dominant sharded phase (ResolveThreadCount of the requested count
/// against that phase's work size; phases over smaller inputs — the type
/// scan, bisimulation's node ranges — may resolve lower).
struct ParallelRun {
  double seconds = 0.0;
  bool matched = false;
  uint32_t effective_threads = 0;
};

// One thread sweep over the bench scales: `reference(g)` runs the
// one-thread path once, untimed, stashing whatever the equality check
// needs; then `parallel(g, threads)` times the sharded path at each sweep
// count. Records land in the JSON as <prefix>_p<threads>, each carrying its
// requested and effective thread counts; the speedup column is p1 over p4.
// Any reference mismatch clears *all_equal (the caller turns that into a
// non-zero exit).
template <typename Reference, typename Parallel>
void PrintSweep(bench::BenchJson* json, const std::string& prefix,
                const std::string& title, bool* all_equal,
                Reference&& reference, Parallel&& parallel) {
  TablePrinter table({"triples", "1t (ms)", "2t (ms)", "4t (ms)", "8t (ms)",
                      "speedup@4", "equal"});
  for (uint64_t scale : BenchScales()) {
    const Graph& g = CachedBsbm(scale);
    g.Dense();  // substrate shared by every run below; build it once up front
    reference(g);

    std::vector<std::string> row = {Num(g.NumTriples())};
    double at1 = 0.0, at4 = 0.0;
    bool equal = true;
    for (uint32_t threads : kSweepThreads) {
      ParallelRun run = parallel(g, threads);
      json->RecordThreads(prefix + "_p" + std::to_string(threads), scale,
                          run.seconds, threads, run.effective_threads);
      row.push_back(FormatDouble(run.seconds * 1e3, 1));
      if (threads == 1) at1 = run.seconds;
      if (threads == 4) at4 = run.seconds;
      equal = equal && run.matched;
    }
    row.push_back(FormatDouble(at1 / at4, 2) + "x");
    row.push_back(equal ? "yes" : "NO (bug!)");
    *all_equal = *all_equal && equal;
    table.AddRow(row);
  }
  table.Print(std::cout, title);
}

// Partition construction alone — the phase the sharded scan parallelizes.
void PrintParallelWeakPartitionOnly(bench::BenchJson* json, bool* all_equal) {
  NodePartition seq_part;
  PrintSweep(
      json, "weak_partition",
      "Parallel weak partition only (quotient excluded)", all_equal,
      [&](const Graph& g) { seq_part = ComputeWeakPartition(g); },
      [&](const Graph& g, uint32_t threads) {
        NodePartition part;
        double secs =
            BestOfTwo([&] { part = ComputeWeakPartition(g, threads); });
        return ParallelRun{
            secs, SamePartition(seq_part, part),
            util::ResolveThreadCount(threads, g.Dense().num_data_edges())};
      });
}

// Quotient construction alone over a fixed (one-thread) weak partition.
void PrintParallelQuotient(bench::BenchJson* json, bool* all_equal) {
  NodePartition part;
  summary::SummaryResult batch;
  PrintSweep(
      json, "quotient",
      "Parallel quotient construction (fixed weak partition)", all_equal,
      [&](const Graph& g) {
        part = ComputeWeakPartition(g);
        batch = QuotientByPartition(g, part, SummaryKind::kWeak, {}).value();
      },
      [&](const Graph& g, uint32_t threads) {
        summary::SummaryOptions options;
        options.num_threads = threads;
        summary::SummaryResult r;
        double secs = BestOfTwo([&] {
          r = QuotientByPartition(g, part, SummaryKind::kWeak, options).value();
        });
        bool matched =
            r.graph.NumTriples() == batch.graph.NumTriples() &&
            r.stats.num_all_nodes == batch.stats.num_all_nodes &&
            summary::AreSummariesIsomorphic(batch.graph, r.graph);
        return ParallelRun{
            secs, matched,
            util::ResolveThreadCount(threads, g.Dense().num_data_edges())};
      });
}

// End-to-end pipeline (partition + quotient) through the Summarize facade
// with SummaryOptions::num_threads — what `rdfsum summarize --threads N`
// runs.
void PrintParallelPipeline(bench::BenchJson* json, bool* all_equal) {
  summary::SummaryResult batch;
  PrintSweep(
      json, "pipeline",
      "Parallel pipeline: partition + quotient (Summarize, weak)", all_equal,
      [&](const Graph& g) { batch = Summarize(g, SummaryKind::kWeak); },
      [&](const Graph& g, uint32_t threads) {
        summary::SummaryOptions options;
        options.num_threads = threads;
        summary::SummaryResult r;
        double secs =
            BestOfTwo([&] { r = Summarize(g, SummaryKind::kWeak, options); });
        bool matched =
            r.graph.NumTriples() == batch.graph.NumTriples() &&
            summary::AreSummariesIsomorphic(batch.graph, r.graph);
        return ParallelRun{
            secs, matched,
            util::ResolveThreadCount(threads, g.Dense().num_data_edges())};
      });
}

void PrintParallelBisimulation(bench::BenchJson* json, bool* all_equal) {
  NodePartition seq_part;
  PrintSweep(
      json, "bisim", "Parallel bisimulation refinement (depth 2, typed)",
      all_equal,
      [&](const Graph& g) {
        seq_part = ComputeBisimulationPartition(g, 2, true);
      },
      [&](const Graph& g, uint32_t threads) {
        NodePartition part;
        double secs = BestOfTwo([&] {
          part = ComputeBisimulationPartition(
              g, 2, true, summary::BisimulationDirection::kForwardBackward,
              threads);
        });
        return ParallelRun{
            secs, SamePartition(seq_part, part),
            util::ResolveThreadCount(threads, g.Dense().num_nodes())};
      });
}

// The parallel ingestion pipeline: N-Triples parse (chunked),
// dictionary merge + replay, and TripleTable::Freeze, swept across thread
// counts. Each row records the requested and effective thread counts
// (effective = chunks the parser actually split into) plus the phase
// breakdown; any deviation from an untimed one-thread reference load —
// triples, ids, or frozen SPO permutation — clears *all_equal.
void PrintParallelLoad(bench::BenchJson* json, bool* all_equal) {
  struct LoadRun {
    double total = 0.0;
    double freeze_seconds = 0.0;
    io::ParseStats stats;
    Graph g;
    std::vector<Triple> spo;
    bool ok = false;
  };
  auto run_once = [](const std::string& input, uint32_t threads,
                     LoadRun* out) {
    Timer t;
    out->g = Graph();
    out->stats = io::ParseStats();
    io::ParseOptions options;
    options.num_threads = threads;
    out->ok =
        io::NTriplesParser::ParseString(input, &out->g, &out->stats, options)
            .ok();
    store::TripleTable table;
    out->g.ForEachTriple([&](const Triple& tr) { table.Append(tr); });
    Timer ft;
    table.Freeze(threads);
    out->freeze_seconds = ft.ElapsedSeconds();
    out->total = t.ElapsedSeconds();
    auto spo = table.Permutation(store::IndexKind::kSpo);
    out->spo.assign(spo.begin(), spo.end());
  };
  // Best-of-two like the other sweeps, keeping the stats of the faster run.
  auto best_of_two = [&](const std::string& input, uint32_t threads,
                         LoadRun* out) {
    LoadRun second;
    run_once(input, threads, out);
    run_once(input, threads, &second);
    if (second.total < out->total) *out = std::move(second);
  };

  TablePrinter table({"triples", "1t (ms)", "2t (ms)", "4t (ms)", "8t (ms)",
                      "speedup@4", "equal"});
  for (uint64_t scale : BenchScales()) {
    const std::string input = io::NTriplesWriter::ToString(CachedBsbm(scale));
    LoadRun ref;
    run_once(input, 1, &ref);

    std::vector<std::string> row = {Num(ref.g.NumTriples())};
    double at1 = 0.0, at4 = 0.0;
    bool equal = ref.ok;
    for (uint32_t threads : kSweepThreads) {
      LoadRun par;
      best_of_two(input, threads, &par);
      json->RecordLoad("load_p" + std::to_string(threads), scale, par.total,
                       threads, par.stats.chunks, par.stats.parse_seconds,
                       par.stats.intern_seconds, par.freeze_seconds);
      row.push_back(FormatDouble(par.total * 1e3, 1));
      if (threads == 1) at1 = par.total;
      if (threads == 4) at4 = par.total;
      // Byte-identity: same triples with the same ids in the same insertion
      // order, same dictionary size, same frozen SPO permutation.
      equal = equal && par.ok && par.g.data() == ref.g.data() &&
              par.g.types() == ref.g.types() &&
              par.g.schema() == ref.g.schema() &&
              par.g.dict().size() == ref.g.dict().size() &&
              par.spo == ref.spo;
    }
    row.push_back(FormatDouble(at1 / at4, 2) + "x");
    row.push_back(equal ? "yes" : "NO (bug!)");
    *all_equal = *all_equal && equal;
    table.AddRow(row);
  }
  table.Print(std::cout,
              "Parallel ingestion: chunked parse + dict merge + Freeze");
}

void PrintMaintenance() {
  // Streaming maintenance: amortized cost per inserted triple.
  TablePrinter stream({"triples", "maintainer total (ms)", "ns/triple",
                       "snapshot (ms)"});
  for (uint64_t scale : BenchScales()) {
    const Graph& g = CachedBsbm(scale);
    Timer t;
    summary::WeakSummaryMaintainer maintainer(g.dict_ptr());
    g.ForEachTriple(
        [&](const Triple& triple) { maintainer.AddTriple(triple); });
    double feed = t.ElapsedSeconds();
    Timer ts;
    auto snap = maintainer.Snapshot();
    double snap_s = ts.ElapsedSeconds();
    benchmark::DoNotOptimize(snap);
    stream.AddRow({Num(g.NumTriples()), FormatDouble(feed * 1e3, 1),
                   FormatDouble(feed / static_cast<double>(g.NumTriples()) *
                                    1e9,
                                0),
                   FormatDouble(snap_s * 1e3, 2)});
  }
  stream.Print(std::cout, "Streaming maintenance cost (insert-only)");
}

bool PrintParallel() {
  bench::BenchJson json("bench_parallel");
  // Interpretation context: speedups are bounded by the cores of the
  // machine that produced the file (per-row threads_effective records what
  // each measurement actually ran with).
  json.MetaInt("hardware_concurrency", std::thread::hardware_concurrency());
  bool all_equal = true;
  PrintParallelLoad(&json, &all_equal);
  PrintParallelWeakPartitionOnly(&json, &all_equal);
  PrintParallelQuotient(&json, &all_equal);
  PrintParallelPipeline(&json, &all_equal);
  PrintParallelBisimulation(&json, &all_equal);
  PrintMaintenance();
  const char* path = std::getenv("RDFSUM_BENCH_JSON");
  std::string out = path != nullptr ? path : "BENCH_parallel.json";
  bool wrote = json.WriteFile(out);
  if (wrote) {
    std::cout << "wrote " << out << "\n";
  } else {
    // Failing loudly matters: CI's quotient gate reads this file next and
    // would otherwise silently validate a stale committed copy.
    std::cerr << "failed to write " << out << "\n";
  }
  if (!all_equal) {
    std::cerr << "BUG: a parallel path diverged from its one-thread "
                 "reference (see the 'equal' columns above)\n";
  }
  std::cout.flush();
  return all_equal && wrote;
}

void BM_ParallelWeak(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  summary::SummaryOptions options;
  options.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto r = Summarize(g, SummaryKind::kWeak, options);
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelWeak)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_ParallelBisimulation(benchmark::State& state) {
  const Graph& g = CachedBsbm(250'000);
  summary::SummaryOptions options;
  options.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto r = Summarize(g, SummaryKind::kBisimulation, options);
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelBisimulation)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_MaintainerInsert(benchmark::State& state) {
  const Graph& g = CachedBsbm(100'000);
  for (auto _ : state) {
    summary::WeakSummaryMaintainer maintainer(g.dict_ptr());
    g.ForEachTriple(
        [&](const Triple& triple) { maintainer.AddTriple(triple); });
    benchmark::DoNotOptimize(maintainer);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.NumTriples()));
}
BENCHMARK(BM_MaintainerInsert)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rdfsum

int main(int argc, char** argv) {
  // A divergence across thread counts is a correctness bug, not a perf
  // datapoint: fail the run so CI's bench smoke gates on it.
  if (!rdfsum::PrintParallel()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
