// The benchmark's seeded inputs: the BSBM graph, the anchored cheap-query
// pool (a few hot shapes plus a tail of more distinct shapes than the
// daemon's plan cache holds), the unanchored heavy queries, and the
// in-process reference answers every served response is checked against.
#ifndef RDFSUM_PERFBENCH_QUERIES_H_
#define RDFSUM_PERFBENCH_QUERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "query/evaluator.h"
#include "rdf/graph.h"
#include "util/random.h"
#include "util/statusor.h"

namespace perf {

/// Hot shapes carry this share of the cheap stream; the tail the rest.
inline constexpr double kHotShare = 0.75;
inline constexpr size_t kHotShapes = 4;
/// Twice the daemon's default plan_cache_capacity (256), so the tail
/// keeps evicting and the miss path runs.
inline constexpr size_t kTailShapes = 512;
/// Distinct cheap query texts per run (shape x rotating anchor).
inline constexpr size_t kHotPoolEntries = 1024;
inline constexpr size_t kTailPoolEntries = 3072;

struct CheapQuery {
  std::string text;
  std::string shape;  // query::NormalizedBgpShape
  Expected expected;
};

/// The BSBM graph of about `triples` triples for `seed`.
rdfsum::Graph MakeBsbmGraph(uint64_t triples, uint64_t seed,
                            uint64_t* num_products);

/// The cheap pool: kHotPoolEntries hot entries first, then the tail.
/// Shapes are fixed; the product anchors rotate with `seed`.
std::vector<CheapQuery> MakeCheapPool(uint64_t seed, uint64_t num_products);

/// Draws the next cheap request: a hot entry with probability kHotShare,
/// else a tail entry, uniformly within each part.
size_t NextCheap(rdfsum::Random* rng, size_t pool_size);

/// The heavy lane: unanchored snowflakes and fat stars, full drains.
std::vector<std::string> HeavyQueries();

/// Drains `text` in-process on `ev` (greedy plan; results are planner
/// invariant) and digests its rows the way the client does.
rdfsum::StatusOr<Expected> ComputeExpected(
    const rdfsum::query::BgpEvaluator& ev, const std::string& text);

}  // namespace perf

#endif  // RDFSUM_PERFBENCH_QUERIES_H_
