// Differential wall for the sharded quotient construction: at every
// SummaryOptions::num_threads, 1 included, the summary must be BYTE-identical
// to ReferenceQuotient — the literal Definition-9 walk over the pre-substrate
// partitions — with the same minted urn:rdfsum: ids, the same triple
// insertion order, the same serialized N-Triples and node_map, for every
// summary kind, dataset shape, raw/saturated input, and thread count.
// Minting advances the shared dictionary's counter, so every comparison
// builds the input graph twice (identical construction => identical TermIds)
// and summarizes each copy once.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "gen/bsbm.h"
#include "gen/hetero.h"
#include "gen/lubm.h"
#include "gen/paper_example.h"
#include "io/ntriples_writer.h"
#include "reasoner/saturation.h"
#include "summary/node_partition.h"
#include "summary/property_checks.h"
#include "summary/reference_partition.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

// 1 is one shard run inline; 2/4 split evenly, 7 leaves ragged shard
// ranges, 8 exceeds the class/type counts of the small datasets, 0 = all
// hardware threads.
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 7, 8, 0};

constexpr SummaryKind kAllKinds[] = {
    SummaryKind::kWeak,         SummaryKind::kStrong,
    SummaryKind::kTypedWeak,    SummaryKind::kTypedStrong,
    SummaryKind::kTypeBased,    SummaryKind::kBisimulation,
};

enum class Dataset { kBsbm, kLubm, kPaper, kHetero };

const char* DatasetName(Dataset d) {
  switch (d) {
    case Dataset::kBsbm: return "bsbm";
    case Dataset::kLubm: return "lubm";
    case Dataset::kPaper: return "paper";
    case Dataset::kHetero: return "hetero";
  }
  return "?";
}

/// Deterministic generator: two calls build byte-identical graphs (same
/// dictionary ids, same triple order).
Graph MakeGraph(Dataset d, bool saturated) {
  Graph g;
  switch (d) {
    case Dataset::kBsbm: {
      gen::BsbmOptions opt;
      opt.num_products = 60;
      g = gen::GenerateBsbm(opt);
      break;
    }
    case Dataset::kLubm: {
      gen::LubmOptions opt;
      opt.num_universities = 1;
      g = gen::GenerateLubm(opt);
      break;
    }
    case Dataset::kPaper:
      g = gen::BuildFigure2().graph;
      break;
    case Dataset::kHetero: {
      gen::HeteroOptions opt;
      opt.seed = 13;
      opt.num_nodes = 150;
      opt.num_properties = 11;
      opt.type_probability = 0.35;
      g = gen::GenerateHetero(opt);
      break;
    }
  }
  return saturated ? reasoner::Saturate(g) : g;
}

/// The pre-substrate partition of `kind` under the SummaryOptions defaults.
NodePartition ReferencePartition(const Graph& g, SummaryKind kind) {
  const SummaryOptions defaults;
  switch (kind) {
    case SummaryKind::kWeak:
      return ReferenceWeakPartition(g);
    case SummaryKind::kStrong:
      return ReferenceStrongPartition(g);
    case SummaryKind::kTypedWeak:
      return ReferenceTypedWeakPartition(g, defaults.typed_mode);
    case SummaryKind::kTypedStrong:
      return ReferenceTypedStrongPartition(g, defaults.typed_mode);
    case SummaryKind::kTypeBased:
      return ReferenceTypePartition(g);
    case SummaryKind::kBisimulation:
      return ReferenceBisimulationPartition(
          g, defaults.bisimulation_depth, defaults.bisimulation_uses_types);
  }
  throw std::logic_error("unknown summary kind");
}

/// The oracle summary of a fresh copy of the dataset.
SummaryResult ReferenceSummary(Dataset d, bool saturated, SummaryKind kind) {
  Graph g = MakeGraph(d, saturated);
  return ReferenceQuotient(g, ReferencePartition(g, kind), kind).value();
}

class ParallelQuotientWallTest
    : public ::testing::TestWithParam<std::tuple<Dataset, bool>> {};

TEST_P(ParallelQuotientWallTest, ByteIdenticalAcrossKindsAndThreadCounts) {
  auto [dataset, saturated] = GetParam();
  for (SummaryKind kind : kAllKinds) {
    SummaryResult ref = ReferenceSummary(dataset, saturated, kind);
    const std::string ref_nt = io::NTriplesWriter::ToString(ref.graph);

    for (uint32_t threads : kThreadCounts) {
      Graph g = MakeGraph(dataset, saturated);
      SummaryOptions options;
      options.num_threads = threads;
      options.record_members = true;
      SummaryResult got = Summarize(g, kind, options);
      const std::string label = std::string(SummaryKindName(kind)) + " t" +
                                std::to_string(threads);
      // Serialized summary (data, type, and schema insertion order plus
      // minted ids) is the byte-identity contract.
      EXPECT_EQ(ref_nt, io::NTriplesWriter::ToString(got.graph)) << label;
      // The representation maps agree id-for-id too.
      EXPECT_EQ(ref.node_map, got.node_map) << label;
      EXPECT_EQ(ref.stats.num_all_nodes, got.stats.num_all_nodes) << label;
      EXPECT_EQ(ref.stats.num_all_edges, got.stats.num_all_edges) << label;
      EXPECT_TRUE(CheckHomomorphism(g, got).ok()) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndSaturation, ParallelQuotientWallTest,
    ::testing::Combine(::testing::Values(Dataset::kBsbm, Dataset::kLubm,
                                         Dataset::kPaper, Dataset::kHetero),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DatasetName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_saturated" : "_raw");
    });

// The explicit-partition entry point shards identically: quotient an
// externally computed partition at every thread count against the oracle
// walk over the same partition.
TEST(ParallelQuotientTest, ExplicitPartitionByteIdentical) {
  Graph g_ref = MakeGraph(Dataset::kHetero, /*saturated=*/false);
  SummaryResult ref =
      ReferenceQuotient(g_ref, ReferenceWeakPartition(g_ref),
                        SummaryKind::kWeak)
          .value();
  const std::string ref_nt = io::NTriplesWriter::ToString(ref.graph);
  for (uint32_t threads : kThreadCounts) {
    Graph g = MakeGraph(Dataset::kHetero, /*saturated=*/false);
    NodePartition part = ComputeWeakPartition(g);
    SummaryOptions options;
    options.num_threads = threads;
    SummaryResult got =
        QuotientByPartition(g, part, SummaryKind::kWeak, options).value();
    EXPECT_EQ(ref_nt, io::NTriplesWriter::ToString(got.graph))
        << "threads " << threads;
    EXPECT_EQ(ref.node_map, got.node_map) << "threads " << threads;
  }
}

TEST(ParallelQuotientTest, RecordMembersMatchesSequential) {
  Graph g_seq = MakeGraph(Dataset::kBsbm, /*saturated=*/false);
  SummaryOptions seq_options;
  seq_options.record_members = true;
  SummaryResult seq = Summarize(g_seq, SummaryKind::kStrong, seq_options);

  Graph g_par = MakeGraph(Dataset::kBsbm, /*saturated=*/false);
  SummaryOptions par_options = seq_options;
  par_options.num_threads = 4;
  SummaryResult par = Summarize(g_par, SummaryKind::kStrong, par_options);
  ASSERT_EQ(seq.members.size(), par.members.size());
  for (const auto& [node, members] : seq.members) {
    auto it = par.members.find(node);
    ASSERT_NE(it, par.members.end());
    EXPECT_EQ(members, it->second);
  }
}

TEST(ParallelQuotientTest, EmptyGraphAllThreadCounts) {
  for (uint32_t threads : kThreadCounts) {
    Graph g;
    SummaryOptions options;
    options.num_threads = threads;
    SummaryResult r = Summarize(g, SummaryKind::kWeak, options);
    EXPECT_TRUE(r.graph.Empty()) << "threads " << threads;
  }
}

TEST(ParallelQuotientTest, MoreThreadsThanTriples) {
  Graph g;
  Dictionary& d = g.dict();
  g.Add({d.EncodeIri("a"), d.EncodeIri("p"), d.EncodeIri("b")});
  g.Add({d.EncodeIri("a"), g.vocab().rdf_type, d.EncodeIri("C")});
  SummaryOptions options;
  options.num_threads = 64;
  SummaryResult r = Summarize(g, SummaryKind::kWeak, options);
  EXPECT_EQ(r.stats.num_data_edges, 1u);
  EXPECT_EQ(r.stats.num_type_edges, 1u);
}

// A partition that misses graph nodes returns kInvalidArgument at one and at
// several threads, as the oracle walk does (the library does not throw).
TEST(ParallelQuotientTest, IncompletePartitionReturnsInvalidArgument) {
  Graph g = MakeGraph(Dataset::kPaper, /*saturated=*/false);
  NodePartition partial;
  partial.num_classes = 1;  // covers no node at all
  SummaryOptions options;
  options.num_threads = 4;
  auto par = QuotientByPartition(g, partial, SummaryKind::kWeak, options);
  ASSERT_FALSE(par.ok());
  EXPECT_TRUE(par.status().IsInvalidArgument()) << par.status().ToString();
  auto seq = QuotientByPartition(g, partial, SummaryKind::kWeak, {});
  ASSERT_FALSE(seq.ok());
  EXPECT_TRUE(seq.status().IsInvalidArgument()) << seq.status().ToString();
  auto ref = ReferenceQuotient(g, partial, SummaryKind::kWeak);
  ASSERT_FALSE(ref.ok());
  EXPECT_TRUE(ref.status().IsInvalidArgument()) << ref.status().ToString();
}

}  // namespace
}  // namespace rdfsum::summary
