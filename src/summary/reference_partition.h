#ifndef RDFSUM_SUMMARY_REFERENCE_PARTITION_H_
#define RDFSUM_SUMMARY_REFERENCE_PARTITION_H_

#include <cstdint>

#include "rdf/graph.h"
#include "summary/node_partition.h"
#include "summary/summary.h"
#include "util/statusor.h"

namespace rdfsum::summary {

/// Pre-substrate reference implementations of every partition kind, kept
/// verbatim from before the dense-ID refactor (hash-map-per-endpoint
/// indexing). They are the differential-testing oracle for the DenseGraph
/// substrate — each Compute*Partition must produce a byte-identical
/// NodePartition (same class_of, same num_classes) — and the "before" side
/// of bench_substrate's before/after measurement. Not for production use.
NodePartition ReferenceWeakPartition(const Graph& g);
NodePartition ReferenceStrongPartition(const Graph& g);
NodePartition ReferenceTypePartition(const Graph& g);
NodePartition ReferenceTypedWeakPartition(const Graph& g,
                                          TypedSummaryMode mode);
NodePartition ReferenceTypedStrongPartition(const Graph& g,
                                            TypedSummaryMode mode);
NodePartition ReferenceBisimulationPartition(const Graph& g, uint32_t depth,
                                             bool use_types);

/// The literal Definition-9 quotient: one minted node per class in class-id
/// order, then every data triple, type triple and schema triple of `g`, in
/// that order, mapped through `part` and added one by one (Graph::Add keeps
/// the first occurrence). The oracle QuotientByPartition's sharded build
/// must reproduce byte for byte (serialized graph and node_map); fills the
/// graph, node_map and stats. A node `part` misses returns kInvalidArgument.
StatusOr<SummaryResult> ReferenceQuotient(const Graph& g,
                                          const NodePartition& part,
                                          SummaryKind kind);

}  // namespace rdfsum::summary

#endif  // RDFSUM_SUMMARY_REFERENCE_PARTITION_H_
