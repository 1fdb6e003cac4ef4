#ifndef RDFSUM_QUERY_EXECUTOR_H_
#define RDFSUM_QUERY_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "query/cursor.h"
#include "query/plan.h"
#include "store/triple_table.h"
#include "util/exec_context.h"

namespace rdfsum::query {

/// Whether the executor honors the planner's hash-join flags. kNever and
/// kAlways exist for differential tests and benchmarks (kAlways hashes
/// every step with at least one join variable, budget ignored).
enum class HashJoinMode : uint8_t { kFromPlan, kNever, kAlways };

/// Fan-out gate: driving scans below this many rows are never split —
/// morsel scheduling overhead would dominate, and a small probe side means
/// the query is cheap anyway. Two morsels' worth, so an engaged fan-out
/// always has at least two units of independent work.
inline constexpr uint64_t kParallelMinScanRows = 2 * kMorselRows;

struct ExecutorOptions {
  /// Applied after projection + dedup: at most `limit` distinct rows are
  /// produced, and the tree stops pulling once they are (early exit).
  size_t limit = SIZE_MAX;
  /// Distinct rows skipped before the first emitted one.
  size_t offset = 0;
  HashJoinMode hash_join = HashJoinMode::kFromPlan;
  /// Optional governance: deadline, cancellation, row budget, memory
  /// budget. Borrowed — must outlive the compiled tree. When set, every
  /// scan/join polls it, the root charges the row budget per answer, and
  /// hash joins fit themselves into (or degrade under) the memory budget.
  util::ExecContext* exec = nullptr;
  /// Intra-query fan-out: morsel workers for the join pipeline. 1 (the
  /// default) compiles the classic sequential tree; 0 means hardware
  /// concurrency; k>=2 asks for k workers (granted even above the core
  /// count — the shared pool multiplexes). Fan-out only engages when the
  /// driving scan clears the gate below; the result stream is byte-identical
  /// to sequential either way, at every thread count.
  uint32_t parallelism = 1;
  /// Gate override: minimum exact driving-scan rows before fan-out engages.
  /// 0 means kParallelMinScanRows. Tests lower it to force fan-out on small
  /// fixtures.
  uint64_t min_parallel_rows = 0;
  /// Morsel-size override; 0 means kMorselRows. Tests shrink it to get
  /// many-morsel schedules on small fixtures.
  uint64_t morsel_rows = 0;
};

/// The compiled operator tree plus non-owning handles into it, for reading
/// the per-operator counters after a drain (Explain). All raw pointers
/// alias nodes owned by `root`.
struct CursorTree {
  std::unique_ptr<Cursor> root;
  /// The scan/join operator of each plan step, parallel to plan.steps
  /// (empty for impossible or zero-pattern queries).
  std::vector<Cursor*> step_cursors;
  /// The deepest join operator — its rows-produced counter is the number of
  /// embeddings enumerated.
  Cursor* embeddings = nullptr;
  /// The Distinct operator when the tree projects; its counter is the
  /// number of distinct result rows. nullptr in embedding-only trees.
  Cursor* distinct = nullptr;
};

/// Compiles `plan` into the join pipeline only (no projection, no dedup;
/// limit and offset are ignored): the root enumerates embeddings of the
/// query body as full-width binding rows. Backbone of
/// ExistsMatch/CountEmbeddings. With options.exec, operators poll
/// governance, and a plan-chosen hash join whose predicted build state
/// (estimated_build_rows × kHashJoinBuildBytesPerRow) cannot fit the
/// remaining memory budget is compiled as a nested-loop join up front —
/// same rows, no doomed build.
///
/// When options.parallelism != 1, the driving scan clears the fan-out gate
/// (exact Count >= min_parallel_rows), and at least two workers resolve, the
/// embeddings root is a ParallelGather over per-morsel pipelines instead of
/// the sequential tree — same rows, same order, byte-identical. Parallel
/// trees leave step_cursors empty (morsel pipelines are transient); Explain
/// always compiles sequentially, so nothing reads them.
CursorTree CompileEmbeddingTree(const store::TripleTable& table,
                                const QueryPlan& plan,
                                const ExecutorOptions& options = {});

/// Compiles the full query tree: joins -> Project(head) -> Distinct ->
/// LimitOffset (the last only when limit/offset are set). The root yields
/// the query's distinct answer rows, head-ordered and deduplicated, in a
/// deterministic order; pulling stops early once the limit is reached.
/// Cursors copy what they need from `plan` (it may die) but borrow `table`.
CursorTree CompileQueryTree(const store::TripleTable& table,
                            const QueryPlan& plan,
                            const std::vector<uint32_t>& head,
                            const ExecutorOptions& options = {});

}  // namespace rdfsum::query

#endif  // RDFSUM_QUERY_EXECUTOR_H_
