#include "query/evaluator.h"

#include <cassert>
#include <utility>

namespace rdfsum::query {

BgpEvaluator::BgpEvaluator(const Graph& g, EvaluatorOptions options)
    : dict_(&g.dict()), options_(options) {
  g.ForEachTriple([&](const Triple& t) { table_.Append(t); });
  table_.Freeze();
}

BgpEvaluator::BgpEvaluator(const Dictionary& dict, store::TripleTable table,
                           EvaluatorOptions options)
    : dict_(&dict), options_(options), table_(std::move(table)) {
  assert(table_.frozen() && "store-backed evaluation requires a frozen table");
}

QueryPlan BgpEvaluator::Plan(const BgpQuery& q) const {
  return Plan(q, options_.planner);
}

QueryPlan BgpEvaluator::Plan(const BgpQuery& q, PlannerMode mode) const {
  return BuildQueryPlan(q, *dict_, table_, mode, options_.estimator);
}

StatusOr<std::unique_ptr<Cursor>> BgpEvaluator::Open(
    const BgpQuery& q, CursorOptions options) const {
  return Open(q, options_.planner, options);
}

StatusOr<std::unique_ptr<Cursor>> BgpEvaluator::Open(
    const BgpQuery& q, PlannerMode mode, CursorOptions options) const {
  return Open(q, Plan(q, mode), options);
}

StatusOr<std::unique_ptr<Cursor>> BgpEvaluator::Open(
    const BgpQuery& q, const QueryPlan& plan, CursorOptions options) const {
  RDFSUM_ASSIGN_OR_RETURN(std::vector<uint32_t> head,
                          ResolveDistinguished(q, plan.compiled));
  return CompileQueryTree(table_, plan, head, options).root;
}

Row BgpEvaluator::Decode(const IdRow& row) const {
  Row out;
  out.reserve(row.size());
  for (TermId id : row) out.push_back(dict_->Decode(id));
  return out;
}

bool BgpEvaluator::ExistsMatch(const BgpQuery& q) const {
  // First-match semantics: never pay a hash build for a single pull — a
  // nested-loop probe finds the first embedding in O(log n).
  ExecutorOptions options;
  options.hash_join = HashJoinMode::kNever;
  CursorTree tree = CompileEmbeddingTree(table_, Plan(q), options);
  IdRow row;
  return tree.root->Next(&row);
}

StatusOr<std::vector<Row>> BgpEvaluator::Evaluate(const BgpQuery& q,
                                                  size_t limit) const {
  return Evaluate(q, limit, options_.planner);
}

StatusOr<std::vector<Row>> BgpEvaluator::Evaluate(const BgpQuery& q,
                                                  size_t limit,
                                                  PlannerMode mode) const {
  CursorOptions options;
  options.limit = limit;
  return Evaluate(q, options, mode);
}

StatusOr<std::vector<Row>> BgpEvaluator::Evaluate(
    const BgpQuery& q, const CursorOptions& options) const {
  return Evaluate(q, options, options_.planner);
}

StatusOr<std::vector<Row>> BgpEvaluator::Evaluate(const BgpQuery& q,
                                                  const CursorOptions& options,
                                                  PlannerMode mode) const {
  RDFSUM_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor,
                          Open(q, mode, options));
  std::vector<Row> rows;
  IdRow row;
  while (cursor->Next(&row)) rows.push_back(Decode(row));
  // A false Next() is exhaustion or failure; the cursor's status says which.
  RDFSUM_RETURN_IF_ERROR(cursor->status());
  return rows;
}

uint64_t BgpEvaluator::CountEmbeddings(const BgpQuery& q) const {
  CursorTree tree = CompileEmbeddingTree(table_, Plan(q));
  IdRow row;
  while (tree.root->Next(&row)) {
  }
  return tree.root->rows_produced();
}

StatusOr<Explanation> BgpEvaluator::Explain(const BgpQuery& q) const {
  return Explain(q, options_.planner);
}

StatusOr<Explanation> BgpEvaluator::Explain(const BgpQuery& q,
                                            PlannerMode mode) const {
  Explanation out;
  out.plan = Plan(q, mode);
  RDFSUM_ASSIGN_OR_RETURN(std::vector<uint32_t> head,
                          ResolveDistinguished(q, out.plan.compiled));
  // No limit: Explain reports the true cardinality of every operator.
  CursorTree tree = CompileQueryTree(table_, out.plan, head);
  IdRow row;
  while (tree.root->Next(&row)) {
  }
  RDFSUM_RETURN_IF_ERROR(tree.root->status());
  out.actual_rows.reserve(tree.step_cursors.size());
  for (const Cursor* step : tree.step_cursors) {
    out.actual_rows.push_back(step->rows_produced());
  }
  out.num_embeddings = tree.embeddings->rows_produced();
  out.num_result_rows = tree.distinct->rows_produced();
  tree.root->CollectOperators(&out.operators);
  return out;
}

}  // namespace rdfsum::query
