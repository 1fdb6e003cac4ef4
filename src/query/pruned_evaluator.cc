#include "query/pruned_evaluator.h"

#include "query/rbgp.h"
#include "reasoner/saturation.h"
#include "summary/summarizer.h"

namespace rdfsum::query {

SummaryPrunedEvaluator::SummaryPrunedEvaluator(const Graph& g,
                                               const Options& options) {
  // The summary only prunes and the estimator only orders joins, so a
  // summarization that fails (an injected quotient:shard fault) degrades to
  // unpruned, greedy-equivalent evaluation with the same rows, as the
  // daemon's estimator does; it never fails a query.
  StatusOr<summary::SummaryResult> h = summary::TrySummarize(g, options.kind);
  const bool wants_estimator = options.planner == PlannerMode::kSummary;
  if (options.saturate) {
    graph_ = reasoner::Saturate(g);
    if (h.ok()) summary_ = reasoner::Saturate(h->graph);
    if (wants_estimator) {
      // The estimator must model the graph actually queried: `h` describes
      // the unsaturated input, so summarize the saturation itself.
      StatusOr<summary::SummaryResult> model =
          summary::TrySummarize(graph_, options.kind);
      if (model.ok()) estimator_.emplace(graph_, *model);
    }
  } else {
    graph_ = g.Clone();
    // `h` is a summary of exactly graph_; reuse it before its graph is
    // moved into the pruning slot.
    if (wants_estimator && h.ok()) estimator_.emplace(graph_, *h);
    if (h.ok()) summary_ = std::move(h->graph);
  }
  EvaluatorOptions graph_options;
  graph_options.planner = options.planner;
  graph_options.estimator = estimator();
  on_graph_.emplace(graph_, graph_options);
  if (h.ok()) on_summary_.emplace(summary_);
}

bool SummaryPrunedEvaluator::SummaryAdmits(const BgpQuery& q) {
  // Proposition 1 covers RBGP queries only; other shapes bypass the filter,
  // and so does every query when no summary could be built.
  if (!on_summary_ || !ValidateRbgp(q).ok()) return true;
  return on_summary_->ExistsMatch(q);
}

bool SummaryPrunedEvaluator::ExistsMatch(const BgpQuery& q) {
  ++stats_.exists_checks;
  if (!SummaryAdmits(q)) {
    ++stats_.pruned_by_summary;
    return false;
  }
  ++stats_.graph_probes;
  return on_graph_->ExistsMatch(q);
}

StatusOr<std::unique_ptr<Cursor>> SummaryPrunedEvaluator::Open(
    const BgpQuery& q, CursorOptions options) {
  ++stats_.exists_checks;
  if (!SummaryAdmits(q)) {
    ++stats_.pruned_by_summary;
    // Keep the contract data-independent: a malformed head errors whether
    // or not the summary happened to prune this query. Compilation alone
    // resolves the head — no need to run the planner on the fast path.
    CompiledBgp compiled = CompileBgp(q, graph_.dict());
    RDFSUM_ASSIGN_OR_RETURN(std::vector<uint32_t> head,
                            ResolveDistinguished(q, compiled));
    return MakeEmptyCursor(head.size());
  }
  ++stats_.graph_probes;
  return on_graph_->Open(q, options);
}

Row SummaryPrunedEvaluator::Decode(const IdRow& row) const {
  return on_graph_->Decode(row);
}

StatusOr<std::vector<Row>> SummaryPrunedEvaluator::Evaluate(const BgpQuery& q,
                                                            size_t limit) {
  CursorOptions options;
  options.limit = limit;
  RDFSUM_ASSIGN_OR_RETURN(std::unique_ptr<Cursor> cursor, Open(q, options));
  std::vector<Row> rows;
  IdRow row;
  while (cursor->Next(&row)) rows.push_back(Decode(row));
  RDFSUM_RETURN_IF_ERROR(cursor->status());
  return rows;
}

StatusOr<Explanation> SummaryPrunedEvaluator::Explain(const BgpQuery& q) {
  ++stats_.exists_checks;
  if (!SummaryAdmits(q)) {
    ++stats_.pruned_by_summary;
    Explanation out;
    out.plan = on_graph_->Plan(q);
    // Keep the contract data-independent: a malformed head is an error
    // whether or not the summary happened to prune this query.
    auto head = ResolveDistinguished(q, out.plan.compiled);
    if (!head.ok()) return head.status();
    out.actual_rows.assign(out.plan.steps.size(), 0);
    out.pruned_by_summary = true;
    return out;
  }
  ++stats_.graph_probes;
  return on_graph_->Explain(q);
}

}  // namespace rdfsum::query
