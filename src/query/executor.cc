#include "query/executor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel_for.h"

namespace rdfsum::query {

namespace {

/// One join step (every plan step after the driving scan) as the compile
/// decided it. A null build means an index nested-loop join.
struct JoinStep {
  CompiledPattern pat;
  std::string label;
  std::shared_ptr<HashJoinBuild> build;
};

/// The per-step compile decisions shared by the sequential tree and the
/// morsel pipelines: each join step's key variables (its variables an
/// earlier step already bound, deduplicated in slot order), whether it
/// hashes, and the compile-time degrade — the plan records the exact
/// build-side size, so a hash join that cannot fit the memory budget is
/// compiled as a nested-loop join up front rather than discovering it
/// mid-build. Hash steps get a build of up to `parallelism` partitions.
std::vector<JoinStep> CompileJoinSteps(const store::TripleTable& table,
                                       const QueryPlan& plan,
                                       const ExecutorOptions& options,
                                       uint32_t parallelism) {
  const CompiledBgp& c = plan.compiled;
  std::vector<bool> bound(c.var_names.size(), false);
  auto mark_bound = [&bound](const CompiledPattern& pat) {
    for (const CompiledSlot* sl : {&pat.s, &pat.p, &pat.o}) {
      if (sl->is_var) bound[sl->var] = true;
    }
  };
  mark_bound(c.patterns[plan.steps[0].pattern]);
  std::vector<JoinStep> steps;
  for (size_t i = 1; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    const CompiledPattern& pat = c.patterns[step.pattern];
    std::vector<uint32_t> key_vars;
    for (const CompiledSlot* sl : {&pat.s, &pat.p, &pat.o}) {
      if (sl->is_var && bound[sl->var] &&
          std::find(key_vars.begin(), key_vars.end(), sl->var) ==
              key_vars.end()) {
        key_vars.push_back(sl->var);
      }
    }
    bool hash = !key_vars.empty() &&
                (options.hash_join == HashJoinMode::kAlways ||
                 (options.hash_join == HashJoinMode::kFromPlan &&
                  step.use_hash_join));
    if (hash && options.exec != nullptr &&
        options.exec->WouldExceedMemory(static_cast<uint64_t>(
            step.estimated_build_rows * kHashJoinBuildBytesPerRow))) {
      hash = false;
    }
    JoinStep s{pat, step.pattern_text, nullptr};
    if (hash) {
      s.build = MakeHashJoinBuild(table, pat, std::move(key_vars),
                                  options.exec, parallelism);
    }
    steps.push_back(std::move(s));
    mark_bound(pat);
  }
  return steps;
}

std::unique_ptr<Cursor> MakeJoin(std::unique_ptr<Cursor> input,
                                 const store::TripleTable& table,
                                 const JoinStep& s, util::ExecContext* exec) {
  if (s.build != nullptr) {
    return MakeHashJoinProbeCursor(std::move(input), table, s.build, s.label,
                                   exec);
  }
  return MakeIndexNestedLoopJoinCursor(std::move(input), table, s.pat, s.label,
                                       exec);
}

/// Compiles the morsel-parallel embeddings root, or nullptr when the query
/// should run sequentially: parallelism not requested, the driving scan is
/// under the gate, or fewer than two workers resolve. Each morsel pipeline
/// is a slice scan followed by the same join steps as the sequential tree,
/// so the ordered merge of morsel outputs is the sequential stream.
std::unique_ptr<Cursor> TryCompileParallelEmbeddings(
    const store::TripleTable& table, const QueryPlan& plan,
    const ExecutorOptions& options, size_t num_vars) {
  if (options.parallelism == 1) return nullptr;
  const CompiledPattern& first = plan.compiled.patterns[plan.steps[0].pattern];
  // The gate reads the *exact* match count (O(log n) index-range length),
  // not an estimate: small probes must reliably stay sequential.
  const uint64_t driving = table.Count(PatternConstants(first));
  const uint64_t gate = options.min_parallel_rows != 0
                            ? options.min_parallel_rows
                            : kParallelMinScanRows;
  if (driving < gate) return nullptr;
  const uint64_t morsel_rows =
      options.morsel_rows != 0 ? options.morsel_rows : kMorselRows;
  const uint64_t num_morsels = (driving + morsel_rows - 1) / morsel_rows;
  const uint32_t threads =
      util::ResolveThreadCount(options.parallelism, num_morsels);
  if (threads < 2) return nullptr;

  // Shared (immutably, once built) by every morsel pipeline.
  auto steps = std::make_shared<const std::vector<JoinStep>>(
      CompileJoinSteps(table, plan, options, threads));
  ParallelGatherSpec spec;
  for (const JoinStep& s : *steps) {
    if (s.build != nullptr) spec.builds.push_back(s.build);
  }
  spec.total_rows = driving;
  spec.morsel_rows = options.morsel_rows;  // 0 resolves inside the gather
  spec.width = num_vars;
  spec.num_threads = threads;
  spec.label = plan.steps[0].pattern_text;
  spec.exec = options.exec;
  spec.pipeline = [&table, steps, first, num_vars,
                   first_label = plan.steps[0].pattern_text,
                   exec = options.exec](size_t begin, size_t end) {
    std::unique_ptr<Cursor> cur = MakeIndexScanSliceCursor(
        table, first, num_vars, begin, end, first_label, exec);
    for (const JoinStep& s : *steps) {
      cur = MakeJoin(std::move(cur), table, s, exec);
    }
    return cur;
  };
  return MakeParallelGatherCursor(std::move(spec));
}

}  // namespace

CursorTree CompileEmbeddingTree(const store::TripleTable& table,
                                const QueryPlan& plan,
                                const ExecutorOptions& options) {
  CursorTree tree;
  const CompiledBgp& c = plan.compiled;
  const size_t num_vars = c.var_names.size();
  if (c.impossible) {
    tree.root = MakeEmptyCursor(num_vars);
    tree.embeddings = tree.root.get();
    return tree;
  }
  if (plan.steps.empty()) {
    tree.root = MakeSingletonCursor(num_vars);
    tree.embeddings = tree.root.get();
    return tree;
  }
  std::unique_ptr<Cursor> cur =
      TryCompileParallelEmbeddings(table, plan, options, num_vars);
  if (cur == nullptr) {
    const PlanStep& first = plan.steps[0];
    cur = MakeIndexScanCursor(table, c.patterns[first.pattern], num_vars,
                              first.pattern_text, options.exec);
    tree.step_cursors.push_back(cur.get());
    for (const JoinStep& s : CompileJoinSteps(table, plan, options, 1)) {
      cur = MakeJoin(std::move(cur), table, s, options.exec);
      tree.step_cursors.push_back(cur.get());
    }
  }
  // Parallel trees leave step_cursors empty; see the header note.
  tree.embeddings = cur.get();
  tree.root = std::move(cur);
  return tree;
}

CursorTree CompileQueryTree(const store::TripleTable& table,
                            const QueryPlan& plan,
                            const std::vector<uint32_t>& head,
                            const ExecutorOptions& options) {
  CursorTree tree = CompileEmbeddingTree(table, plan, options);
  std::string head_label;
  for (uint32_t v : head) {
    if (!head_label.empty()) head_label += ' ';
    head_label += '?';
    head_label += plan.compiled.var_names[v];
  }
  std::unique_ptr<Cursor> cur =
      MakeProjectCursor(std::move(tree.root), head, std::move(head_label));
  cur = MakeDistinctCursor(std::move(cur));
  tree.distinct = cur.get();
  if (options.limit != SIZE_MAX || options.offset != 0) {
    cur = MakeLimitOffsetCursor(std::move(cur), options.limit,
                                options.offset);
  }
  // The governor sits above LimitOffset so the row budget meters answers
  // actually delivered, not rows consumed by OFFSET.
  if (options.exec != nullptr) {
    cur = MakeGovernedCursor(std::move(cur), options.exec);
  }
  tree.root = std::move(cur);
  return tree;
}

}  // namespace rdfsum::query
