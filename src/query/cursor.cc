#include "query/cursor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "util/fault_injection.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace rdfsum::query {
namespace {

constexpr TermId kUnbound = kInvalidTermId;

/// Per-cursor governance poll state. Expired() ticks once per candidate
/// triple and, every ExecContext::kCheckInterval ticks, refreshes *status
/// from the context; it returns true when the cursor must stop. A null
/// context never expires and costs one pointer test per candidate.
struct ExecPoll {
  util::ExecContext* ctx = nullptr;
  uint32_t ticks = 0;

  bool Expired(Status* status) {
    if (ctx == nullptr) return false;
    if ((++ticks & (util::ExecContext::kCheckInterval - 1)) != 0) return false;
    Status st = ctx->Check();
    if (st.ok()) return false;
    *status = std::move(st);
    return true;
  }
};

/// Binds `pat`'s variable slots from triple `t` into *row. Returns false on
/// a repeated-variable mismatch (?x p ?x with differing values); the row is
/// left partially written, so callers must re-copy their base row per
/// candidate triple. Positions the scan already pinned (constants, bound
/// variables instantiated into the pattern) bind as no-op equality checks.
bool BindTriple(const CompiledPattern& pat, const Triple& t, IdRow* row) {
  auto bind = [&](const CompiledSlot& s, TermId value) {
    if (!s.is_var) return true;
    TermId& slot = (*row)[s.var];
    if (slot == kUnbound) {
      slot = value;
      return true;
    }
    return slot == value;
  };
  return bind(pat.s, t.s) && bind(pat.p, t.p) && bind(pat.o, t.o);
}

/// The store pattern for `pat` under the bindings of `row`: constants plus
/// bound variables pin positions, unbound variables stay wildcards.
store::TriplePattern Instantiate(const CompiledPattern& pat,
                                 const IdRow& row) {
  store::TriplePattern q;
  auto fill = [&](const CompiledSlot& s) -> std::optional<TermId> {
    if (!s.is_var) return s.constant;
    TermId b = row[s.var];
    if (b != kUnbound) return b;
    return std::nullopt;
  };
  q.s = fill(pat.s);
  q.p = fill(pat.p);
  q.o = fill(pat.o);
  return q;
}

/// The pattern with only its constants bound — the hash-join build side.
store::TriplePattern ConstOnly(const CompiledPattern& pat) {
  store::TriplePattern q;
  if (!pat.s.is_var) q.s = pat.s.constant;
  if (!pat.p.is_var) q.p = pat.p.constant;
  if (!pat.o.is_var) q.o = pat.o.constant;
  return q;
}

class EmptyCursor final : public Cursor {
 public:
  explicit EmptyCursor(size_t width) : width_(width) {}
  bool Next(IdRow*) override { return false; }
  size_t width() const override { return width_; }
  std::string Describe() const override { return "EmptyResult"; }

 private:
  size_t width_;
};

class SingletonCursor final : public Cursor {
 public:
  explicit SingletonCursor(size_t width) : width_(width) {}
  bool Next(IdRow* row) override {
    if (done_) return false;
    done_ = true;
    row->assign(width_, kUnbound);
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return width_; }
  std::string Describe() const override { return "SingletonRow"; }

 private:
  size_t width_;
  bool done_ = false;
};

class IndexScanCursor final : public Cursor {
 public:
  /// [begin_offset, end_offset) restricts the scan to one morsel of the
  /// pattern's match range; (0, SIZE_MAX) is the full scan.
  IndexScanCursor(const store::TripleTable& table, const CompiledPattern& pat,
                  size_t num_vars, size_t begin_offset, size_t end_offset,
                  std::string label, util::ExecContext* exec)
      : pat_(pat),
        width_(num_vars),
        label_(std::move(label)),
        index_(store::TripleTable::ChooseIndex(ConstOnly(pat))),
        scan_(table.OpenScanSlice(ConstOnly(pat), begin_offset, end_offset)) {
    poll_.ctx = exec;
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    Triple t;
    while (scan_.Next(&t)) {
      if (poll_.Expired(&status_)) return false;
      row->assign(width_, kUnbound);
      if (BindTriple(pat_, t, row)) {
        ++rows_produced_;
        return true;
      }
    }
    return false;
  }
  size_t width() const override { return width_; }
  std::string Describe() const override {
    return "IndexScan[" + label_ + " @" + store::IndexKindName(index_) + "]";
  }

 private:
  CompiledPattern pat_;
  size_t width_;
  std::string label_;
  store::IndexKind index_;
  store::ScanCursor scan_;
  ExecPoll poll_;
};

class IndexNestedLoopJoinCursor final : public Cursor {
 public:
  IndexNestedLoopJoinCursor(std::unique_ptr<Cursor> input,
                            const store::TripleTable& table,
                            const CompiledPattern& pat, std::string label,
                            util::ExecContext* exec)
      : input_(std::move(input)),
        table_(table),
        pat_(pat),
        label_(std::move(label)) {
    poll_.ctx = exec;
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    for (;;) {
      if (inner_open_) {
        Triple t;
        while (scan_.Next(&t)) {
          if (poll_.Expired(&status_)) return false;
          *row = current_;
          if (BindTriple(pat_, t, row)) {
            ++rows_produced_;
            return true;
          }
        }
        inner_open_ = false;
      }
      if (!input_->Next(&current_)) {
        status_ = input_->status();
        return false;
      }
      scan_ = table_.OpenScan(Instantiate(pat_, current_));
      inner_open_ = true;
    }
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override {
    return "IndexNestedLoopJoin[" + label_ + "]";
  }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }
  const Cursor& input() const { return *input_; }

 private:
  std::unique_ptr<Cursor> input_;
  const store::TripleTable& table_;
  CompiledPattern pat_;
  std::string label_;
  IdRow current_;
  store::ScanCursor scan_;
  bool inner_open_ = false;
  ExecPoll poll_;
};

class ProjectCursor final : public Cursor {
 public:
  ProjectCursor(std::unique_ptr<Cursor> input, std::vector<uint32_t> head,
                std::string label)
      : input_(std::move(input)),
        head_(std::move(head)),
        label_(std::move(label)) {}

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (!input_->Next(&full_)) {
      status_ = input_->status();
      return false;
    }
    row->resize(head_.size());
    for (size_t i = 0; i < head_.size(); ++i) (*row)[i] = full_[head_[i]];
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return head_.size(); }
  std::string Describe() const override { return "Project[" + label_ + "]"; }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }

 private:
  std::unique_ptr<Cursor> input_;
  std::vector<uint32_t> head_;
  std::string label_;
  IdRow full_;
};

class DistinctCursor final : public Cursor {
 public:
  explicit DistinctCursor(std::unique_ptr<Cursor> input)
      : input_(std::move(input)), seen_(input_->width()) {}

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    while (input_->Next(row)) {
      if (seen_.Insert(row->data())) {
        ++rows_produced_;
        return true;
      }
    }
    status_ = input_->status();
    return false;
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override { return "Distinct"; }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }

 private:
  std::unique_ptr<Cursor> input_;
  util::RowSet seen_;
};

class LimitOffsetCursor final : public Cursor {
 public:
  LimitOffsetCursor(std::unique_ptr<Cursor> input, size_t limit,
                    size_t offset)
      : input_(std::move(input)), limit_(limit), offset_(offset) {}

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (emitted_ >= limit_) return false;  // stop pulling: early exit
    while (skipped_ < offset_) {
      if (!input_->Next(row)) {
        status_ = input_->status();
        return false;
      }
      ++skipped_;
    }
    if (!input_->Next(row)) {
      status_ = input_->status();
      return false;
    }
    ++emitted_;
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override {
    std::string out = "LimitOffset[";
    out += limit_ == SIZE_MAX ? "limit=∞" : "limit=" + std::to_string(limit_);
    out += " offset=" + std::to_string(offset_) + "]";
    return out;
  }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input_->CollectOperators(out, depth + 1);
  }

 private:
  std::unique_ptr<Cursor> input_;
  size_t limit_, offset_;
  size_t emitted_ = 0, skipped_ = 0;
};

/// Root-level governor: charges every produced row against the ExecContext
/// row budget and polls the deadline/cancellation token between rows — the
/// backstop that governs even trees whose inner operators carry no context.
/// Transparent to Explain (forwards CollectOperators without adding itself),
/// so governed and ungoverned plans render identically.
class GovernedCursor final : public Cursor {
 public:
  GovernedCursor(std::unique_ptr<Cursor> input, util::ExecContext* exec)
      : input_(std::move(input)), exec_(exec) {
    poll_.ctx = exec;
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (poll_.Expired(&status_)) return false;
    if (!input_->Next(row)) {
      status_ = input_->status();
      return false;
    }
    status_ = exec_->ChargeRows();
    if (!status_.ok()) return false;  // the over-budget row is withheld
    ++rows_produced_;
    return true;
  }
  size_t width() const override { return input_->width(); }
  std::string Describe() const override { return "Governed"; }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    input_->CollectOperators(out, depth);
  }

 private:
  std::unique_ptr<Cursor> input_;
  util::ExecContext* exec_;
  ExecPoll poll_;
};

}  // namespace

// ---- Hash join --------------------------------------------------------------

/// The build side of every hash join, partitioned by key hash so partitions
/// build in parallel without sharing mutable state. Each key's triples all
/// land in the same partition (partition = hash(key) % P), and each
/// partition walks the build range in index order, so within-key chain
/// order is index order at every partition count — which is what keeps the
/// probe stream byte-identical. A sequential query builds one partition,
/// lazily, on its probe's first pull; a parallel query's gather builds
/// before fan-out. After EnsureBuilt() the structure is immutable and
/// probed concurrently, read-only.
class HashJoinBuild {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  HashJoinBuild(const store::TripleTable& table, const CompiledPattern& pat,
                std::vector<uint32_t> key_vars, util::ExecContext* exec,
                uint32_t parallelism)
      : table_(table),
        pat_(pat),
        key_vars_(std::move(key_vars)),
        exec_(exec),
        parallelism_(std::max(1u, parallelism)) {
    assert(!key_vars_.empty() && "hash join needs at least one join variable");
    // First position of each key variable in the pattern, for extracting
    // key values from build-side triples.
    key_slot_.reserve(key_vars_.size());
    for (uint32_t v : key_vars_) {
      int slot = -1;
      const CompiledSlot* slots[3] = {&pat_.s, &pat_.p, &pat_.o};
      for (int i = 0; i < 3; ++i) {
        if (slots[i]->is_var && slots[i]->var == v) {
          slot = i;
          break;
        }
      }
      assert(slot >= 0 && "key variable does not occur in the pattern");
      key_slot_.push_back(slot);
    }
  }

  ~HashJoinBuild() { ReleaseAll(); }

  HashJoinBuild(const HashJoinBuild&) = delete;
  HashJoinBuild& operator=(const HashJoinBuild&) = delete;

  /// Builds the partitioned hash table (idempotent; never called
  /// concurrently with the first build). OK after a successful build *or* a
  /// memory-refusal degrade (probes then run nested-loop); non-OK only for
  /// governance failures (deadline/cancel) and injected faults, which fail
  /// the query.
  Status EnsureBuilt() {
    if (built_) return build_status_;
    built_ = true;
    Status fp = RDFSUM_FAILPOINT_STATUS("query:hashjoin-build");
    if (fp.IsResourceExhausted()) {
      Degrade();
      return Status::OK();
    }
    if (!fp.ok()) {
      build_status_ = std::move(fp);
      return build_status_;
    }
    std::span<const Triple> build = table_.MatchSpan(ConstOnly(pat_));
    // Each partition pass re-scans the whole build span, so the passes only
    // pay off when they actually run concurrently: clamp the partition
    // count to the machine, not the (possibly oversubscribed) requested
    // parallelism — a sequential query or a 1-core host builds one
    // partition in one pass.
    const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    const uint32_t nparts =
        std::max(1u, std::min({parallelism_, hw, 8u,
                               static_cast<uint32_t>(std::min<uint64_t>(
                                   build.size(), 8))}));
    parts_.reserve(nparts);
    for (uint32_t p = 0; p < nparts; ++p) parts_.emplace_back(key_vars_.size());
    std::atomic<bool> stop{false};
    std::atomic<bool> refused{false};
    std::mutex err_mu;
    Status first_err;
    // Every partition scans the whole (cheap, contiguous) build range and
    // keeps only its own keys' triples: no cross-partition communication,
    // and per-partition insertion order is index order by construction.
    // One partition runs inline on the caller (ParallelFor(1)).
    util::ParallelFor(nparts, [&](uint32_t p) {
      Partition& part = parts_[p];
      IdRow key_buf(key_vars_.size());
      const uint64_t n = build.size();
      constexpr uint64_t kPoll = util::ExecContext::kCheckInterval;
      for (uint64_t base = 0; base < n; base += kPoll) {
        if (stop.load(std::memory_order_relaxed)) return;
        if (exec_ != nullptr) {
          Status st = exec_->Check();
          if (!st.ok()) {
            std::lock_guard<std::mutex> lock(err_mu);
            if (first_err.ok()) first_err = std::move(st);
            stop.store(true, std::memory_order_relaxed);
            return;
          }
        }
        const uint64_t chunk_end = std::min(n, base + kPoll);
        for (uint64_t i = base; i < chunk_end; ++i) {
          const Triple& t = build[i];
          const TermId values[3] = {t.s, t.p, t.o};
          for (size_t k = 0; k < key_slot_.size(); ++k) {
            key_buf[k] = values[key_slot_[k]];
          }
          if (nparts > 1 &&
              HashKey(key_buf.data(), key_buf.size()) % nparts != p) {
            continue;
          }
          if (exec_ != nullptr &&
              !exec_->TryChargeMemory(kHashJoinBuildBytesPerRow)) {
            refused.store(true, std::memory_order_relaxed);
            stop.store(true, std::memory_order_relaxed);
            return;
          }
          part.charged += kHashJoinBuildBytesPerRow;
          auto [ord, inserted] = part.keys.InsertOrFind(key_buf.data());
          if (inserted) {
            part.heads.push_back(kEnd);
            part.tails.push_back(kEnd);
          }
          const uint32_t idx = static_cast<uint32_t>(part.triples.size());
          part.triples.push_back(t);
          part.next.push_back(kEnd);
          // Append to the chain tail so probes replay matches in build
          // (index) order — the stream stays deterministic run to run.
          if (part.heads[ord] == kEnd) {
            part.heads[ord] = idx;
          } else {
            part.next[part.tails[ord]] = idx;
          }
          part.tails[ord] = idx;
        }
      }
    });
    if (!first_err.ok()) {
      ReleaseAll();
      parts_.clear();
      build_status_ = std::move(first_err);
      return build_status_;
    }
    if (refused.load(std::memory_order_relaxed)) Degrade();
    return Status::OK();
  }

  bool degraded() const { return degraded_; }
  const CompiledPattern& pattern() const { return pat_; }
  const std::vector<uint32_t>& key_vars() const { return key_vars_; }

  /// A probe position: partition + chain index (kEnd = no match / end).
  struct ChainPos {
    uint32_t part = 0;
    uint32_t idx = kEnd;
  };

  ChainPos Find(const TermId* key) const {
    // One partition (sequential queries, 1-core hosts, tiny builds): the
    // routing hash can only ever say 0, so skip it — RowSet::Find hashes
    // the key anyway.
    const uint32_t p =
        parts_.size() == 1
            ? 0u
            : static_cast<uint32_t>(HashKey(key, key_vars_.size()) %
                                    parts_.size());
    const uint32_t ord = parts_[p].keys.Find(key);
    if (ord == util::RowSet::kNotFound) return {p, kEnd};
    return {p, parts_[p].heads[ord]};
  }
  const Triple& TripleAt(ChainPos pos) const {
    return parts_[pos.part].triples[pos.idx];
  }
  uint32_t NextAt(ChainPos pos) const { return parts_[pos.part].next[pos.idx]; }

 private:
  struct Partition {
    explicit Partition(size_t key_width) : keys(key_width) {}
    util::RowSet keys;                   // distinct key directory -> ordinal
    std::vector<uint32_t> heads, tails;  // per key ordinal: chain bounds
    std::vector<Triple> triples;
    std::vector<uint32_t> next;  // chain links, parallel to triples
    uint64_t charged = 0;        // outstanding ExecContext memory charge
  };

  static uint64_t HashKey(const TermId* key, size_t n) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < n; ++i) {
      h ^= key[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }

  /// Abandons the (possibly partial) hash table: refunds every byte charged
  /// and frees the build state; probes then run nested-loop.
  void Degrade() {
    degraded_ = true;
    ReleaseAll();
    parts_.clear();
  }

  void ReleaseAll() {
    if (exec_ == nullptr) return;
    uint64_t total = 0;
    for (Partition& part : parts_) {
      total += part.charged;
      part.charged = 0;
    }
    if (total > 0) exec_->ReleaseMemory(total);
  }

  const store::TripleTable& table_;
  CompiledPattern pat_;
  std::vector<uint32_t> key_vars_;
  util::ExecContext* exec_;
  uint32_t parallelism_;
  std::vector<int> key_slot_;  // position (0=s,1=p,2=o) per key var

  bool built_ = false;
  bool degraded_ = false;
  Status build_status_;
  std::vector<Partition> parts_;
};

namespace {

/// Probe side of a hash join: per input row, walks the chain of the row's
/// key in the build. The first pull EnsureBuilt()s the build (a no-op when
/// a gather already built it before fan-out). A build refused memory hands
/// the input to an index nested-loop join over the same pattern — the same
/// stream, slower, never over budget.
class HashJoinProbeCursor final : public Cursor {
 public:
  HashJoinProbeCursor(std::unique_ptr<Cursor> input,
                      const store::TripleTable& table,
                      std::shared_ptr<HashJoinBuild> build, std::string label,
                      util::ExecContext* exec)
      : input_(std::move(input)),
        table_(table),
        build_(std::move(build)),
        label_(std::move(label)),
        exec_(exec),
        key_vars_(build_->key_vars()),
        key_buf_(key_vars_.size()) {
    poll_.ctx = exec;
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (!started_) {
      started_ = true;
      status_ = build_->EnsureBuilt();
      if (!status_.ok()) return false;
      if (build_->degraded()) {
        nlj_ = std::make_unique<IndexNestedLoopJoinCursor>(
            std::move(input_), table_, build_->pattern(), label_, exec_);
      }
    }
    if (nlj_ != nullptr) {
      if (!nlj_->Next(row)) {
        status_ = nlj_->status();
        return false;
      }
      ++rows_produced_;
      return true;
    }
    for (;;) {
      while (pos_.idx != HashJoinBuild::kEnd) {
        if (poll_.Expired(&status_)) return false;
        const Triple& t = build_->TripleAt(pos_);
        pos_.idx = build_->NextAt(pos_);
        *row = current_;
        if (BindTriple(build_->pattern(), t, row)) {
          ++rows_produced_;
          return true;
        }
      }
      if (!input_->Next(&current_)) {
        status_ = input_->status();
        return false;
      }
      for (size_t i = 0; i < key_vars_.size(); ++i) {
        key_buf_[i] = current_[key_vars_[i]];
      }
      pos_ = build_->Find(key_buf_.data());
    }
  }
  size_t width() const override { return input().width(); }
  std::string Describe() const override {
    return build_->degraded() ? "HashJoin[" + label_ + " degraded=nlj]"
                              : "HashJoin[" + label_ + "]";
  }
  void CollectOperators(std::vector<OperatorStats>* out,
                        int depth) const override {
    out->push_back({depth, Describe(), rows_produced()});
    input().CollectOperators(out, depth + 1);
  }

 private:
  const Cursor& input() const {
    return nlj_ != nullptr ? nlj_->input() : *input_;
  }

  std::unique_ptr<Cursor> input_;  // moved into nlj_ on degrade
  const store::TripleTable& table_;
  std::shared_ptr<HashJoinBuild> build_;
  std::string label_;
  util::ExecContext* exec_;
  std::vector<uint32_t> key_vars_;  // copied out of the build: hot-loop local
  bool started_ = false;
  std::unique_ptr<IndexNestedLoopJoinCursor> nlj_;  // set on degrade
  IdRow current_;
  IdRow key_buf_;
  HashJoinBuild::ChainPos pos_;
  ExecPoll poll_;
};

/// The exchange operator. Workers (tasks on the shared ThreadPool) claim
/// morsel indices under the lock and run the spec's pipeline over their
/// morsel into a private row buffer; the consumer emits buffers strictly in
/// morsel-index order, so the merged stream equals the sequential one.
///
/// Scheduling invariants (the reasons this cannot deadlock or block the
/// pool):
///   - A worker that cannot claim (window full, cancelled, or no morsels
///     left) returns from its task instead of blocking; the consumer
///     re-submits workers as the window reopens. Pool threads are never
///     parked inside a gather.
///   - A claimed morsel is always being executed; the consumer only sleeps
///     when its next morsel is claimed-and-running, so completion (and its
///     notify) is guaranteed — pipelines are finite and poll stop_.
///   - When the pool is busy elsewhere and the next morsel is unclaimed,
///     the consumer claims and runs it inline (caller-runs, like
///     TaskGroup::Wait) — a gather drains even on a fully loaded pool.
///   - Any morsel failure (governance trip, injected fault) sets stop_;
///     every worker falls through at its next claim or within one poll
///     chunk mid-drain, and the consumer surfaces the first failure in
///     morsel order after the rows that precede it.
class ParallelGatherCursor final : public Cursor {
 public:
  explicit ParallelGatherCursor(ParallelGatherSpec spec)
      : spec_(std::move(spec)) {
    if (spec_.morsel_rows == 0) spec_.morsel_rows = kMorselRows;
    if (spec_.num_threads == 0) spec_.num_threads = 1;
    num_morsels_ = (spec_.total_rows + spec_.morsel_rows - 1) /
                   spec_.morsel_rows;
    window_ = std::max<uint64_t>(uint64_t{4} * spec_.num_threads, 8);
    target_workers_ = static_cast<uint32_t>(
        std::min<uint64_t>(spec_.num_threads, num_morsels_));
    slots_.resize(num_morsels_);
  }

  ~ParallelGatherCursor() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    group_.reset();  // joins in-flight morsel tasks (they poll stop_)
  }

  bool Next(IdRow* row) override {
    if (!status_.ok()) return false;
    if (!started_) {
      started_ = true;
      for (const auto& build : spec_.builds) {
        Status st = build->EnsureBuilt();
        if (!st.ok()) {
          status_ = std::move(st);
          return false;
        }
      }
      if (num_morsels_ > 0) {
        group_ = std::make_unique<util::TaskGroup>(util::ThreadPool::Shared());
        std::unique_lock<std::mutex> lock(mu_);
        const uint32_t spawn = SpawnBudgetLocked();
        lock.unlock();
        Spawn(spawn);
      }
    }
    for (;;) {
      if (cur_emitted_ < cur_count_) {
        const auto base = cur_rows_.begin() +
                          static_cast<ptrdiff_t>(cur_emitted_ * spec_.width);
        row->assign(base, base + static_cast<ptrdiff_t>(spec_.width));
        ++cur_emitted_;
        ++rows_produced_;
        return true;
      }
      if (!fail_after_current_.ok()) {
        status_ = std::move(fail_after_current_);
        return false;
      }
      if (next_emit_ >= num_morsels_) return false;  // clean exhaustion
      if (!TakeNextSlot()) return false;
    }
  }

  size_t width() const override { return spec_.width; }
  std::string Describe() const override {
    return "ParallelGather[" + spec_.label +
           " threads=" + std::to_string(spec_.num_threads) +
           " morsels=" + std::to_string(num_morsels_) + "]";
  }

 private:
  struct MorselSlot {
    std::vector<TermId> rows;  // flat, width-strided
    uint64_t count = 0;
    Status status;
    bool done = false;
  };

  /// Workers to add so that claimable morsels are covered, up to the
  /// target. Pre-credits active_workers_; caller must Spawn() the result
  /// after unlocking.
  uint32_t SpawnBudgetLocked() {
    if (stop_.load(std::memory_order_relaxed)) return 0;
    const uint64_t claimable_end =
        std::min<uint64_t>(num_morsels_, consumed_ + window_);
    const uint64_t claimable =
        claim_ < claimable_end ? claimable_end - claim_ : 0;
    const uint64_t want = std::min<uint64_t>(claimable, target_workers_);
    const uint32_t spawn = active_workers_ < want
                               ? static_cast<uint32_t>(want - active_workers_)
                               : 0;
    active_workers_ += spawn;
    return spawn;
  }

  void Spawn(uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      group_->Submit([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    for (;;) {
      uint64_t m;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_.load(std::memory_order_relaxed) || claim_ >= num_morsels_ ||
            claim_ >= consumed_ + window_) {
          // Park: never block a pool thread. The consumer re-submits
          // workers when the run-ahead window reopens.
          --active_workers_;
          return;
        }
        m = claim_++;
      }
      RunMorsel(m);
    }
  }

  /// Executes morsel `m` and publishes its slot. Runs on workers and (when
  /// the pool is saturated) on the consumer.
  void RunMorsel(uint64_t m) {
    std::vector<TermId> rows;
    uint64_t count = 0;
    Status st = ExecuteMorsel(m, &rows, &count);
    {
      std::lock_guard<std::mutex> lock(mu_);
      MorselSlot& slot = slots_[m];
      slot.rows = std::move(rows);
      slot.count = count;
      slot.status = std::move(st);
      slot.done = true;
      if (!slot.status.ok()) {
        if (first_error_.ok()) first_error_ = slot.status;
        stop_.store(true, std::memory_order_relaxed);
      }
    }
    cv_consumer_.notify_all();
  }

  Status ExecuteMorsel(uint64_t m, std::vector<TermId>* rows,
                       uint64_t* count) {
    Status fp = RDFSUM_FAILPOINT_STATUS("query:morsel");
    if (!fp.ok()) return fp;
    const size_t begin = static_cast<size_t>(m * spec_.morsel_rows);
    const size_t end = static_cast<size_t>(
        std::min<uint64_t>(spec_.total_rows, (m + 1) * spec_.morsel_rows));
    // Start from a recycled buffer (capacity survives the round trip
    // through the consumer) or reserve one driving-row's worth — without
    // this, every morsel re-grows its buffer through the doubling ladder
    // and the copy churn dominates the exchange overhead on small hosts.
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!spare_buffers_.empty()) {
        *rows = std::move(spare_buffers_.back());
        spare_buffers_.pop_back();
        rows->clear();
      }
    }
    if (rows->capacity() == 0) rows->reserve((end - begin) * spec_.width);
    std::unique_ptr<Cursor> pipeline = spec_.pipeline(begin, end);
    IdRow row;
    uint32_t ticks = 0;
    while (pipeline->Next(&row)) {
      rows->insert(rows->end(), row.begin(), row.end());
      ++*count;
      // Poll the gather-local stop flag (teardown, another morsel's
      // failure) without touching the user's ExecContext — cancelling that
      // would poison a context the caller may reuse.
      if ((++ticks & 1023u) == 0 &&
          stop_.load(std::memory_order_relaxed)) {
        return Status::Cancelled("parallel query stopped");
      }
    }
    return pipeline->status();
  }

  /// Moves the next morsel's buffer into the consumer state, re-spawning
  /// parked workers for the reopened window. False when the gather stopped
  /// before that morsel completed (status_ set).
  bool TakeNextSlot() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      MorselSlot& slot = slots_[next_emit_];
      if (slot.done) {
        // Recycle the drained buffer's capacity for a later morsel.
        if (cur_rows_.capacity() != 0 && spare_buffers_.size() < 4) {
          spare_buffers_.push_back(std::move(cur_rows_));
        }
        cur_rows_ = std::move(slot.rows);
        cur_count_ = slot.count;
        cur_emitted_ = 0;
        if (!slot.status.ok()) {
          // Surface the first failure in morsel order, after this morsel's
          // rows. A later synthetic stop-cancel never shadows the genuine
          // first error.
          fail_after_current_ =
              first_error_.ok() ? slot.status : first_error_;
        }
        ++next_emit_;
        ++consumed_;
        const uint32_t spawn = SpawnBudgetLocked();
        lock.unlock();
        Spawn(spawn);
        return true;
      }
      if (stop_.load(std::memory_order_relaxed)) {
        status_ = first_error_.ok()
                      ? Status::Cancelled("parallel query stopped")
                      : first_error_;
        return false;
      }
      if (claim_ == next_emit_) {
        // Unclaimed and the pool hasn't picked it up: run it inline so the
        // drain makes progress even on a saturated (or 1-thread) pool.
        const uint64_t m = claim_++;
        lock.unlock();
        RunMorsel(m);
        lock.lock();
        continue;
      }
      cv_consumer_.wait(lock);
    }
  }

  ParallelGatherSpec spec_;
  uint64_t num_morsels_ = 0;
  uint64_t window_ = 0;
  uint32_t target_workers_ = 0;

  bool started_ = false;
  std::unique_ptr<util::TaskGroup> group_;

  std::mutex mu_;
  std::condition_variable cv_consumer_;
  std::atomic<bool> stop_{false};
  uint64_t claim_ = 0;     // next unclaimed morsel (under mu_)
  uint64_t consumed_ = 0;  // morsels the consumer has taken (under mu_)
  uint32_t active_workers_ = 0;  // tasks in flight, incl. pre-credited
  std::vector<MorselSlot> slots_;
  std::vector<std::vector<TermId>> spare_buffers_;  // recycled (under mu_)
  Status first_error_;  // first failure recorded, any morsel (under mu_)

  // Consumer-side state (no locking: single consumer).
  uint64_t next_emit_ = 0;
  std::vector<TermId> cur_rows_;
  uint64_t cur_count_ = 0;
  uint64_t cur_emitted_ = 0;
  Status fail_after_current_;
};

}  // namespace

std::unique_ptr<Cursor> MakeEmptyCursor(size_t width) {
  return std::make_unique<EmptyCursor>(width);
}

std::unique_ptr<Cursor> MakeSingletonCursor(size_t width) {
  return std::make_unique<SingletonCursor>(width);
}

std::unique_ptr<Cursor> MakeIndexScanCursor(const store::TripleTable& table,
                                            const CompiledPattern& pat,
                                            size_t num_vars,
                                            std::string label,
                                            util::ExecContext* exec) {
  return std::make_unique<IndexScanCursor>(table, pat, num_vars, 0, SIZE_MAX,
                                           std::move(label), exec);
}

store::TriplePattern PatternConstants(const CompiledPattern& pat) {
  return ConstOnly(pat);
}

std::unique_ptr<Cursor> MakeIndexScanSliceCursor(
    const store::TripleTable& table, const CompiledPattern& pat,
    size_t num_vars, size_t begin_offset, size_t end_offset, std::string label,
    util::ExecContext* exec) {
  return std::make_unique<IndexScanCursor>(table, pat, num_vars, begin_offset,
                                           end_offset, std::move(label), exec);
}

std::shared_ptr<HashJoinBuild> MakeHashJoinBuild(
    const store::TripleTable& table, const CompiledPattern& pat,
    std::vector<uint32_t> key_vars, util::ExecContext* exec,
    uint32_t parallelism) {
  return std::make_shared<HashJoinBuild>(table, pat, std::move(key_vars), exec,
                                         parallelism);
}

std::unique_ptr<Cursor> MakeHashJoinProbeCursor(
    std::unique_ptr<Cursor> input, const store::TripleTable& table,
    std::shared_ptr<HashJoinBuild> build, std::string label,
    util::ExecContext* exec) {
  return std::make_unique<HashJoinProbeCursor>(
      std::move(input), table, std::move(build), std::move(label), exec);
}

std::unique_ptr<Cursor> MakeParallelGatherCursor(ParallelGatherSpec spec) {
  return std::make_unique<ParallelGatherCursor>(std::move(spec));
}

std::unique_ptr<Cursor> MakeIndexNestedLoopJoinCursor(
    std::unique_ptr<Cursor> input, const store::TripleTable& table,
    const CompiledPattern& pat, std::string label, util::ExecContext* exec) {
  return std::make_unique<IndexNestedLoopJoinCursor>(
      std::move(input), table, pat, std::move(label), exec);
}

std::unique_ptr<Cursor> MakeGovernedCursor(std::unique_ptr<Cursor> input,
                                           util::ExecContext* exec) {
  assert(exec != nullptr && "governed cursor needs a context");
  return std::make_unique<GovernedCursor>(std::move(input), exec);
}

std::unique_ptr<Cursor> MakeProjectCursor(std::unique_ptr<Cursor> input,
                                          std::vector<uint32_t> head,
                                          std::string label) {
  return std::make_unique<ProjectCursor>(std::move(input), std::move(head),
                                         std::move(label));
}

std::unique_ptr<Cursor> MakeDistinctCursor(std::unique_ptr<Cursor> input) {
  return std::make_unique<DistinctCursor>(std::move(input));
}

std::unique_ptr<Cursor> MakeLimitOffsetCursor(std::unique_ptr<Cursor> input,
                                              size_t limit, size_t offset) {
  return std::make_unique<LimitOffsetCursor>(std::move(input), limit, offset);
}

}  // namespace rdfsum::query
