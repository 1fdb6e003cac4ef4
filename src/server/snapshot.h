#ifndef RDFSUM_SERVER_SNAPSHOT_H_
#define RDFSUM_SERVER_SNAPSHOT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "query/evaluator.h"
#include "store/mmap_store.h"
#include "summary/cardinality.h"
#include "util/statusor.h"

namespace rdfsum::server {

/// One immutable epoch of the serving daemon: a validated mmap'd `.rsb`
/// image, a zero-copy BgpEvaluator over it, and a lazily-built cardinality
/// estimator for the summary planner. Snapshots are published behind
/// shared_ptr (server/server.h): every in-flight request holds a reference,
/// so an epoch swap never invalidates a running query — the old snapshot
/// drains and frees when its last reference drops (the drain invariant,
/// src/server/README.md).
///
/// Thread safety. All query-path members are read-only after Open():
/// the evaluator plans and opens cursors from const state, and the
/// view-mode Dictionary's decode cache is internally locked. The estimator
/// is the one lazy mutation, made once under a std::once_flag: it
/// materializes the image's graph in image ids over a *private* view
/// dictionary (store::MmapStore::ToGraph), mints the weak summary into that
/// dictionary's overlay, and builds the estimator. Minting never writes
/// memory a concurrent reader of dict() probes; the image bytes both
/// dictionaries view are read-only.
class Snapshot {
 public:
  /// Opens and validates `path` (store::MmapStore's corruption wall runs in
  /// full). `epoch` is the server-assigned generation number.
  static StatusOr<std::shared_ptr<Snapshot>> Open(const std::string& path,
                                                  uint64_t epoch);

  const std::string& path() const { return path_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t num_triples() const { return num_triples_; }

  /// The zero-copy evaluator over the image: planning reads the frozen
  /// TableStats, cursors scan the mmap'd permutations.
  const query::BgpEvaluator& evaluator() const { return *evaluator_; }
  const Dictionary& dict() const { return store_->dict(); }
  const store::TripleTable& table() const { return store_->table(); }

  /// Stefanoni-style cardinality estimator over the weak summary, for
  /// kSummary planning; built on first request and memoized for the
  /// snapshot's lifetime. The graph and summary it is built from are
  /// dropped once it exists. Fails (kNotSupported) on an image frozen
  /// without the dense substrate.
  StatusOr<const summary::CardinalityEstimator*> Estimator();

  /// The weak-summary mint's STATS line: whether it succeeded and its wall
  /// seconds (graph materialization + summarize). Empty until the first
  /// Estimator() call has finished its attempt.
  struct MintReport {
    bool ok;
    double seconds;
  };
  std::optional<MintReport> WeakMintReport() const;

 private:
  Snapshot() = default;

  std::string path_;
  uint64_t epoch_ = 0;
  uint64_t num_triples_ = 0;
  // Declared before the estimator: the estimator's dictionary views this
  // store's mapping, so the store must be destroyed after it.
  std::unique_ptr<store::MmapStore> store_;
  std::optional<query::BgpEvaluator> evaluator_;

  std::once_flag estimator_once_;
  std::optional<summary::CardinalityEstimator> estimator_;
  Status estimator_status_;
  double mint_seconds_ = 0.0;
  /// Release-published after the mint attempt finishes; WeakMintReport
  /// acquires it before touching estimator_status_/mint_seconds_.
  std::atomic<bool> mint_done_{false};
};

}  // namespace rdfsum::server

#endif  // RDFSUM_SERVER_SNAPSHOT_H_
