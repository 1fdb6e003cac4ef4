#include "server/snapshot.h"

#include <utility>

#include "summary/summarizer.h"
#include "util/timer.h"

namespace rdfsum::server {

StatusOr<std::shared_ptr<Snapshot>> Snapshot::Open(const std::string& path,
                                                   uint64_t epoch) {
  auto store = store::MmapStore::Open(path);
  if (!store.ok()) return store.status();
  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->path_ = path;
  snap->epoch_ = epoch;
  snap->store_ = std::move(store).value();
  snap->num_triples_ = snap->store_->table().size();
  snap->evaluator_.emplace(snap->store_->dict(), snap->store_->table());
  return snap;
}

StatusOr<const summary::CardinalityEstimator*> Snapshot::Estimator() {
  std::call_once(estimator_once_, [&] {
    Timer timer;
    StatusOr<Graph> graph = store_->ToGraph();
    StatusOr<summary::SummaryResult> sum =
        graph.ok() ? summary::TrySummarize(*graph, summary::SummaryKind::kWeak)
                   : StatusOr<summary::SummaryResult>(graph.status());
    mint_seconds_ = timer.ElapsedSeconds();
    if (sum.ok()) {
      // The estimator copies what it needs and keeps the graph's private
      // dictionary alive; no thread mutates that dictionary after this
      // point, so concurrent Estimate() calls are pure reads.
      estimator_.emplace(*graph, *sum);
    } else {
      estimator_status_ = sum.status();
    }
    mint_done_.store(true, std::memory_order_release);
  });
  if (!estimator_status_.ok()) return estimator_status_;
  return &*estimator_;
}

std::optional<Snapshot::MintReport> Snapshot::WeakMintReport() const {
  if (!mint_done_.load(std::memory_order_acquire)) return std::nullopt;
  return MintReport{estimator_status_.ok(), mint_seconds_};
}

}  // namespace rdfsum::server
