// Partitions the training vertex set into per-iteration seed batches B_0^i
// (Algo. 1 line 1). A fresh shuffle per epoch reproduces PyG's
// NeighborLoader(shuffle=True) behavior.
//
// Expanding the batches into mini-batch subgraphs (on the thread pool
// or inline) is the epoch executor's job, runtime/pipeline.hpp.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "support/rng.hpp"

namespace gnav::sampling {

class SeedBatcher {
 public:
  SeedBatcher(std::vector<graph::NodeId> train_nodes,
              std::size_t batch_size);

  /// Number of mini-batches per epoch: ceil(|train| / batch_size)
  /// (the n_iter of Eq. 4).
  std::size_t batches_per_epoch() const;

  /// Reshuffles and returns the seed batches for one epoch.
  std::vector<std::vector<graph::NodeId>> epoch_batches(Rng& rng);

  std::size_t batch_size() const { return batch_size_; }
  std::size_t num_train_nodes() const { return train_nodes_.size(); }

 private:
  std::vector<graph::NodeId> train_nodes_;
  std::size_t batch_size_;
};

}  // namespace gnav::sampling
