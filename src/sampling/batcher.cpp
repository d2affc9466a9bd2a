#include "sampling/batcher.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace gnav::sampling {

SeedBatcher::SeedBatcher(std::vector<graph::NodeId> train_nodes,
                         std::size_t batch_size)
    : train_nodes_(std::move(train_nodes)), batch_size_(batch_size) {
  GNAV_CHECK(!train_nodes_.empty(), "no training nodes");
  GNAV_CHECK(batch_size_ >= 1, "batch size must be >= 1");
}

std::size_t SeedBatcher::batches_per_epoch() const {
  return (train_nodes_.size() + batch_size_ - 1) / batch_size_;
}

std::vector<std::vector<graph::NodeId>> SeedBatcher::epoch_batches(Rng& rng) {
  rng.shuffle(train_nodes_);
  std::vector<std::vector<graph::NodeId>> out;
  out.reserve(batches_per_epoch());
  for (std::size_t start = 0; start < train_nodes_.size();
       start += batch_size_) {
    const std::size_t end =
        std::min(start + batch_size_, train_nodes_.size());
    out.emplace_back(train_nodes_.begin() + static_cast<std::ptrdiff_t>(start),
                     train_nodes_.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

}  // namespace gnav::sampling
