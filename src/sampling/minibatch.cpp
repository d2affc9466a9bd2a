#include "sampling/minibatch.hpp"

#include <algorithm>
#include <unordered_set>

#include "sampling/build.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace gnav::sampling {

void MiniBatch::validate(const graph::CsrGraph& parent) const {
  GNAV_CHECK(subgraph.num_nodes() == num_nodes(),
             "subgraph size != node mapping size");
  std::unordered_set<graph::NodeId> seen;
  for (graph::NodeId g : nodes) {
    GNAV_CHECK(parent.contains(g), "global id out of parent range");
    GNAV_CHECK(seen.insert(g).second, "duplicate global id in mini-batch");
  }
  for (std::int64_t s : seed_local) {
    GNAV_CHECK(s >= 0 && s < num_nodes(), "seed local index out of range");
  }
  GNAV_CHECK(subgraph.is_symmetric(), "mini-batch subgraph not symmetric");
}

namespace detail {
namespace {

/// Row-parallelism threshold: below this many edge slots the dispatch
/// overhead of the pool outweighs the sort work. Results are identical
/// either way (rows are index-disjoint), so the constant is perf-only.
constexpr std::size_t kParallelEdgeThreshold = 1 << 14;

void for_each_row(std::size_t n, std::size_t total_slots,
                  const std::function<void(std::size_t)>& body) {
  // On a pool worker (the sync epoch executor building batches ahead —
  // possibly on a caller-provided pool) or an async stage thread,
  // parallel_for would run inline anyway; loop directly so the
  // process-wide global pool is never instantiated on behalf of someone
  // else's pool. Only the inline chained schedule (cache-aware bias under
  // the sync executor) fans rows out, and it has no pool handle of its
  // own, so the global pool is the right one there.
  if (total_slots < kParallelEdgeThreshold ||
      support::ThreadPool::in_worker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
  } else {
    support::global_pool().parallel_for(0, n, body);
  }
}

/// Sorts + deduplicates each filled row of `scratch.adj_tmp` (rows at
/// `row_offsets` with `row_counts` entries), then compacts into an
/// exact-size CSR. Neighbor lists come out sorted ascending — the same
/// layout GraphBuilder produced, which the symmetry check and the tests'
/// binary searches rely on.
graph::CsrGraph finalize_rows(std::size_t n, SampleScratch& scratch) {
  const auto total =
      static_cast<std::size_t>(scratch.row_offsets[n]);
  for_each_row(n, total, [&](std::size_t i) {
    graph::NodeId* begin = scratch.adj_tmp.data() + scratch.row_offsets[i];
    graph::NodeId* end = begin + scratch.row_counts[i];
    std::sort(begin, end);
    scratch.row_counts[i] = std::unique(begin, end) - begin;
  });
  std::vector<graph::EdgeId> indptr(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    indptr[i + 1] = indptr[i] + scratch.row_counts[i];
  }
  std::vector<graph::NodeId> indices(static_cast<std::size_t>(indptr[n]));
  for_each_row(n, total, [&](std::size_t i) {
    std::copy_n(scratch.adj_tmp.data() + scratch.row_offsets[i],
                scratch.row_counts[i], indices.data() + indptr[i]);
  });
  return graph::CsrGraph(std::move(indptr), std::move(indices));
}

}  // namespace

const std::vector<graph::NodeId>& order_nodes(
    const graph::CsrGraph& parent, std::span<const graph::NodeId> seeds,
    const std::vector<graph::NodeId>& extra, SampleScratch& scratch) {
  scratch.visited.begin_pass(static_cast<std::size_t>(parent.num_nodes()));
  scratch.ordered.clear();
  scratch.ordered.reserve(seeds.size() + extra.size());
  for (graph::NodeId s : seeds) {
    if (scratch.visited.insert(s)) scratch.ordered.push_back(s);
  }
  for (graph::NodeId v : extra) {
    if (scratch.visited.insert(v)) scratch.ordered.push_back(v);
  }
  return scratch.ordered;
}

MiniBatch build_from_edges(
    const graph::CsrGraph& parent, std::span<const graph::NodeId> seeds,
    const std::vector<graph::NodeId>& ordered_nodes,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& edges,
    double sampling_work, SampleScratch& scratch) {
  const std::size_t n = ordered_nodes.size();
  scratch.local_ids.begin_pass(static_cast<std::size_t>(parent.num_nodes()));
  for (std::size_t i = 0; i < n; ++i) {
    scratch.local_ids.set(ordered_nodes[i], static_cast<std::int64_t>(i));
  }

  // Counting pass (each kept edge lands in both endpoint rows).
  scratch.row_counts.assign(n, 0);
  for (const auto& [u, v] : edges) {
    const std::int64_t lu = scratch.local_ids.get(u);
    const std::int64_t lv = scratch.local_ids.get(v);
    GNAV_CHECK(lu != NodeMarker::kAbsent && lv != NodeMarker::kAbsent,
               "sampled edge endpoint missing from node set");
    if (lu == lv) continue;  // self-loop
    ++scratch.row_counts[static_cast<std::size_t>(lu)];
    ++scratch.row_counts[static_cast<std::size_t>(lv)];
  }

  // Prefix sum + symmetrized fill.
  scratch.row_offsets.resize(n + 1);
  scratch.row_offsets[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scratch.row_offsets[i + 1] = scratch.row_offsets[i] +
                                 scratch.row_counts[i];
  }
  scratch.adj_tmp.resize(static_cast<std::size_t>(scratch.row_offsets[n]));
  scratch.row_cursor.assign(scratch.row_offsets.begin(),
                            scratch.row_offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    const std::int64_t lu = scratch.local_ids.get(u);
    const std::int64_t lv = scratch.local_ids.get(v);
    if (lu == lv) continue;
    scratch.adj_tmp[static_cast<std::size_t>(
        scratch.row_cursor[static_cast<std::size_t>(lu)]++)] =
        static_cast<graph::NodeId>(lv);
    scratch.adj_tmp[static_cast<std::size_t>(
        scratch.row_cursor[static_cast<std::size_t>(lv)]++)] =
        static_cast<graph::NodeId>(lu);
  }

  MiniBatch mb;
  mb.subgraph = finalize_rows(n, scratch);
  mb.nodes.assign(ordered_nodes.begin(), ordered_nodes.end());
  mb.seed_local.reserve(seeds.size());
  for (graph::NodeId s : seeds) {
    const std::int64_t local = scratch.local_ids.get(s);
    GNAV_CHECK(local != NodeMarker::kAbsent, "seed missing from node set");
    mb.seed_local.push_back(local);
  }
  mb.sampling_work = sampling_work;
  return mb;
}

MiniBatch build_induced(const graph::CsrGraph& parent,
                        std::span<const graph::NodeId> seeds,
                        const std::vector<graph::NodeId>& ordered_nodes,
                        double sampling_work, SampleScratch& scratch) {
  const std::size_t n = ordered_nodes.size();
  scratch.local_ids.begin_pass(static_cast<std::size_t>(parent.num_nodes()));
  for (std::size_t i = 0; i < n; ++i) {
    GNAV_CHECK(parent.contains(ordered_nodes[i]),
               "build_induced: node out of range");
    GNAV_CHECK(scratch.local_ids.get(ordered_nodes[i]) == NodeMarker::kAbsent,
               "build_induced: duplicate node id");
    scratch.local_ids.set(ordered_nodes[i], static_cast<std::int64_t>(i));
  }

  // Counting pass over the parent neighborhoods (reads the marker only —
  // safe to run rows concurrently).
  scratch.row_counts.assign(n, 0);
  std::size_t total_degree = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_degree +=
        static_cast<std::size_t>(parent.degree(ordered_nodes[i]));
  }
  for_each_row(n, total_degree, [&](std::size_t i) {
    graph::EdgeId count = 0;
    for (graph::NodeId u : parent.neighbors(ordered_nodes[i])) {
      const std::int64_t lu = scratch.local_ids.get(u);
      if (lu != NodeMarker::kAbsent &&
          lu != static_cast<std::int64_t>(i)) {
        ++count;
      }
    }
    scratch.row_counts[i] = count;
  });

  scratch.row_offsets.resize(n + 1);
  scratch.row_offsets[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scratch.row_offsets[i + 1] = scratch.row_offsets[i] +
                                 scratch.row_counts[i];
  }
  scratch.adj_tmp.resize(static_cast<std::size_t>(scratch.row_offsets[n]));
  for_each_row(n, total_degree, [&](std::size_t i) {
    auto cursor = static_cast<std::size_t>(scratch.row_offsets[i]);
    for (graph::NodeId u : parent.neighbors(ordered_nodes[i])) {
      const std::int64_t lu = scratch.local_ids.get(u);
      if (lu != NodeMarker::kAbsent &&
          lu != static_cast<std::int64_t>(i)) {
        scratch.adj_tmp[cursor++] = static_cast<graph::NodeId>(lu);
      }
    }
  });

  MiniBatch mb;
  mb.subgraph = finalize_rows(n, scratch);
  mb.nodes.assign(ordered_nodes.begin(), ordered_nodes.end());
  scratch.chosen.begin_pass(n);
  mb.seed_local.reserve(seeds.size());
  for (graph::NodeId s : seeds) {
    const std::int64_t local = scratch.local_ids.get(s);
    GNAV_CHECK(local != NodeMarker::kAbsent,
               "seed missing from induced node set");
    if (scratch.chosen.insert(local)) mb.seed_local.push_back(local);
  }
  mb.sampling_work = sampling_work;
  return mb;
}

}  // namespace detail

}  // namespace gnav::sampling
