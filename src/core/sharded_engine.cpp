#include "core/sharded_engine.hpp"

#include <stdexcept>
#include <utility>

#include "tensor/parallel.hpp"

namespace rihgcn::core {

ShardedEngine::ShardedEngine(const RihgcnModel& model, Options options) {
  if (options.num_shards == 0) {
    throw std::invalid_argument("ShardedEngine: num_shards must be >= 1");
  }
  n_ = model.graphs_.num_nodes();
  horizon_ = model.config_.horizon;
  parallel_ = options.parallel;

  // The model's own Cluster-GCN cut — the one prepare_clusters() trains on.
  std::vector<RihgcnModel::ClusterSpec> specs =
      model.cluster_specs(options.num_shards, options.seed);
  InferenceEngine::Options eo;
  eo.max_batch = 1;  // one window, split by NODES — not by batch
  eo.num_threads = options.num_threads;
  shards_.reserve(specs.size());
  for (RihgcnModel::ClusterSpec& spec : specs) {
    Shard sh;
    for (std::size_t r = 0; r < spec.nodes.size(); ++r) {
      if (spec.owned_row[r]) {
        sh.owned_local.push_back(r);
        sh.owned_global.push_back(spec.nodes[r]);
      }
    }
    sh.engine = std::unique_ptr<InferenceEngine>(
        new InferenceEngine(model, eo, &spec.laps, spec.nodes.size()));
    sh.ws = sh.engine->make_workspace();
    sh.nodes = std::move(spec.nodes);
    spec.laps = {};  // the sub-engine holds its own f32 copy
    shards_.push_back(std::move(sh));
  }
}

Matrix ShardedEngine::predict(const data::Window& w) {
  Matrix out(n_, horizon_);
  auto run = [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      Shard& sh = shards_[s];
      // Gather this shard's rows, forward through its sub-engine, scatter
      // only the OWNED rows — owned sets partition the nodes, so the
      // writes below are disjoint across shards (race-free in parallel).
      const data::Window sub = data::take_rows(w, sh.nodes);
      const data::Window* ptr = &sub;
      const FMatrix& pred = sh.engine->predict_batch(&ptr, 1, sh.ws);
      for (std::size_t k = 0; k < sh.owned_local.size(); ++k) {
        const std::size_t li = sh.owned_local[k];
        const std::size_t gi = sh.owned_global[k];
        for (std::size_t h = 0; h < horizon_; ++h) {
          out(gi, h) = static_cast<double>(pred(li, h));
        }
      }
    }
  };
  if (parallel_ && shards_.size() > 1) {
    // Grain 1: one shard per task. Shard bodies run with
    // in_parallel_region() set, so the sub-engines' kernels stay serial —
    // no nested pool dispatch, and bits identical to the serial path.
    ThreadPool::global().parallel_for(0, shards_.size(), 1, run);
  } else {
    run(0, shards_.size());
  }
  return out;
}

}  // namespace rihgcn::core
