// Tape-free single-precision inference engine (DESIGN.md §14).
//
// Training runs double-precision reverse-mode autodiff; serving needs none
// of that. InferenceEngine COMPILES a trained RihgcnModel into a frozen f32
// execution plan:
//
//   * every weight matrix is narrowed once to FMatrix, every cached CSR
//     Laplacian once to FCsrMatrix (dense-fallback graphs keep a dense f32
//     Laplacian), and the HGCN interval-weight mixture is tabulated for all
//     time-of-day slots — the engine holds no reference to the model or the
//     graphs after construction, so a snapshot stays valid while the source
//     model retrains;
//   * the forward pass is a fixed schedule of simd::Kernels f32 GEMM / SpMM /
//     elementwise calls into preallocated Workspace buffers — zero tape
//     nodes, zero steady-state heap allocations;
//   * predict_batch() row-stacks B concurrent query windows into (B·N)-row
//     buffers so all weight GEMMs, recurrent-cell steps and elementwise ops
//     batch natively; Laplacian propagation uses a block-diagonal FCsrMatrix
//     prebuilt at max_batch (a row prefix serves any B ≤ max_batch) for
//     genuinely sparse graphs, or a per-block transposed dense GEMM
//     (outᵀ = xᵀ·L̃ᵀ — see GraphOp) for moderately dense ones. Every op is
//     row- or block-local with identical per-element accumulation order, so
//     a batched forward is BITWISE equal to B sequential batch-1 forwards
//     (tests/test_engine.cpp).
//
// Accuracy contract: f32 outputs are ULP-bounded against the f64 tape
// forward, not bitwise. The bound is checked per element as
//   |y32 − y64| ≤ C_model · eps_f32 · (1 + |y64|)
// with C_model = 1024 documented in DESIGN.md §14 (the per-kernel (k+2)·eps·Σ|a||b|
// bounds of §12 compose through the nonlinearities into this empirical
// whole-model form).
#pragma once

#include <cstddef>
#include <vector>

#include "core/rihgcn.hpp"
#include "data/windows.hpp"
#include "tensor/fmatrix.hpp"

namespace rihgcn::core {

class InferenceEngine {
 public:
  struct Options {
    /// Largest batch predict_batch() accepts; sizes the Workspace buffers
    /// and the block-diagonal batched Laplacians.
    std::size_t max_batch = 8;
    /// Intra-batch / intra-graph row-sharding of the f32 GEMM and SpMM
    /// panels (DESIGN.md §16). 0 = adaptive: dispatch to the global
    /// ThreadPool only when an op clears the ParallelTuning flop thresholds
    /// (the pre-§16 behaviour). 1 = always serial. K > 1 = always dispatch,
    /// row grain ceil(rows / K). Pure scheduling: every output row is
    /// computed whole inside one kernel call with a fixed accumulation
    /// order, so results are bitwise identical for every value.
    std::size_t num_threads = 0;
  };

  /// Compiles a frozen snapshot of `model` (which may keep training or be
  /// destroyed afterwards — the engine copies everything it needs).
  InferenceEngine(const RihgcnModel& model, Options options);
  explicit InferenceEngine(const RihgcnModel& model)
      : InferenceEngine(model, Options{}) {}
  virtual ~InferenceEngine() = default;

  /// Preallocated scratch for one in-flight forward. Not thread-safe:
  /// create one per thread via make_workspace(). All buffers are sized for
  /// max_batch at construction; predict_batch never grows them.
  class Workspace {
   public:
    /// Stacked f32 predictions of the last predict_batch call
    /// ((B·N) x horizon, rows of window b at [b·N, (b+1)·N)). Valid until
    /// the next predict_batch call with this workspace.
    [[nodiscard]] const FMatrix& predictions() const noexcept { return pred; }

   private:
    friend class InferenceEngine;
    // Row-stacked buffers, R = max_batch · N rows each.
    std::vector<FMatrix> xobs;   ///< per lookback step, R x F
    std::vector<FMatrix> mask;   ///< per lookback step, R x F
    FMatrix est;                 ///< R x F — current directional estimate
    FMatrix comp;                ///< R x F — complement X̃_t
    FMatrix cheb_a, cheb_b, cheb_p;  ///< R x max(F, gcn_dim) recurrence
    FMatrix lap_xt, lap_ot;      ///< max(F, gcn_dim) x N transposed-lap scratch
    FMatrix s, s2, gcn_tmp;      ///< R x gcn_dim
    FMatrix rnn_in;              ///< R x (gcn_dim + F)
    FMatrix gates, gates_h;      ///< R x 4H (GRU uses the 3H prefix)
    FMatrix h, c;                ///< R x H
    FMatrix zdir;                ///< R x (gcn_dim + H)
    std::vector<FMatrix> zcat;   ///< per step, R x z_width
    FMatrix scores;              ///< R x lookback (attention head)
    FMatrix mixed;               ///< R x z_width (attention head)
    FMatrix pred;                ///< R x horizon
    std::vector<std::size_t> slots;  ///< batch x lookback slot table
  };

  [[nodiscard]] Workspace make_workspace() const;

  /// Batched forward over `batch` windows (1 ≤ batch ≤ max_batch). Each
  /// window must have `lookback` steps of N x F observations/masks. Returns
  /// ws.predictions(); no heap allocation happens on this path. Virtual so
  /// decorators can wrap the plan (the fault-injecting test engine in
  /// tests/faulty_engine.hpp, perfbench's tracing engine); the serving hot
  /// path pays one indirect call per FLUSH, not per request.
  virtual const FMatrix& predict_batch(const data::Window* const* windows,
                                       std::size_t batch, Workspace& ws) const;

  /// Convenience single-query forward through an internal workspace
  /// (allocates only the returned Matrix). Same numerics as a batch of 1.
  [[nodiscard]] Matrix predict(const data::Window& w);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return f_; }
  [[nodiscard]] std::size_t lookback() const noexcept { return lookback_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] std::size_t steps_per_day() const noexcept {
    return steps_per_day_;
  }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

 protected:
  /// Mutable access to a workspace's prediction buffer for derived
  /// fault-injecting decorators (Workspace befriends only this class).
  [[nodiscard]] static FMatrix& workspace_pred(Workspace& ws) noexcept {
    return ws.pred;
  }

 private:
  /// ShardedEngine (core/sharded_engine.hpp) compiles one sub-engine per
  /// graph cluster through the private sub-graph constructor below.
  friend class ShardedEngine;
  /// Read-only access for the test that pins the trained and the served
  /// cluster cuts to each other (tests/test_engine.cpp).
  friend struct ClusterCutProbe;

  /// Sub-graph compilation: same frozen weights as `model`, but the graph
  /// ops come from `sub_laps` (every Laplacian in CSR form, rows and columns
  /// restricted to one cluster's owned ∪ halo nodes) over `sub_n` nodes.
  /// Windows fed to predict_batch must then be sub_n x F — the caller
  /// (ShardedEngine) gathers them with data::take_rows.
  InferenceEngine(const RihgcnModel& model, Options options,
                  const HgcnBlock::SparseLaps* sub_laps, std::size_t sub_n);

  /// One graph's Laplacian, compiled into whichever apply form is cheapest
  /// (chosen once, per graph, at compile time):
  ///   * CSR SpMM (plus the block-diagonal batched form) for genuinely
  ///     sparse graphs — city-scale k-NN Laplacians at ~1% density;
  ///   * transposed dense GEMM (`lapT`, row-major L̃ᵀ) for everything else.
  ///     DTW temporal graphs at moderate N run 15–35% dense, where a CSR
  ///     apply over a width-F panel degenerates into gather-bound work.
  ///     Computing outᵀ = xᵀ·L̃ᵀ instead makes the inner loop N elements
  ///     wide regardless of F. Each output element still accumulates its
  ///     terms in ascending-k FMA order — the CSR sequence plus exact-zero
  ///     terms, which leave an FMA accumulator bitwise unchanged — so the
  ///     path choice stays inside the documented ULP bound and a batched
  ///     forward remains bitwise equal to sequential ones (block-local).
  struct GraphOp {
    bool sparse = false;   ///< CSR SpMM path; false = transposed dense GEMM
    FCsrMatrix csr;
    FCsrMatrix csr_batch;  ///< block-diagonal, max_batch copies
    FMatrix lapT;          ///< n x n, lapT(j, i) = L̃(i, j)
  };
  /// One Chebyshev GCN's weights.
  struct GcnPlan {
    std::vector<FMatrix> theta;  ///< K matrices, in x out
    FMatrix bias;                ///< 1 x out
  };
  /// One HGCN block: a GCN per graph (geo + M temporal).
  struct HgcnPlan {
    GcnPlan geo;
    std::vector<GcnPlan> temporal;
    std::size_t in_dim = 0;
  };
  /// One direction's recurrent cell + estimator.
  struct DirPlan {
    FMatrix w_ih, w_hh, bias;  ///< gate layout [i|f|o|g] (LSTM) / [r|z|n] (GRU)
    FMatrix est_w, est_b;
  };

  /// Graph ops from a Laplacian cache: the model's own, with `graphs`
  /// supplying the dense Laplacian of every graph the cache leaves out, or
  /// a cluster's sub-Laplacians with `graphs` null (every graph must then be
  /// CSR-covered; throws std::invalid_argument otherwise).
  void compile_graph_ops(const HgcnBlock::SparseLaps& laps,
                         const HeterogeneousGraphs* graphs);
  /// One CSR Laplacian in its cheaper apply form (see GraphOp).
  [[nodiscard]] GraphOp compile_csr_op(const CsrMatrix& lap) const;
  [[nodiscard]] static GcnPlan compile_gcn(
      const std::vector<ad::Parameter*>& params, std::size_t offset,
      std::size_t order);

  /// out = L · x per diagonal block (rows = batch · n_); lap_xt/lap_ot
  /// workspace scratch back the transposed-dense path.
  void apply_lap(const GraphOp& g, const float* x, float* out,
                 std::size_t batch, std::size_t width, Workspace& ws) const;
  /// out += cheb(gcn, x) for the whole stack; cheb_* workspace scratch.
  void run_gcn(const GcnPlan& gcn, const GraphOp& graph, const float* x,
               std::size_t in_dim, FMatrix& out, Workspace& ws,
               std::size_t batch) const;
  /// s = HGCN(x) (interval-weighted graph mixture + ReLU), per-window slots.
  void run_hgcn(const HgcnPlan& plan, const float* x, FMatrix& out,
                Workspace& ws, std::size_t batch, std::size_t step,
                bool layer2) const;
  /// One recurrent direction; fills ws.zcat[t] columns [col0, col0+p+q).
  void run_direction(const DirPlan& dir, Workspace& ws, std::size_t batch,
                     bool reverse, std::size_t col0) const;

  // ---- compiled plan -------------------------------------------------------
  std::size_t n_ = 0, f_ = 0;
  std::size_t lookback_ = 0, horizon_ = 0;
  std::size_t gcn_dim_ = 0, lstm_dim_ = 0, cheb_order_ = 0;
  std::size_t z_width_ = 0;
  std::size_t steps_per_day_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t num_threads_ = 0;
  bool bidirectional_ = false;
  bool attention_head_ = false;
  nn::CellKind cell_ = nn::CellKind::kLstm;

  GraphOp geo_op_;
  std::vector<GraphOp> temporal_ops_;
  HgcnPlan hgcn1_;
  HgcnPlan hgcn2_;  ///< empty theta when the model has one HGCN layer
  bool has_hgcn2_ = false;
  DirPlan fwd_;
  DirPlan bwd_;
  FMatrix head_w_, head_b_;
  FMatrix attn_w_, attn_b_;
  /// interval_weights(slot) for every slot, row-major slot x M. Kept in
  /// double so the per-window "skip graph m when w ≤ 1e-8" rule matches the
  /// tape path exactly; narrowed to f32 only at the accumulation site.
  std::vector<double> interval_w_;

  Workspace scratch_;  ///< backs the convenience predict()
};

}  // namespace rihgcn::core
