// Elementary-op reference chains for the fused recurrent cells
// (Tape::lstm_cell / Tape::gru_cell, DESIGN.md §10). Each step is built
// from slice/σ/tanh/mul/add tape nodes over the cell's own parameters, so
// the fused kernels must match it bit for bit — values and every gradient —
// under every ISA and thread count.
//
// One statement per node pins the tape creation order (C++ argument
// evaluation order is unspecified); the fused kernels' backwards replay the
// reverse of exactly this sequence.
#pragma once

#include <cstddef>

#include "autodiff/tape.hpp"
#include "nn/layers.hpp"

namespace rihgcn::ref {

/// One unfused LSTM step over `cell`'s {w_ih, w_hh, bias} (gate layout
/// [i | f | o | g]).
inline nn::RecurrentCell::State step(ad::Tape& tape, nn::LstmCell& cell,
                                     ad::Var x,
                                     const nn::RecurrentCell::State& prev) {
  const auto params = cell.parameters();
  ad::Var w_ih = tape.leaf(*params[0]);
  ad::Var w_hh = tape.leaf(*params[1]);
  ad::Var b = tape.leaf(*params[2]);
  const std::size_t H = cell.hidden_dim();
  ad::Var mm1 = tape.matmul(x, w_ih);
  ad::Var mm2 = tape.matmul(prev.h, w_hh);
  ad::Var pre = tape.add(mm1, mm2);
  ad::Var gates = tape.add_row_broadcast(pre, b);
  ad::Var i = tape.sigmoid(tape.slice_cols(gates, 0, H));
  ad::Var f = tape.sigmoid(tape.slice_cols(gates, H, 2 * H));
  ad::Var o = tape.sigmoid(tape.slice_cols(gates, 2 * H, 3 * H));
  ad::Var g = tape.tanh(tape.slice_cols(gates, 3 * H, 4 * H));
  ad::Var fc = tape.mul(f, prev.c);
  ad::Var ig = tape.mul(i, g);
  ad::Var c = tape.add(fc, ig);
  ad::Var h = tape.mul(o, tape.tanh(c));
  return {h, c};
}

/// One unfused GRU step over `cell`'s {w_ih, w_hh, bias} (gate layout
/// [r | z | n]).
inline nn::RecurrentCell::State step(ad::Tape& tape, nn::GruCell& cell,
                                     ad::Var x,
                                     const nn::RecurrentCell::State& prev) {
  const auto params = cell.parameters();
  ad::Var w_ih = tape.leaf(*params[0]);
  ad::Var w_hh = tape.leaf(*params[1]);
  ad::Var b = tape.leaf(*params[2]);
  const std::size_t H = cell.hidden_dim();
  ad::Var xi = tape.matmul(x, w_ih);  // batch x 3H
  ad::Var hh = tape.matmul(prev.h, w_hh);
  ad::Var xr = tape.slice_cols(xi, 0, H);
  ad::Var hr = tape.slice_cols(hh, 0, H);
  ad::Var ar = tape.add(xr, hr);
  ad::Var br = tape.slice_cols(b, 0, H);
  ad::Var r = tape.sigmoid(tape.add_row_broadcast(ar, br));
  ad::Var xz = tape.slice_cols(xi, H, 2 * H);
  ad::Var hz = tape.slice_cols(hh, H, 2 * H);
  ad::Var az = tape.add(xz, hz);
  ad::Var bz = tape.slice_cols(b, H, 2 * H);
  ad::Var z = tape.sigmoid(tape.add_row_broadcast(az, bz));
  ad::Var xn = tape.slice_cols(xi, 2 * H, 3 * H);
  ad::Var hn = tape.slice_cols(hh, 2 * H, 3 * H);
  ad::Var rn = tape.mul(r, hn);
  ad::Var an = tape.add(xn, rn);
  ad::Var bn = tape.slice_cols(b, 2 * H, 3 * H);
  ad::Var n = tape.tanh(tape.add_row_broadcast(an, bn));
  // h' = (1 - z) ⊙ n + z ⊙ h = n − z⊙n + z⊙h
  ad::Var zn = tape.mul(z, n);
  ad::Var nm = tape.sub(n, zn);
  ad::Var zh = tape.mul(z, prev.h);
  ad::Var h = tape.add(nm, zh);
  return {h, h};
}

}  // namespace rihgcn::ref
