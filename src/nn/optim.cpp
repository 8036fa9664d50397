#include "nn/optim.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rihgcn::nn {

AdamOptimizer::AdamOptimizer(std::vector<ad::Parameter*> params, Config config)
    : params_(std::move(params)), config_(config), lr_(config.lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ad::Parameter* p : params_) {
    if (p == nullptr) throw std::invalid_argument("AdamOptimizer: null param");
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

void AdamOptimizer::zero_grad() {
  for (ad::Parameter* p : params_) p->zero_grad();
}

double AdamOptimizer::step() {
  const double raw_norm = global_grad_norm(params_);
  if (config_.max_grad_norm > 0.0) {
    clip_global_grad_norm(params_, config_.max_grad_norm);
  }
  ++t_;
  if (config_.lr_decay_every > 0 && config_.lr_decay != 1.0 &&
      t_ % config_.lr_decay_every == 0) {
    lr_ *= config_.lr_decay;
  }
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ad::Parameter& p = *params_[i];
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    double* pv = p.value().data();
    const double* g = p.grad().data();
    double* mp = m.data();
    double* vp = v.data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (config_.weight_decay > 0.0) {
        pv[j] -= lr_ * config_.weight_decay * pv[j];  // decoupled (AdamW)
      }
      mp[j] = config_.beta1 * mp[j] + (1.0 - config_.beta1) * g[j];
      vp[j] = config_.beta2 * vp[j] + (1.0 - config_.beta2) * g[j] * g[j];
      const double mhat = mp[j] / bc1;
      const double vhat = vp[j] / bc2;
      pv[j] -= lr_ * mhat / (std::sqrt(vhat) + config_.eps);
    }
  }
  return raw_norm;
}

AdamOptimizer::State AdamOptimizer::state() const {
  State s;
  state_into(s);
  return s;
}

void AdamOptimizer::state_into(State& out) const {
  // Element-wise assignment so Matrix buffers are reused when `out` was
  // filled from this optimizer before; callers that snapshot every step
  // (NumericalGuard) then pay a memcpy, not an allocation, per step.
  out.m.resize(m_.size());
  out.v.resize(v_.size());
  for (std::size_t i = 0; i < m_.size(); ++i) out.m[i] = m_[i];
  for (std::size_t i = 0; i < v_.size(); ++i) out.v[i] = v_[i];
  out.t = t_;
  out.lr = lr_;
}

void AdamOptimizer::set_state(const State& s) {
  if (s.m.size() != m_.size() || s.v.size() != v_.size()) {
    throw std::invalid_argument("AdamOptimizer::set_state: moment count mismatch");
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (!s.m[i].same_shape(m_[i]) || !s.v[i].same_shape(v_[i])) {
      throw std::invalid_argument(
          "AdamOptimizer::set_state: moment shape mismatch");
    }
  }
  m_ = s.m;
  v_ = s.v;
  t_ = s.t;
  lr_ = s.lr;
}

double global_grad_norm(const std::vector<ad::Parameter*>& params) {
  double s = 0.0;
  for (const ad::Parameter* p : params) {
    const double n = p->grad().norm();
    s += n * n;
  }
  return std::sqrt(s);
}

void clip_global_grad_norm(const std::vector<ad::Parameter*>& params,
                           double max_norm) {
  const double norm = global_grad_norm(params);
  if (norm <= max_norm || norm == 0.0) return;
  const double scale = max_norm / norm;
  for (ad::Parameter* p : params) p->grad() *= scale;
}

bool EarlyStopping::update(double value) {
  if (value < best_ - min_delta_) {
    best_ = value;
    bad_epochs_ = 0;
    return true;
  }
  ++bad_epochs_;
  return false;
}

void save_parameters(std::ostream& os,
                     const std::vector<ad::Parameter*>& params) {
  os << "rihgcn-params v1\n" << params.size() << "\n";
  os << std::setprecision(17);
  for (const ad::Parameter* p : params) {
    const Matrix& m = p->value();
    os << p->name() << "\n" << m.rows() << " " << m.cols() << "\n";
    for (std::size_t i = 0; i < m.size(); ++i) {
      os << m.data()[i] << (i + 1 == m.size() ? "" : " ");
    }
    os << "\n";
  }
}

void load_parameters(std::istream& is,
                     const std::vector<ad::Parameter*>& params) {
  std::string magic, version;
  is >> magic >> version;
  if (magic != "rihgcn-params" || version != "v1") {
    throw std::runtime_error("load_parameters: bad header");
  }
  std::size_t count = 0;
  is >> count;
  if (count != params.size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch");
  }
  for (ad::Parameter* p : params) {
    std::string name;
    std::size_t rows = 0, cols = 0;
    is >> name >> rows >> cols;
    if (rows != p->value().rows() || cols != p->value().cols()) {
      throw std::runtime_error("load_parameters: shape mismatch for '" + name +
                               "'");
    }
    for (std::size_t i = 0; i < p->value().size(); ++i) {
      is >> p->value().data()[i];
    }
  }
  if (!is) throw std::runtime_error("load_parameters: truncated stream");
}

// ---- Durable training checkpoints ------------------------------------------

namespace {

void write_matrix_block(std::ostream& os, const Matrix& m) {
  os << m.rows() << " " << m.cols() << "\n";
  for (std::size_t i = 0; i < m.size(); ++i) {
    os << m.data()[i] << (i + 1 == m.size() ? "" : " ");
  }
  os << "\n";
}

Matrix read_matrix_block(std::istream& is, const char* what) {
  std::size_t rows = 0, cols = 0;
  if (!(is >> rows >> cols)) {
    throw std::runtime_error(std::string("load_training_checkpoint: bad ") +
                             what + " shape");
  }
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!(is >> m.data()[i])) {
      throw std::runtime_error(std::string("load_training_checkpoint: "
                                           "truncated ") +
                               what);
    }
  }
  return m;
}

void expect_keyword(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  if (token != expected) {
    throw std::runtime_error("load_training_checkpoint: expected '" +
                             expected + "', got '" + token + "'");
  }
}

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& bytes) {
  return crc32(reinterpret_cast<const unsigned char*>(bytes.data()),
               bytes.size());
}

void save_training_checkpoint(const std::string& path,
                              const TrainCheckpoint& ckpt,
                              const std::vector<ad::Parameter*>& params) {
  if (ckpt.adam.m.size() != params.size()) {
    throw std::invalid_argument(
        "save_training_checkpoint: adam state / parameter count mismatch");
  }
  // Build the payload in memory first: the CRC covers exactly these bytes.
  std::ostringstream payload;
  payload << std::setprecision(17);  // lossless binary64 text round trip
  payload << "epoch " << ckpt.epoch << "\n";
  payload << "contract " << ckpt.batch_size << " " << ckpt.num_clusters << " "
          << ckpt.seed << "\n";
  payload << "rng";
  for (const std::uint64_t w : ckpt.rng.words) payload << " " << w;
  payload << " " << (ckpt.rng.has_cached_normal ? 1 : 0) << " "
          << ckpt.rng.cached_normal << "\n";
  payload << "adam " << ckpt.adam.t << " " << ckpt.adam.lr << " "
          << ckpt.adam.m.size() << "\n";
  for (std::size_t i = 0; i < ckpt.adam.m.size(); ++i) {
    write_matrix_block(payload, ckpt.adam.m[i]);
    write_matrix_block(payload, ckpt.adam.v[i]);
  }
  payload << "stopper " << ckpt.stopper_best << " " << ckpt.stopper_bad_epochs
          << "\n";
  payload << "guard " << ckpt.guard_loss_ema << " "
          << (ckpt.guard_ema_initialized ? 1 : 0) << " "
          << ckpt.guard_good_steps << " " << ckpt.guard_consecutive_bad << " "
          << ckpt.guard_backoffs_used << "\n";
  save_parameters(payload, params);
  payload << "best " << ckpt.best_values.size() << "\n";
  for (const Matrix& m : ckpt.best_values) write_matrix_block(payload, m);
  const std::string bytes = payload.str();

  // Atomic write: temp file in the same directory, then rename into place.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("save_training_checkpoint: cannot open " + tmp);
    }
    os << "rihgcn-train-ckpt v3\n";
    os << "crc32 " << crc32(bytes) << " " << bytes.size() << "\n";
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      throw std::runtime_error("save_training_checkpoint: write failed for " +
                               tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("save_training_checkpoint: rename to " + path +
                             " failed");
  }
}

TrainCheckpoint load_training_checkpoint(
    const std::string& path, const std::vector<ad::Parameter*>& params) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("load_training_checkpoint: cannot open " + path);
  }
  std::string magic, version;
  is >> magic >> version;
  if (magic == "rihgcn-train-ckpt" && version == "v2") {
    throw std::runtime_error(
        "load_training_checkpoint: " + path +
        " is a v2 checkpoint: v2 keyed its determinism contract on the "
        "trainer thread count, which v3 training no longer depends on, so it "
        "cannot resume bitwise; restart the run");
  }
  if (magic != "rihgcn-train-ckpt" || version != "v3") {
    throw std::runtime_error("load_training_checkpoint: bad header in " +
                             path);
  }
  std::string crc_kw;
  std::uint32_t stored_crc = 0;
  std::size_t payload_size = 0;
  is >> crc_kw >> stored_crc >> payload_size;
  if (!is || crc_kw != "crc32") {
    throw std::runtime_error("load_training_checkpoint: bad crc line");
  }
  is.get();  // consume the newline terminating the crc line
  std::string bytes(std::istreambuf_iterator<char>(is), {});
  if (bytes.size() != payload_size) {
    throw std::runtime_error("load_training_checkpoint: truncated payload (" +
                             std::to_string(bytes.size()) + " of " +
                             std::to_string(payload_size) + " bytes)");
  }
  if (crc32(bytes) != stored_crc) {
    throw std::runtime_error(
        "load_training_checkpoint: CRC mismatch — checkpoint is corrupt");
  }

  std::istringstream payload(bytes);
  TrainCheckpoint ckpt;
  expect_keyword(payload, "epoch");
  payload >> ckpt.epoch;
  expect_keyword(payload, "contract");
  payload >> ckpt.batch_size >> ckpt.num_clusters >> ckpt.seed;
  expect_keyword(payload, "rng");
  int has_cached = 0;
  for (std::uint64_t& w : ckpt.rng.words) payload >> w;
  payload >> has_cached >> ckpt.rng.cached_normal;
  ckpt.rng.has_cached_normal = has_cached != 0;
  expect_keyword(payload, "adam");
  std::size_t adam_count = 0;
  payload >> ckpt.adam.t >> ckpt.adam.lr >> adam_count;
  if (!payload || adam_count != params.size()) {
    throw std::runtime_error(
        "load_training_checkpoint: adam moment count mismatch");
  }
  ckpt.adam.m.reserve(adam_count);
  ckpt.adam.v.reserve(adam_count);
  for (std::size_t i = 0; i < adam_count; ++i) {
    ckpt.adam.m.push_back(read_matrix_block(payload, "adam m"));
    ckpt.adam.v.push_back(read_matrix_block(payload, "adam v"));
  }
  expect_keyword(payload, "stopper");
  payload >> ckpt.stopper_best >> ckpt.stopper_bad_epochs;
  expect_keyword(payload, "guard");
  int ema_init = 0;
  payload >> ckpt.guard_loss_ema >> ema_init >> ckpt.guard_good_steps >>
      ckpt.guard_consecutive_bad >> ckpt.guard_backoffs_used;
  ckpt.guard_ema_initialized = ema_init != 0;
  load_parameters(payload, params);
  expect_keyword(payload, "best");
  std::size_t best_count = 0;
  payload >> best_count;
  ckpt.best_values.reserve(best_count);
  for (std::size_t i = 0; i < best_count; ++i) {
    ckpt.best_values.push_back(read_matrix_block(payload, "best snapshot"));
  }
  if (!payload) {
    throw std::runtime_error("load_training_checkpoint: truncated payload");
  }
  return ckpt;
}

std::vector<Matrix> snapshot_values(
    const std::vector<ad::Parameter*>& params) {
  std::vector<Matrix> snap;
  snap.reserve(params.size());
  for (const ad::Parameter* p : params) snap.push_back(p->value());
  return snap;
}

void restore_values(const std::vector<Matrix>& snapshot,
                    const std::vector<ad::Parameter*>& params) {
  if (snapshot.size() != params.size()) {
    throw std::invalid_argument("restore_values: size mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!snapshot[i].same_shape(params[i]->value())) {
      throw std::invalid_argument("restore_values: shape mismatch");
    }
    params[i]->value() = snapshot[i];
  }
}

}  // namespace rihgcn::nn
