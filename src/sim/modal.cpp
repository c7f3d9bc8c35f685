#include "sim/modal.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "linalg/simd.hpp"

namespace foscil::sim {

namespace {

// A planning call only ever touches a handful of distinct voltage vectors
// (one per oscillation state the TPT loop has visited), but a long-lived
// evaluator serving many platforms' worth of schedules should not grow
// without bound.  On overflow the memo is simply dropped: recomputation is
// one O(n²) projection per live voltage state.
constexpr std::size_t kMaxCacheEntries = 1024;

// The interval-length memo sees ~2 fresh lengths per TPT iteration (the
// moved boundary's neighbors), so a long ratio-reduction run accumulates a
// few thousand distinct entries.  Each is 2n doubles — at the cap this is a
// few MB, dropped wholesale on overflow like the voltage memo.
constexpr std::size_t kMaxIntervalEntries = 8192;

// Four interleaved FNV-1a lanes over the raw bit patterns, folded and
// avalanched at the end so the low bits the bucket index uses depend on
// every key word.  A single FNV chain serializes on the multiply latency;
// four independent lanes run it at throughput, which matters because the
// memo hit path hashes a cores-sized voltage vector per state interval.
// Exact-bit keying is intentional (see header).
[[nodiscard]] std::size_t hash_doubles(const double* values, std::size_t n) {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t lane[4] = {kOffset, kOffset + 1, kOffset + 2, kOffset + 3};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      lane[l] ^= std::bit_cast<std::uint64_t>(values[i + l]);
      lane[l] *= kPrime;
    }
  }
  for (; i < n; ++i) {
    lane[i % 4] ^= std::bit_cast<std::uint64_t>(values[i]);
    lane[i % 4] *= kPrime;
  }
  std::uint64_t h = lane[0];
  for (std::size_t l = 1; l < 4; ++l) {
    h ^= lane[l];
    h *= kPrime;
  }
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

[[nodiscard]] bool equal_doubles(const double* a, std::size_t na,
                                 const double* b, std::size_t nb) {
  return na == nb &&
         (na == 0 || std::memcmp(a, b, na * sizeof(double)) == 0);
}

}  // namespace

const char* eval_engine_name(EvalEngine engine) {
  switch (engine) {
    case EvalEngine::kReference:
      return "reference";
    case EvalEngine::kModal:
      return "modal";
  }
  FOSCIL_ASSERT(false);
  return "?";
}

std::size_t ModalEvaluator::KeyHash::hash(KeyView key) {
  return hash_doubles(key.data, key.size);
}

bool ModalEvaluator::KeyEq::equal(KeyView a, KeyView b) {
  return equal_doubles(a.data, a.size, b.data, b.size);
}

ModalEvaluator::ModalEvaluator(
    std::shared_ptr<const thermal::ThermalModel> model)
    : model_(std::move(model)) {
  FOSCIL_EXPECTS(model_ != nullptr);
  const auto& w = model_->spectral().w();
  const std::size_t cores = model_->num_cores();
  const std::size_t n = model_->num_nodes();
  w_die_ = linalg::Matrix(cores, n);
  for (std::size_t core = 0; core < cores; ++core) {
    const std::size_t die = model_->network().die_node(core);
    const double* src = w.row_data(die);
    double* dst = w_die_.row_data(core);
    for (std::size_t c = 0; c < n; ++c) dst[c] = src[c];
  }
}

std::shared_ptr<const linalg::Vector> ModalEvaluator::modal_b(
    const linalg::Vector& core_voltages) const {
  return modal_b(view(core_voltages));
}

std::shared_ptr<const linalg::Vector> ModalEvaluator::modal_b(
    KeyView core_voltages) const {
  {
    // Heterogeneous lookup: the hit path hashes the caller's voltages in
    // place — no key materialization, no copy of the cached projection.
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cache_.find(core_voltages);
    if (it != cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
  }
  // Miss: project outside the lock so concurrent misses don't serialize on
  // the O(n²) matvec, then publish (a racing duplicate insert is harmless —
  // both threads computed the same vector).
  std::vector<double> key(core_voltages.data,
                          core_voltages.data + core_voltages.size);
  linalg::Vector voltages(key.size());
  std::copy(key.begin(), key.end(), voltages.begin());
  auto b_hat = std::make_shared<const linalg::Vector>(
      model_->spectral().w_inverse() * model_->b_vector(voltages));
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (cache_.size() >= kMaxCacheEntries) cache_.clear();
    cache_.emplace(std::move(key), b_hat);
  }
  return b_hat;
}

std::shared_ptr<const linalg::Vector> ModalEvaluator::resolvent_factors(
    double period) const {
  FOSCIL_EXPECTS(period > 0.0);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = resolvent_cache_.find(period);
    if (it != resolvent_cache_.end()) return it->second;
  }
  const auto& lambda = model_->spectral().eigenvalues();
  linalg::Vector factors(lambda.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    const double decay = std::exp(lambda[i] * period);
    FOSCIL_ASSERT(decay < 1.0);  // guaranteed by stability
    factors[i] = 1.0 / (1.0 - decay);
  }
  auto shared = std::make_shared<const linalg::Vector>(std::move(factors));
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (resolvent_cache_.size() >= kMaxCacheEntries) resolvent_cache_.clear();
    resolvent_cache_.emplace(period, shared);
  }
  return shared;
}

std::shared_ptr<const ModalEvaluator::IntervalFactors>
ModalEvaluator::interval_factors(double dt) const {
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = interval_cache_.find(dt);
    if (it != interval_cache_.end()) return it->second;
  }
  const auto& lambda = model_->spectral().eigenvalues();
  const std::size_t n = lambda.size();
  auto factors = std::make_shared<IntervalFactors>(n);
  double* e_p = factors->exp();
  double* p_p = factors->phi();
  for (std::size_t i = 0; i < n; ++i) {
    e_p[i] = std::exp(lambda[i] * dt);
    p_p[i] = linalg::phi_factor(lambda[i], dt);
  }
  std::shared_ptr<const IntervalFactors> shared = std::move(factors);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (interval_cache_.size() >= kMaxIntervalEntries)
      interval_cache_.clear();
    interval_cache_.emplace(dt, shared);
  }
  return shared;
}

linalg::Vector ModalEvaluator::period_end_modal(
    const sched::PeriodicSchedule& s) const {
  const std::size_t n = model_->spectral().size();
  const linalg::simd::Kernels& kern = linalg::simd::kernels();
  linalg::Vector y(n);  // ambient start: T = 0 is y = 0 in any basis
  sched::IntervalBuffer intervals;
  s.state_intervals_into(intervals);
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const std::shared_ptr<const linalg::Vector> b_hat =
        modal_b(KeyView{intervals.voltages(k), intervals.num_cores()});
    const std::shared_ptr<const IntervalFactors> f =
        interval_factors(intervals.length(k));
    kern.modal_step(n, f->exp(), f->phi(), b_hat->data(), y.data());
  }
  return y;
}

linalg::Vector ModalEvaluator::stable_boundary_modal(
    const sched::PeriodicSchedule& s) const {
  linalg::Vector y = period_end_modal(s);
  const std::shared_ptr<const linalg::Vector> factors =
      resolvent_factors(s.period());
  linalg::simd::kernels().hadamard_scale(y.size(), factors->data(), y.data());
  return y;
}

linalg::Vector ModalEvaluator::stable_boundary(
    const sched::PeriodicSchedule& s) const {
  return model_->spectral().w() * stable_boundary_modal(s);
}

linalg::Vector ModalEvaluator::core_rises_from_modal(
    const linalg::Vector& modal) const {
  return w_die_ * modal;
}

linalg::Vector ModalEvaluator::stable_core_rises(
    const sched::PeriodicSchedule& s) const {
  return core_rises_from_modal(stable_boundary_modal(s));
}

std::vector<linalg::Vector> ModalEvaluator::batch_stable_core_rises(
    const sched::PeriodicSchedule* schedules, std::size_t count) const {
  std::vector<linalg::Vector> rises(count);
  if (count == 0) return rises;
  Batch batch(*this);
  for (std::size_t idx = 0; idx < count; ++idx) batch.add(schedules[idx]);
  batch.finish();
  const std::size_t cores = w_die_.rows();
  for (std::size_t idx = 0; idx < count; ++idx) {
    linalg::Vector out(cores);
    std::copy_n(batch.core_rises(idx), cores, out.data());
    rises[idx] = std::move(out);
  }
  return rises;
}

ModalEvaluator::Batch::Batch(const ModalEvaluator& evaluator)
    : evaluator_(&evaluator) {
  b_.reserve(64);
  factors_.reserve(64);
  resolvents_.reserve(8);
}

void ModalEvaluator::Batch::add(const sched::PeriodicSchedule& s) {
  const ModalEvaluator& ev = *evaluator_;
  const std::size_t n = ev.model_->spectral().size();
  const linalg::simd::Kernels& kern = linalg::simd::kernels();
  if (rows_ == y_.rows()) {
    // Grow geometrically, carrying the rows already evaluated.
    linalg::Matrix grown(std::max<std::size_t>(8, 2 * rows_), n);
    if (rows_ > 0)
      std::copy_n(y_.row_data(0), rows_ * n, grown.row_data(0));
    y_ = std::move(grown);
  }
  double* y_row = y_.row_data(rows_);
  std::fill_n(y_row, n, 0.0);  // ambient start
  s.state_intervals_into(intervals_);
  // The views are bounded like the memos behind them; on overflow they are
  // simply dropped and refilled from the evaluator.
  if (b_.size() >= kMaxCacheEntries) b_.clear();
  if (factors_.size() >= kMaxCacheEntries) factors_.clear();
  if (resolvents_.size() >= kMaxCacheEntries) resolvents_.clear();
  for (std::size_t k = 0; k < intervals_.size(); ++k) {
    const KeyView voltages{intervals_.voltages(k), intervals_.num_cores()};
    auto b_it = b_.find(voltages);
    if (b_it == b_.end())
      b_it = b_.emplace(std::vector<double>(voltages.data,
                                            voltages.data + voltages.size),
                        ev.modal_b(voltages))
                 .first;
    const double length = intervals_.length(k);
    auto f_it = factors_.find(length);
    if (f_it == factors_.end())
      f_it = factors_.emplace(length, ev.interval_factors(length)).first;
    kern.modal_step(n, f_it->second->exp(), f_it->second->phi(),
                    b_it->second->data(), y_row);
  }
  auto r_it = resolvents_.find(s.period());
  if (r_it == resolvents_.end())
    r_it =
        resolvents_.emplace(s.period(), ev.resolvent_factors(s.period())).first;
  kern.hadamard_scale(n, r_it->second->data(), y_row);
  ++rows_;
}

void ModalEvaluator::Batch::finish() {
  if (rows_ == 0) return;
  const linalg::Matrix& w_die = evaluator_->w_die_;
  if (rises_.rows() < y_.rows())
    rises_ = linalg::Matrix(y_.rows(), w_die.rows());
  // R = Y · W_dieᵀ: entry (i, core) is the canonical dot of boundary row i
  // with die row `core`, the same products and accumulation order as the
  // single-candidate gemv W_die · y.
  linalg::simd::kernels().mtr(rows_, w_die.rows(), w_die.cols(),
                              y_.row_data(0), y_.cols(), w_die.row_data(0),
                              w_die.cols(), rises_.row_data(0),
                              rises_.cols());
}

std::size_t ModalEvaluator::cache_entries() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

std::uint64_t ModalEvaluator::cache_hits() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_hits_;
}

}  // namespace foscil::sim
