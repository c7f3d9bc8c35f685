// Modal-space schedule evaluation: the fast path behind eqs. (3) and (4).
//
// The reference walk (TransientSimulator + SteadyStateAnalyzer) pays two
// dense W/W⁻¹ matvecs per state interval inside exp_apply/phi_apply — an
// O(k·n²) cost per candidate schedule with k intervals on n thermal nodes.
// Since the model is LTI and eagerly diagonalized (A = W Λ W⁻¹), the whole
// evaluation can instead run in eigen-coordinates y = W⁻¹·T:
//
//   * the ambient start T(0) = 0 is y = 0 — no projection needed;
//   * each interval is a *diagonal* recurrence
//       y ← e^{λ·dt} ⊙ y + φ(λ, dt) ⊙ b̂(v),   b̂(v) = W⁻¹·B(v),
//     where b̂(v) is memoized per distinct voltage vector (an oscillating
//     schedule only ever visits a handful of voltage states, so the
//     projection cost is paid once per state, not once per interval);
//   * the stable-boundary resolvent (I − e^{A·t_p})⁻¹ is the diagonal
//     scaling 1/(1 − e^{λ·t_p});
//   * only the final boundary is transformed back to node space — and when
//     the caller only needs die-node rises (peak checks, TPT scans), only
//     the die rows of W are applied: O(cores·n) instead of O(n²).
//
// Net per-candidate cost: O(k·n + n²) (or O(k·n + cores·n) for core rises)
// versus the reference O(k·n²).  The factors used (phi_factor, the resolvent
// decay, b_vector) are the *same arithmetic* as the reference engine, so the
// two agree to roundoff; tests/sim/modal_test.cpp pins ≤1e-10.
//
// Thread safety: evaluation methods are const and safe to call from many
// threads sharing one evaluator.  The b̂ memo is the one piece of mutable
// state, guarded by a mutex per the ThermalModel concurrency contract
// (thermal/model.hpp); misses compute outside the lock, so concurrent
// evaluations never serialize on the projection itself.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sched/schedule.hpp"
#include "thermal/model.hpp"

namespace foscil::sim {

/// Which arithmetic evaluates candidate schedules: the reference dense
/// interval walk, or the modal diagonal recurrence.  Both compute the same
/// quantities.  The planners run on the modal engine; the reference walk
/// backs the Theorem-2 audit, the differential tests and the engine bench.
enum class EvalEngine {
  kReference,  ///< dense exp_apply/phi_apply per interval, O(k·n²)
  kModal,      ///< diagonal recurrence in eigen-coordinates, O(k·n + n²)
};

[[nodiscard]] const char* eval_engine_name(EvalEngine engine);

class ModalEvaluator {
 public:
  explicit ModalEvaluator(std::shared_ptr<const thermal::ThermalModel> model);

  [[nodiscard]] const thermal::ThermalModel& model() const { return *model_; }

  /// End-of-period temperature from ambient start, in modal coordinates
  /// (apply w() to recover node-space T(t_p)).
  [[nodiscard]] linalg::Vector period_end_modal(
      const sched::PeriodicSchedule& s) const;

  /// Stable-status boundary temperature in modal coordinates: the resolvent
  /// 1/(1 − e^{λ·t_p}) applied to period_end_modal.
  [[nodiscard]] linalg::Vector stable_boundary_modal(
      const sched::PeriodicSchedule& s) const;

  /// Node-space stable boundary (matches SteadyStateAnalyzer::stable_boundary
  /// to roundoff): full W back-transform of stable_boundary_modal.
  [[nodiscard]] linalg::Vector stable_boundary(
      const sched::PeriodicSchedule& s) const;

  /// Die-node rises of the stable boundary without the full back-transform:
  /// only the cores×n die-row slice of W is applied.
  [[nodiscard]] linalg::Vector stable_core_rises(
      const sched::PeriodicSchedule& s) const;

  /// Stable-boundary die rises for `count` schedules in one pass,
  /// bit-identical to calling stable_core_rises on each.  A thin wrapper
  /// over one Batch (below), which documents the batch economies.
  [[nodiscard]] std::vector<linalg::Vector> batch_stable_core_rises(
      const sched::PeriodicSchedule* schedules, std::size_t count) const;

  class Batch;

  /// Die-node rises from an already-computed modal vector.
  [[nodiscard]] linalg::Vector core_rises_from_modal(
      const linalg::Vector& modal) const;

  /// Die-row slice of W (num_cores × num_nodes): row i back-transforms the
  /// rise of core i's die node.
  [[nodiscard]] const linalg::Matrix& w_die() const { return w_die_; }

  /// b̂(v) = W⁻¹·B(v) for one voltage vector, served from the memo.  The
  /// returned pointer stays valid after the bounded memo evicts (entries are
  /// shared, not owned by the map slot).
  [[nodiscard]] std::shared_ptr<const linalg::Vector> modal_b(
      const linalg::Vector& core_voltages) const;

  /// Diagonal resolvent factors 1/(1 − e^{λ·period}), memoized per distinct
  /// period (a planning loop evaluates thousands of candidates at the same
  /// sub-period, so the 2n exponentials are paid once, not per candidate).
  [[nodiscard]] std::shared_ptr<const linalg::Vector> resolvent_factors(
      double period) const;

  /// Per-interval diagonal factors e^{λ·dt} and φ(λ, dt), memoized per
  /// distinct interval length.  A TPT scan moves one core's oscillation
  /// boundary per iteration, so nearly every interval length recurs across
  /// the thousands of candidates it evaluates; caching turns the dominant
  /// 2n transcendentals per interval into one hash lookup.  The values are
  /// the same std::exp / phi_factor arithmetic as the uncached path, so
  /// results are bit-identical whether or not an entry was cached.
  ///
  /// Storage is structure-of-arrays in one aligned allocation: e^{λ·dt}
  /// occupies [0, n) and φ(λ, dt) occupies [n, 2n), so the modal_step
  /// kernel streams both halves contiguously and the pair costs one
  /// allocation instead of two.
  class IntervalFactors {
   public:
    explicit IntervalFactors(std::size_t n) : n_(n), packed_(2 * n) {}

    /// e^{λ_i·dt}, i in [0, n).
    [[nodiscard]] const double* exp() const { return packed_.data(); }
    [[nodiscard]] double* exp() { return packed_.data(); }
    /// phi_factor(λ_i, dt), i in [0, n).
    [[nodiscard]] const double* phi() const { return packed_.data() + n_; }
    [[nodiscard]] double* phi() { return packed_.data() + n_; }

    [[nodiscard]] std::size_t size() const { return n_; }

   private:
    std::size_t n_;
    linalg::Vector packed_;
  };
  [[nodiscard]] std::shared_ptr<const IntervalFactors> interval_factors(
      double dt) const;

  /// Memo observability for tests: distinct voltage vectors currently held
  /// and lifetime hit count.
  [[nodiscard]] std::size_t cache_entries() const;
  [[nodiscard]] std::uint64_t cache_hits() const;

 private:
  // Voltage vectors are memo keys by exact bit pattern: planners construct
  // them from the same level doubles every time, so exact equality is the
  // right notion (a vector differing in one ulp is simply a fresh entry).
  // The hash and equality are transparent over linalg::Vector and over a
  // raw row of an IntervalBuffer, so the hit path never materializes a key
  // (C++20 heterogeneous lookup).
  struct KeyView {
    const double* data;
    std::size_t size;
  };
  static KeyView view(KeyView key) { return key; }
  static KeyView view(const std::vector<double>& key) {
    return {key.data(), key.size()};
  }
  static KeyView view(const linalg::Vector& key) {
    return {key.data(), key.size()};
  }
  struct KeyHash {
    using is_transparent = void;
    template <typename Key>
    std::size_t operator()(const Key& key) const {
      return hash(view(key));
    }
    static std::size_t hash(KeyView key);
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return equal(view(a), view(b));
    }
    static bool equal(KeyView a, KeyView b);
  };
  using VoltageMemo =
      std::unordered_map<std::vector<double>,
                         std::shared_ptr<const linalg::Vector>, KeyHash, KeyEq>;

  /// modal_b over a raw voltage row (the batch pass's miss path).
  [[nodiscard]] std::shared_ptr<const linalg::Vector> modal_b(
      KeyView core_voltages) const;

  std::shared_ptr<const thermal::ThermalModel> model_;
  linalg::Matrix w_die_;  // die rows of spectral().w()

  mutable std::mutex cache_mutex_;
  mutable VoltageMemo cache_;
  mutable std::unordered_map<double, std::shared_ptr<const linalg::Vector>>
      resolvent_cache_;
  mutable std::unordered_map<double, std::shared_ptr<const IntervalFactors>>
      interval_cache_;
  mutable std::uint64_t cache_hits_ = 0;
};

/// Incremental batch of stable-boundary die-rise evaluations on one
/// evaluator.  add() runs a schedule's modal recurrence at once into the
/// next row of a boundary block Y, so the caller may mutate and reuse the
/// schedule right after; finish() back-transforms every row in one packed
/// GEMM, Y · W_dieᵀ, and core_rises(i) then reads row i.  Each entry is the
/// same canonical dot (with commuted, hence identical, products) as the
/// single-candidate gemv, so every row is bit-identical to
/// stable_core_rises on the same schedule.
///
/// Two economies make a candidate scan allocation-free once the batch has
/// warmed up: (a) the intervals are merged into a reused IntervalBuffer
/// and the Y and rise blocks keep their storage across clear(); (b) factor
/// lookups go through batch-local views of the evaluator's memos, keyed by
/// hashing the flat voltage row in place, so the global mutex is taken once
/// per *distinct* voltage state, interval length and period for as long as
/// the batch lives instead of twice per interval per candidate.  The views
/// hold the same shared factor objects the single-candidate path uses, so
/// nothing about the arithmetic changes.
///
/// Keep one per scanning thread for the length of a planning call; a batch
/// is not safe to share between threads, and must not outlive its
/// evaluator.
class ModalEvaluator::Batch {
 public:
  explicit Batch(const ModalEvaluator& evaluator);

  /// Forget the rows of the previous batch (storage and memo views stay).
  void clear() { rows_ = 0; }
  /// Evaluate `s` into the next boundary row.
  void add(const sched::PeriodicSchedule& s);
  /// Back-transform every row added since clear().
  void finish();

  /// num_cores() die rises of row i; valid from finish() until the next
  /// clear() or add().
  [[nodiscard]] const double* core_rises(std::size_t i) const {
    FOSCIL_EXPECTS(i < rows_);
    return rises_.row_data(i);
  }

 private:
  const ModalEvaluator* evaluator_;
  sched::IntervalBuffer intervals_;
  VoltageMemo b_;
  std::unordered_map<double, std::shared_ptr<const IntervalFactors>>
      factors_;
  std::unordered_map<double, std::shared_ptr<const linalg::Vector>>
      resolvents_;
  linalg::Matrix y_;      // capacity × n modal boundaries
  linalg::Matrix rises_;  // capacity × cores die rises
  std::size_t rows_ = 0;
};

}  // namespace foscil::sim
