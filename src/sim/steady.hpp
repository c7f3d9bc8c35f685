// Thermal stable status of periodic schedules (eq. 4 of the paper).
//
// Repeating a periodic schedule forever drives the temperature into a
// periodic steady state.  With K = e^{A t_p} and T(t_p) the cold-start
// (T(0) = 0) end-of-period temperature, the stable-status temperature at the
// period boundary is
//     T_ss(t_p) = (I - K)^{-1} T(t_p),
// which is eq. (4) specialized to q = z; interior boundaries follow by
// propagating forward with eq. (3).  (I - K)^{-1} is evaluated through the
// spectral cache: 1/(1 - e^{lambda_i t_p}) on the eigenbasis.
//
// The analyzer evaluates that boundary with one of two engines (sim/modal.hpp):
// the reference dense interval walk, or the modal diagonal recurrence that
// stays in eigen-coordinates until the final back-transform.  Both produce
// the same temperatures to roundoff; the modal engine is the planners' fast
// path and the reference engine remains the independently-coded cross-check
// (the Theorem-2 audit certificates are always recomputed on it).
#pragma once

#include <optional>

#include "sim/modal.hpp"
#include "sim/transient.hpp"

namespace foscil::sim {

class SteadyStateAnalyzer {
 public:
  explicit SteadyStateAnalyzer(
      std::shared_ptr<const thermal::ThermalModel> model,
      EvalEngine engine = EvalEngine::kReference);

  [[nodiscard]] const TransientSimulator& simulator() const { return sim_; }
  [[nodiscard]] const thermal::ThermalModel& model() const {
    return sim_.model();
  }

  [[nodiscard]] EvalEngine engine() const {
    return modal_ ? EvalEngine::kModal : EvalEngine::kReference;
  }

  /// The modal evaluator backing this analyzer, or nullptr when it runs on
  /// the reference engine.  Exposed so hot loops (TPT scans, peak checks)
  /// can use the die-row fast path directly.
  [[nodiscard]] const ModalEvaluator* modal() const { return modal_.get(); }

  /// Stable-status temperature at the period start/end boundary.
  [[nodiscard]] linalg::Vector stable_boundary(
      const sched::PeriodicSchedule& s) const;

  /// Die-node rises of the stable boundary.  Equivalent to
  /// model().core_rises(stable_boundary(s)) but skips the full node-space
  /// back-transform on the modal engine (O(cores·n) instead of O(n²)).
  [[nodiscard]] linalg::Vector stable_core_rises(
      const sched::PeriodicSchedule& s) const;

  /// stable_core_rises for a whole candidate batch, bit-identical to the
  /// per-schedule calls.  On the modal engine this is the amortized SoA
  /// pass (ModalEvaluator::batch_stable_core_rises); the reference engine
  /// evaluates each schedule independently.
  [[nodiscard]] std::vector<linalg::Vector> batch_stable_core_rises(
      const sched::PeriodicSchedule* schedules, std::size_t count) const;

  /// Stable-status temperatures at every state-interval boundary
  /// (element q is T_ss(t_q); element 0 equals the last element).
  [[nodiscard]] std::vector<linalg::Vector> stable_boundaries(
      const sched::PeriodicSchedule& s) const;

  /// One period of densely sampled stable-status trace.
  [[nodiscard]] std::vector<TraceSample> stable_trace(
      const sched::PeriodicSchedule& s, double dt_sample) const;

  /// Apply (I - e^{A t_p})^{-1} to a vector through the spectral cache.
  [[nodiscard]] linalg::Vector resolvent_apply(double period,
                                               const linalg::Vector& x) const;

 private:
  TransientSimulator sim_;
  std::shared_ptr<const ModalEvaluator> modal_;  // null on kReference
};

/// The analyzer the planners (run_ao, run_pco) evaluate candidates on: the
/// modal engine.  The reference walk is the audit and test oracle.
[[nodiscard]] SteadyStateAnalyzer planning_analyzer(
    std::shared_ptr<const thermal::ThermalModel> model);

/// Incremental stable-die-rise batch on either engine: add() evaluates a
/// schedule at once (the caller may mutate it right after), finish() makes
/// every row readable, and core_rises(i) is bit-identical to
/// analyzer.stable_core_rises(schedule i).  On the modal engine this is a
/// ModalEvaluator::Batch, whose storage and memo views survive clear(), so
/// a planner keeps one for a whole run; the reference engine evaluates each
/// schedule independently.  Not thread-safe, and must not outlive the
/// analyzer.
class RiseBatch {
 public:
  explicit RiseBatch(const SteadyStateAnalyzer& analyzer);

  void clear();
  void add(const sched::PeriodicSchedule& s);
  void finish();

  /// num_cores() die rises of row i (after finish()).
  [[nodiscard]] const double* core_rises(std::size_t i) const;

 private:
  const SteadyStateAnalyzer* analyzer_;
  std::optional<ModalEvaluator::Batch> modal_;
  std::vector<linalg::Vector> reference_;  // rows on the reference engine
  std::size_t rows_ = 0;
};

}  // namespace foscil::sim
