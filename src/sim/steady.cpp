#include "sim/steady.hpp"

#include <cmath>

namespace foscil::sim {

SteadyStateAnalyzer::SteadyStateAnalyzer(
    std::shared_ptr<const thermal::ThermalModel> model, EvalEngine engine)
    : sim_(model) {
  if (engine == EvalEngine::kModal)
    modal_ = std::make_shared<const ModalEvaluator>(std::move(model));
}

SteadyStateAnalyzer planning_analyzer(
    std::shared_ptr<const thermal::ThermalModel> model) {
  return SteadyStateAnalyzer(std::move(model), EvalEngine::kModal);
}

linalg::Vector SteadyStateAnalyzer::resolvent_apply(
    double period, const linalg::Vector& x) const {
  FOSCIL_EXPECTS(period > 0.0);
  const auto& spectral = model().spectral();
  FOSCIL_EXPECTS(x.size() == spectral.size());
  linalg::Vector y = spectral.w_inverse() * x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double decay = std::exp(spectral.eigenvalues()[i] * period);
    FOSCIL_ASSERT(decay < 1.0);  // guaranteed by stability
    y[i] /= 1.0 - decay;
  }
  return spectral.w() * y;
}

linalg::Vector SteadyStateAnalyzer::stable_boundary(
    const sched::PeriodicSchedule& s) const {
  if (modal_) return modal_->stable_boundary(s);
  const linalg::Vector cold_end =
      sim_.period_end(s, sim_.ambient_start());
  return resolvent_apply(s.period(), cold_end);
}

linalg::Vector SteadyStateAnalyzer::stable_core_rises(
    const sched::PeriodicSchedule& s) const {
  if (modal_) return modal_->stable_core_rises(s);
  return model().core_rises(stable_boundary(s));
}

std::vector<linalg::Vector> SteadyStateAnalyzer::batch_stable_core_rises(
    const sched::PeriodicSchedule* schedules, std::size_t count) const {
  if (modal_) return modal_->batch_stable_core_rises(schedules, count);
  std::vector<linalg::Vector> rises(count);
  for (std::size_t i = 0; i < count; ++i)
    rises[i] = stable_core_rises(schedules[i]);
  return rises;
}

RiseBatch::RiseBatch(const SteadyStateAnalyzer& analyzer)
    : analyzer_(&analyzer) {
  if (analyzer.modal() != nullptr) modal_.emplace(*analyzer.modal());
}

void RiseBatch::clear() {
  rows_ = 0;
  if (modal_) modal_->clear();
}

void RiseBatch::add(const sched::PeriodicSchedule& s) {
  if (modal_) {
    modal_->add(s);
  } else if (rows_ < reference_.size()) {
    reference_[rows_] = analyzer_->stable_core_rises(s);
  } else {
    reference_.push_back(analyzer_->stable_core_rises(s));
  }
  ++rows_;
}

void RiseBatch::finish() {
  if (modal_) modal_->finish();
}

const double* RiseBatch::core_rises(std::size_t i) const {
  FOSCIL_EXPECTS(i < rows_);
  return modal_ ? modal_->core_rises(i) : reference_[i].data();
}

std::vector<linalg::Vector> SteadyStateAnalyzer::stable_boundaries(
    const sched::PeriodicSchedule& s) const {
  const linalg::Vector start = stable_boundary(s);
  return sim_.boundary_temperatures(s, start);
}

std::vector<TraceSample> SteadyStateAnalyzer::stable_trace(
    const sched::PeriodicSchedule& s, double dt_sample) const {
  return sim_.trace(s, stable_boundary(s), dt_sample, s.period());
}

}  // namespace foscil::sim
