#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

namespace foscil::sim {

namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

bool FaultSpec::perturbs_plant() const {
  return r_convection_scale != 1.0 || k_tim_scale != 1.0 || c_scale != 1.0 ||
         alpha_scale != 1.0 || beta_scale != 1.0 || gamma_scale != 1.0 ||
         power_jitter > 0.0;
}

bool FaultSpec::any() const {
  return sensors.any() || transitions.any() || perturbs_plant() ||
         ambient_drift_c != 0.0;
}

void FaultSpec::check() const {
  sensors.check();
  transitions.check();
  FOSCIL_EXPECTS(r_convection_scale > 0.0);
  FOSCIL_EXPECTS(k_tim_scale > 0.0);
  FOSCIL_EXPECTS(c_scale > 0.0);
  FOSCIL_EXPECTS(alpha_scale > 0.0);
  FOSCIL_EXPECTS(beta_scale > 0.0);
  FOSCIL_EXPECTS(gamma_scale > 0.0);
  FOSCIL_EXPECTS(power_jitter >= 0.0 && power_jitter < 1.0);
  FOSCIL_EXPECTS(ambient_drift_c >= 0.0);
  FOSCIL_EXPECTS(ambient_drift_period_s > 0.0);
}

FaultSpec FaultSpec::at_intensity(double intensity, std::uint64_t seed) {
  FOSCIL_EXPECTS(std::isfinite(intensity));
  intensity = std::clamp(intensity, 0.0, 1.0);
  FaultSpec spec;
  spec.seed = seed;
  spec.sensors.bias_k = -3.0 * intensity;  // optimistic = dangerous direction
  spec.sensors.noise_sigma_k = 0.3 * intensity;
  spec.transitions.drop_probability = 0.3 * intensity;
  spec.transitions.delay_probability = 0.2 * intensity;
  spec.transitions.delay_s = intensity > 0.0 ? 2e-3 : 0.0;
  spec.r_convection_scale = 1.0 + 0.15 * intensity;
  spec.gamma_scale = 1.0 + 0.05 * intensity;
  spec.power_jitter = 0.05 * intensity;
  spec.ambient_drift_c = 2.0 * intensity;
  spec.ambient_drift_period_s = 30.0;
  return spec;
}

bool PlantPerturbation::any() const {
  if (beta_scale != 1.0 || r_convection_scale != 1.0) return true;
  for (double offset : alpha_offset_w)
    if (offset != 0.0) return true;
  return false;
}

void PlantPerturbation::check() const {
  FOSCIL_EXPECTS(beta_scale >= 0.0);
  FOSCIL_EXPECTS(r_convection_scale > 0.0);
  for (double offset : alpha_offset_w) FOSCIL_EXPECTS(std::isfinite(offset));
}

std::shared_ptr<const thermal::ThermalModel> perturbed_model(
    const std::shared_ptr<const thermal::ThermalModel>& nominal,
    const PlantPerturbation& delta) {
  FOSCIL_EXPECTS(nominal != nullptr);
  delta.check();
  FOSCIL_EXPECTS(delta.alpha_offset_w.empty() ||
                 delta.alpha_offset_w.size() == nominal->num_cores());
  if (!delta.any()) return nominal;

  thermal::HotSpotParams params = nominal->network().params();
  params.r_convection_block *= delta.r_convection_scale;
  thermal::RcNetwork network(nominal->network().floorplan(), params);

  const std::size_t cores = nominal->num_cores();
  std::vector<power::PowerCoefficients> per_core(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    power::PowerCoefficients c = nominal->power().coefficients(i);
    if (!delta.alpha_offset_w.empty())
      c.alpha = std::max(0.0, c.alpha + delta.alpha_offset_w[i]);
    c.beta *= delta.beta_scale;
    per_core[i] = c;
  }
  return std::make_shared<const thermal::ThermalModel>(
      std::move(network), power::PowerModel(std::move(per_core)));
}

std::shared_ptr<const thermal::ThermalModel> perturbed_model(
    const std::shared_ptr<const thermal::ThermalModel>& nominal,
    const FaultSpec& spec) {
  FOSCIL_EXPECTS(nominal != nullptr);
  spec.check();
  if (!spec.perturbs_plant()) return nominal;

  thermal::HotSpotParams params = nominal->network().params();
  params.r_convection_block *= spec.r_convection_scale;
  params.k_tim *= spec.k_tim_scale;
  params.c_silicon *= spec.c_scale;
  params.c_copper *= spec.c_scale;
  thermal::RcNetwork network(nominal->network().floorplan(), params);

  // Per-core coefficient scaling + process-variation jitter.  The jitter
  // stream is separate from the runtime stream (sensor noise, transition
  // rolls) so the sampled chip depends only on the spec, not on how the
  // run consumed randomness.
  Rng jitter_rng(spec.seed ^ 0x9e3779b97f4a7c15ull);
  const std::size_t cores = nominal->num_cores();
  std::vector<power::PowerCoefficients> per_core(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    power::PowerCoefficients c = nominal->power().coefficients(i);
    const double ja = spec.power_jitter > 0.0
                          ? jitter_rng.uniform(-spec.power_jitter,
                                               spec.power_jitter)
                          : 0.0;
    const double jg = spec.power_jitter > 0.0
                          ? jitter_rng.uniform(-spec.power_jitter,
                                               spec.power_jitter)
                          : 0.0;
    c.alpha *= spec.alpha_scale * (1.0 + ja);
    c.beta *= spec.beta_scale;
    c.gamma *= spec.gamma_scale * (1.0 + jg);
    per_core[i] = c;
  }
  return std::make_shared<const thermal::ThermalModel>(
      std::move(network), power::PowerModel(std::move(per_core)));
}

FaultedPlant::FaultedPlant(
    std::shared_ptr<const thermal::ThermalModel> nominal, FaultSpec spec)
    : spec_(std::move(spec)),
      true_model_(perturbed_model(nominal, spec_)),
      sim_(true_model_),
      rng_(spec_.seed),
      temps_(true_model_->num_nodes()),
      applied_(true_model_->num_cores()),
      pending_voltage_(true_model_->num_cores(), 0.0),
      pending_due_(true_model_->num_cores(), -1.0) {
  for (std::size_t core : spec_.sensors.stuck_cores)
    FOSCIL_EXPECTS(core < true_model_->num_cores());
}

void FaultedPlant::warm_start(const linalg::Vector& node_rises) {
  FOSCIL_EXPECTS(now_ == 0.0);
  FOSCIL_EXPECTS(node_rises.size() == temps_.size());
  temps_ = node_rises;
}

double FaultedPlant::ambient_offset(double t) const {
  if (spec_.ambient_drift_c == 0.0) return 0.0;
  return spec_.ambient_drift_c *
         std::sin(2.0 * kPi * t / spec_.ambient_drift_period_s);
}

void FaultedPlant::apply_now(std::size_t core, double voltage) {
  pending_due_[core] = -1.0;
  if (voltage == applied_[core]) return;
  applied_[core] = voltage;
  ++transitions_applied_;
  stall_volt_sum_ += voltage;
}

void FaultedPlant::request(const linalg::Vector& core_voltages) {
  FOSCIL_EXPECTS(core_voltages.size() == applied_.size());
  if (!booted_) {
    // Boot configuration: modes are programmed before the workload starts,
    // not switched in flight, so no fault roll and no transition counted.
    for (std::size_t i = 0; i < applied_.size(); ++i)
      applied_[i] = core_voltages[i];
    booted_ = true;
    return;
  }
  for (std::size_t i = 0; i < applied_.size(); ++i) {
    const bool pending = pending_due_[i] >= 0.0;
    const double target = pending ? pending_voltage_[i] : applied_[i];
    if (core_voltages[i] == target) continue;  // already there / in flight
    switch (power::decide_transition(spec_.transitions, rng_)) {
      case power::TransitionOutcome::kApplied:
        apply_now(i, core_voltages[i]);
        break;
      case power::TransitionOutcome::kDropped:
        // The request never reached the regulator; an earlier delayed
        // transition (if any) stays in flight.
        ++transitions_dropped_;
        break;
      case power::TransitionOutcome::kDelayed:
        pending_voltage_[i] = core_voltages[i];
        pending_due_[i] = now_ + spec_.transitions.delay_s;
        ++transitions_delayed_;
        break;
    }
  }
}

double FaultedPlant::advance(double dt, int samples) {
  FOSCIL_EXPECTS(dt >= 0.0);
  FOSCIL_EXPECTS(samples >= 1);
  const auto& model = *true_model_;
  double span_peak = 0.0;

  const double end = now_ + dt;
  while (now_ < end) {
    // Next delayed transition landing inside the remaining span, if any.
    double next_event = end;
    for (std::size_t i = 0; i < pending_due_.size(); ++i)
      if (pending_due_[i] >= 0.0 && pending_due_[i] < next_event)
        next_event = std::max(now_, pending_due_[i]);

    const double span = next_event - now_;
    if (span > 0.0) {
      linalg::Vector next = temps_;
      for (int k = 1; k <= samples; ++k) {
        const double local = span * k / samples;
        next = sim_.advance(temps_, applied_, local);
        span_peak = std::max(span_peak, model.max_core_rise(next) +
                                            ambient_offset(now_ + local));
      }
      temps_ = next;
      work_integral_ += applied_.sum() * span;
      now_ = next_event;
    } else {
      now_ = next_event;  // dt == 0 or event exactly at now_
    }

    for (std::size_t i = 0; i < pending_due_.size(); ++i)
      if (pending_due_[i] >= 0.0 && pending_due_[i] <= now_)
        apply_now(i, pending_voltage_[i]);
    if (span <= 0.0 && next_event >= end) break;
  }

  true_peak_rise_ = std::max(true_peak_rise_, span_peak);
  return span_peak;
}

linalg::Vector FaultedPlant::read_sensors() {
  const linalg::Vector rises = true_model_->core_rises(temps_);
  const double drift = ambient_offset(now_);
  linalg::Vector seen(rises.size());
  // One distribution per call, built only when there is noise: its
  // precondition is stddev > 0, and a noise-free spec must not consume
  // random numbers.
  std::optional<std::normal_distribution<double>> noise;
  if (spec_.sensors.noise_sigma_k > 0.0)
    noise.emplace(0.0, spec_.sensors.noise_sigma_k);
  for (std::size_t i = 0; i < rises.size(); ++i) {
    double value = rises[i] + drift + spec_.sensors.bias_k;
    if (noise) value += (*noise)(rng_.engine());
    seen[i] = value;
  }
  for (std::size_t core : spec_.sensors.stuck_cores)
    seen[core] = spec_.sensors.stuck_at_k;
  return seen;
}

double FaultedPlant::true_max_rise() const {
  return true_model_->max_core_rise(temps_) + ambient_offset(now_);
}

void FaultedPlant::enable_residual_log(std::size_t capacity) {
  residual_capacity_ = capacity;
  if (residual_log_.size() > capacity) {
    residuals_dropped_ += residual_log_.size() - capacity;
    residual_log_.erase(residual_log_.begin(),
                        residual_log_.end() -
                            static_cast<std::ptrdiff_t>(capacity));
  }
}

void FaultedPlant::log_residual(double t, double max_abs_k) {
  if (residual_capacity_ == 0) return;
  if (residual_log_.size() == residual_capacity_) {
    residual_log_.erase(residual_log_.begin());
    ++residuals_dropped_;
  }
  residual_log_.push_back(ResidualSample{t, max_abs_k});
}

}  // namespace foscil::sim
