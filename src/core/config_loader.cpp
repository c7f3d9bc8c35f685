#include "core/config_loader.hpp"

#include <cmath>
#include <iostream>
#include <mutex>
#include <set>
#include <string>

#include "linalg/simd.hpp"

namespace foscil::core {

namespace {

/// ConfigError with the offending section.key in the message.
[[noreturn]] void reject(const std::string& key, const std::string& why) {
  throw ConfigError("key '" + key + "' " + why);
}

double probability_from_config(const Config& config, const char* key,
                               double fallback) {
  const double p = config.get_double_or(key, fallback);
  if (p < 0.0 || p > 1.0) reject(key, "must be a probability in [0, 1]");
  return p;
}

double positive_from_config(const Config& config, const char* key,
                            double fallback) {
  const double v = config.get_double_or(key, fallback);
  if (v <= 0.0) reject(key, "must be > 0");
  return v;
}

power::VoltageLevels levels_from_config(const Config& config) {
  const bool has_values = config.has("levels.values");
  const bool has_table4 = config.has("levels.table4");
  const bool has_full = config.has("levels.full_range");
  const int chosen = (has_values ? 1 : 0) + (has_table4 ? 1 : 0) +
                     (has_full ? 1 : 0);
  if (chosen > 1)
    throw ConfigError(
        "choose exactly one of levels.values / levels.table4 / "
        "levels.full_range");
  if (has_values)
    return power::VoltageLevels(config.get_doubles("levels.values"));
  if (has_table4)
    return power::VoltageLevels::paper_table4(
        static_cast<int>(config.get_int("levels.table4")));
  if (has_full && config.get_bool("levels.full_range"))
    return power::VoltageLevels::paper_full_range();
  // Default: the paper's 2-mode set.
  return power::VoltageLevels({0.6, 1.3});
}

thermal::HotSpotParams package_from_config(const Config& config) {
  thermal::HotSpotParams params;
  params.die_tiers = static_cast<std::size_t>(
      config.get_int_or("platform.tiers", 1));
  params.r_convection_block = config.get_double_or(
      "package.r_convection_block", params.r_convection_block);
  params.rim_width_blocks = config.get_double_or(
      "package.rim_width_blocks", params.rim_width_blocks);
  params.sink_mass_factor = config.get_double_or(
      "package.sink_mass_factor", params.sink_mass_factor);
  params.k_tim = config.get_double_or("package.k_tim", params.k_tim);
  if (config.has("package.t_tim_um"))
    params.t_tim = config.get_double("package.t_tim_um") * 1e-6;
  if (config.has("package.t_spreader_mm"))
    params.t_spreader = config.get_double("package.t_spreader_mm") * 1e-3;
  if (config.has("package.t_sink_base_mm"))
    params.t_sink_base = config.get_double("package.t_sink_base_mm") * 1e-3;
  params.k_inter_tier = config.get_double_or("package.k_inter_tier",
                                             params.k_inter_tier);
  if (config.has("package.t_inter_tier_um"))
    params.t_inter_tier =
        config.get_double("package.t_inter_tier_um") * 1e-6;
  return params;
}

power::PowerModel power_from_config(const Config& config,
                                    std::size_t num_cores) {
  power::PowerCoefficients coeff;
  coeff.alpha = config.get_double_or("power.alpha", coeff.alpha);
  coeff.beta = config.get_double_or("power.beta", coeff.beta);
  coeff.gamma = config.get_double_or("power.gamma", coeff.gamma);

  // Optional heterogeneity: per-core lists override the scalar baseline.
  const bool any_per_core = config.has("power.alpha_per_core") ||
                            config.has("power.beta_per_core") ||
                            config.has("power.gamma_per_core");
  if (!any_per_core) return power::PowerModel(coeff);

  std::vector<power::PowerCoefficients> per_core(num_cores, coeff);
  const auto apply = [&](const char* key, auto member) {
    if (!config.has(key)) return;
    const std::vector<double> values = config.get_doubles(key);
    if (values.size() != num_cores)
      throw ConfigError(std::string(key) + " must list exactly " +
                        std::to_string(num_cores) + " values");
    for (std::size_t i = 0; i < num_cores; ++i)
      per_core[i].*member = values[i];
  };
  apply("power.alpha_per_core", &power::PowerCoefficients::alpha);
  apply("power.beta_per_core", &power::PowerCoefficients::beta);
  apply("power.gamma_per_core", &power::PowerCoefficients::gamma);
  return power::PowerModel(std::move(per_core));
}

}  // namespace

Platform platform_from_config(const Config& config) {
  const long rows_raw = config.get_int("platform.rows");
  const long cols_raw = config.get_int("platform.cols");
  if (rows_raw < 1) reject("platform.rows", "must be >= 1");
  if (cols_raw < 1) reject("platform.cols", "must be >= 1");
  const auto rows = static_cast<std::size_t>(rows_raw);
  const auto cols = static_cast<std::size_t>(cols_raw);
  const double edge_m =
      config.get_double_or("platform.core_edge_mm", 4.0) * 1e-3;

  const thermal::Floorplan floorplan(rows, cols, edge_m);
  thermal::RcNetwork network(floorplan, package_from_config(config));
  const std::size_t num_cores = network.num_cores();
  Platform platform;
  platform.model = std::make_shared<const thermal::ThermalModel>(
      std::move(network), power_from_config(config, num_cores));
  platform.levels = levels_from_config(config);
  platform.t_ambient_c = config.get_double_or("platform.t_ambient_c", 35.0);
  platform.name = floorplan.label();
  const long tiers = config.get_int_or("platform.tiers", 1);
  if (tiers > 1) {
    platform.name += 'x';
    platform.name += std::to_string(tiers);
    platform.name += "tiers";
  }
  return platform;
}

AoOptions ao_options_from_config(const Config& config) {
  AoOptions options;
  if (config.has("ao.base_period_ms"))
    options.base_period = config.get_double("ao.base_period_ms") * 1e-3;
  if (config.has("ao.tau_us"))
    options.transition_overhead = config.get_double("ao.tau_us") * 1e-6;
  options.t_unit_fraction = config.get_double_or("ao.t_unit_fraction",
                                                 options.t_unit_fraction);
  options.max_m =
      static_cast<int>(config.get_int_or("ao.max_m", options.max_m));
  options.t_max_margin = config.get_double_or("ao.t_max_margin_k",
                                              options.t_max_margin);
  if (options.t_max_margin < 0.0)
    reject("ao.t_max_margin_k", "must be >= 0");
  // SIMD dispatch is a process-wide kernel-table selection, not a per-run
  // option struct field: every engine (modal, reference, EXS) reads the
  // same table.  The config key overrides the FOSCIL_SIMD environment
  // default; set_active_level clamps avx2 to scalar on CPUs without it.
  if (config.has("sim.simd")) {
    const std::string simd = config.get_string("sim.simd");
    if (simd == "scalar")
      linalg::simd::set_active_level(linalg::simd::Level::kScalar);
    else if (simd == "avx2")
      linalg::simd::set_active_level(linalg::simd::Level::kAvx2);
    else if (simd == "auto")
      linalg::simd::set_active_level(linalg::simd::detected_level());
    else
      reject("sim.simd", "must be 'scalar', 'avx2', or 'auto'");
  }
  return options;
}

double t_max_from_config(const Config& config) {
  return config.get_double_or("run.t_max_c", 55.0);
}

bool has_faults_config(const Config& config) {
  for (const std::string& key : config.keys())
    if (key.rfind("faults.", 0) == 0) return true;
  return false;
}

sim::FaultSpec faults_from_config(const Config& config) {
  sim::FaultSpec spec;
  if (config.has("faults.intensity")) {
    const double intensity = config.get_double("faults.intensity");
    if (intensity < 0.0 || intensity > 1.0)
      reject("faults.intensity", "must be in [0, 1]");
    spec = sim::FaultSpec::at_intensity(intensity);
  }

  spec.seed = static_cast<std::uint64_t>(
      config.get_int_or("faults.seed", static_cast<long>(spec.seed)));
  spec.sensors.bias_k =
      config.get_double_or("faults.sensor_bias_k", spec.sensors.bias_k);
  spec.sensors.noise_sigma_k = config.get_double_or(
      "faults.sensor_noise_k", spec.sensors.noise_sigma_k);
  if (spec.sensors.noise_sigma_k < 0.0)
    reject("faults.sensor_noise_k", "must be >= 0");
  if (config.has("faults.stuck_sensors")) {
    spec.sensors.stuck_cores.clear();
    for (double value : config.get_doubles("faults.stuck_sensors")) {
      if (value < 0.0 || value != std::floor(value))
        reject("faults.stuck_sensors",
               "must list non-negative core indices");
      spec.sensors.stuck_cores.push_back(static_cast<std::size_t>(value));
    }
  }
  spec.sensors.stuck_at_k =
      config.get_double_or("faults.stuck_at_k", spec.sensors.stuck_at_k);

  spec.transitions.drop_probability = probability_from_config(
      config, "faults.drop_probability", spec.transitions.drop_probability);
  spec.transitions.delay_probability = probability_from_config(
      config, "faults.delay_probability",
      spec.transitions.delay_probability);
  if (config.has("faults.delay_ms"))
    spec.transitions.delay_s = config.get_double("faults.delay_ms") * 1e-3;
  if (spec.transitions.delay_s < 0.0)
    reject("faults.delay_ms", "must be >= 0");
  if (spec.transitions.delay_probability > 0.0 &&
      spec.transitions.delay_s <= 0.0)
    reject("faults.delay_ms",
           "must be > 0 when faults.delay_probability is set");

  spec.r_convection_scale = positive_from_config(
      config, "faults.r_convection_scale", spec.r_convection_scale);
  spec.k_tim_scale = positive_from_config(config, "faults.k_tim_scale",
                                          spec.k_tim_scale);
  spec.c_scale =
      positive_from_config(config, "faults.c_scale", spec.c_scale);
  spec.alpha_scale = positive_from_config(config, "faults.alpha_scale",
                                          spec.alpha_scale);
  spec.beta_scale = positive_from_config(config, "faults.beta_scale",
                                         spec.beta_scale);
  spec.gamma_scale = positive_from_config(config, "faults.gamma_scale",
                                          spec.gamma_scale);
  spec.power_jitter =
      config.get_double_or("faults.power_jitter", spec.power_jitter);
  if (spec.power_jitter < 0.0 || spec.power_jitter >= 1.0)
    reject("faults.power_jitter", "must be in [0, 1)");

  spec.ambient_drift_c =
      config.get_double_or("faults.ambient_drift_c", spec.ambient_drift_c);
  if (spec.ambient_drift_c < 0.0)
    reject("faults.ambient_drift_c", "must be >= 0");
  spec.ambient_drift_period_s =
      positive_from_config(config, "faults.ambient_drift_period_s",
                           spec.ambient_drift_period_s);
  spec.check();
  return spec;
}

IdentifyOptions identify_options_from_config(const Config& config) {
  IdentifyOptions options;
  if (config.has("identify.enabled"))
    options.enabled = config.get_bool("identify.enabled");
  options.forgetting =
      config.get_double_or("identify.forgetting", options.forgetting);
  if (options.forgetting <= 0.0 || options.forgetting > 1.0)
    reject("identify.forgetting", "must be in (0, 1]");
  options.prior_sigma = positive_from_config(config, "identify.prior_sigma",
                                             options.prior_sigma);
  options.gate_sigma = positive_from_config(config, "identify.gate_sigma",
                                            options.gate_sigma);
  options.confidence =
      config.get_double_or("identify.confidence", options.confidence);
  if (options.confidence < 0.0) reject("identify.confidence", "must be >= 0");
  const long min_polls = config.get_int_or(
      "identify.min_polls", static_cast<long>(options.min_polls));
  if (min_polls < 1) reject("identify.min_polls", "must be >= 1");
  options.min_polls = static_cast<std::size_t>(min_polls);
  options.significance =
      config.get_double_or("identify.significance", options.significance);
  if (options.significance < 0.0)
    reject("identify.significance", "must be >= 0");
  options.min_theta =
      config.get_double_or("identify.min_theta", options.min_theta);
  if (options.min_theta < 0.0) reject("identify.min_theta", "must be >= 0");
  options.band_floor_k =
      config.get_double_or("identify.band_floor_k", options.band_floor_k);
  if (options.band_floor_k < 0.0)
    reject("identify.band_floor_k", "must be >= 0");
  const long max_replans = config.get_int_or(
      "identify.max_replans", static_cast<long>(options.max_replans));
  if (max_replans < 0) reject("identify.max_replans", "must be >= 0");
  options.max_replans = static_cast<std::size_t>(max_replans);
  options.replan_delta =
      config.get_double_or("identify.replan_delta", options.replan_delta);
  if (options.replan_delta < 0.0)
    reject("identify.replan_delta", "must be >= 0");
  options.alpha_scale_w = positive_from_config(
      config, "identify.alpha_scale_w", options.alpha_scale_w);
  options.rel_scale =
      positive_from_config(config, "identify.rel_scale", options.rel_scale);
  options.bias_scale_k = positive_from_config(
      config, "identify.bias_scale_k", options.bias_scale_k);
  options.beta_prior_sigma = positive_from_config(
      config, "identify.beta_prior_sigma", options.beta_prior_sigma);
  options.trust_radius =
      config.get_double_or("identify.trust_radius", options.trust_radius);
  if (options.trust_radius < 0.0)
    reject("identify.trust_radius", "must be >= 0");
  options.min_seconds =
      config.get_double_or("identify.min_seconds", options.min_seconds);
  if (options.min_seconds < 0.0)
    reject("identify.min_seconds", "must be >= 0");
  options.drift_scale_k = positive_from_config(
      config, "identify.drift_scale_k", options.drift_scale_k);
  options.drift_period_s = config.get_double_or("identify.drift_period_s",
                                                options.drift_period_s);
  if (options.drift_period_s < 0.0)
    reject("identify.drift_period_s", "must be >= 0");
  options.innovation_clip_k = config.get_double_or(
      "identify.innovation_clip_k", options.innovation_clip_k);
  if (options.innovation_clip_k < 0.0)
    reject("identify.innovation_clip_k", "must be >= 0");
  if (config.has("identify.conservative"))
    options.conservative = config.get_bool("identify.conservative");
  return options;
}

GuardOptions guard_options_from_config(const Config& config) {
  GuardOptions options;
  options.ao = ao_options_from_config(config);
  options.identify = identify_options_from_config(config);
  options.horizon =
      positive_from_config(config, "guard.horizon_s", options.horizon);
  if (config.has("guard.control_period_ms"))
    options.control_period =
        config.get_double("guard.control_period_ms") * 1e-3;
  if (options.control_period <= 0.0)
    reject("guard.control_period_ms", "must be > 0");
  options.samples_per_tick = static_cast<int>(config.get_int_or(
      "guard.samples_per_tick", options.samples_per_tick));
  options.trip_margin = positive_from_config(config, "guard.trip_margin_k",
                                             options.trip_margin);
  options.reentry_margin = config.get_double_or("guard.reentry_margin_k",
                                                options.reentry_margin);
  if (options.reentry_margin < 0.0)
    reject("guard.reentry_margin_k", "must be >= 0");
  options.backoff_initial = positive_from_config(
      config, "guard.backoff_initial_s", options.backoff_initial);
  options.backoff_factor = config.get_double_or("guard.backoff_factor",
                                                options.backoff_factor);
  if (options.backoff_factor < 1.0)
    reject("guard.backoff_factor", "must be >= 1");
  options.backoff_max =
      config.get_double_or("guard.backoff_max_s", options.backoff_max);
  if (options.backoff_max < options.backoff_initial)
    reject("guard.backoff_max_s", "must be >= guard.backoff_initial_s");
  options.escalate_after = static_cast<int>(
      config.get_int_or("guard.escalate_after", options.escalate_after));
  if (options.escalate_after < 1)
    reject("guard.escalate_after", "must be >= 1");
  options.derate_step = positive_from_config(config, "guard.derate_step_k",
                                             options.derate_step);
  options.max_derate =
      config.get_double_or("guard.max_derate_k", options.max_derate);
  if (options.max_derate < 0.0)
    reject("guard.max_derate_k", "must be >= 0");
  options.check();
  return options;
}

namespace {

/// Every "section.key" the loaders in this file read.  Kept literal (not
/// harvested at call time) so the validator can run without touching any
/// loader; the unknown-key test cross-checks it against a config
/// exercising every documented key.
const char* const kKnownKeys[] = {
    "platform.rows", "platform.cols", "platform.tiers",
    "platform.core_edge_mm", "platform.t_ambient_c",
    "levels.values", "levels.table4", "levels.full_range",
    "package.r_convection_block", "package.rim_width_blocks",
    "package.sink_mass_factor", "package.k_tim", "package.t_tim_um",
    "package.t_spreader_mm", "package.t_sink_base_mm",
    "package.k_inter_tier", "package.t_inter_tier_um",
    "power.alpha", "power.beta", "power.gamma", "power.alpha_per_core",
    "power.beta_per_core", "power.gamma_per_core",
    "ao.base_period_ms", "ao.tau_us", "ao.t_unit_fraction", "ao.max_m",
    "ao.t_max_margin_k",
    "sim.simd",
    "run.t_max_c",
    "faults.intensity", "faults.seed", "faults.sensor_bias_k",
    "faults.sensor_noise_k", "faults.stuck_sensors", "faults.stuck_at_k",
    "faults.drop_probability", "faults.delay_probability", "faults.delay_ms",
    "faults.r_convection_scale", "faults.k_tim_scale", "faults.c_scale",
    "faults.alpha_scale", "faults.beta_scale", "faults.gamma_scale",
    "faults.power_jitter", "faults.ambient_drift_c",
    "faults.ambient_drift_period_s",
    "guard.horizon_s", "guard.control_period_ms", "guard.samples_per_tick",
    "guard.trip_margin_k", "guard.reentry_margin_k",
    "guard.backoff_initial_s", "guard.backoff_factor", "guard.backoff_max_s",
    "guard.escalate_after", "guard.derate_step_k", "guard.max_derate_k",
    "identify.enabled", "identify.forgetting", "identify.prior_sigma",
    "identify.beta_prior_sigma", "identify.gate_sigma",
    "identify.confidence", "identify.trust_radius", "identify.min_polls",
    "identify.min_seconds", "identify.significance", "identify.min_theta",
    "identify.band_floor_k", "identify.max_replans", "identify.replan_delta",
    "identify.alpha_scale_w", "identify.rel_scale", "identify.bias_scale_k",
    "identify.drift_scale_k", "identify.drift_period_s",
    "identify.innovation_clip_k", "identify.conservative",
};

[[nodiscard]] std::string section_of(const std::string& key) {
  const std::size_t dot = key.find('.');
  return dot == std::string::npos ? key : key.substr(0, dot);
}

}  // namespace

std::vector<std::string> unknown_config_keys(
    const Config& config, const std::vector<std::string>& extra_known) {
  std::set<std::string> known(std::begin(kKnownKeys), std::end(kKnownKeys));
  known.insert(extra_known.begin(), extra_known.end());
  std::set<std::string> known_sections;
  for (const std::string& key : known) known_sections.insert(section_of(key));

  std::vector<std::string> unknown;
  for (const std::string& key : config.keys()) {
    if (known.count(key) != 0) continue;
    if (known_sections.count(section_of(key)) == 0) continue;
    unknown.push_back(key);
  }
  return unknown;  // Config::keys() is already sorted
}

std::vector<std::string> warn_unknown_config_keys(
    const Config& config, const std::vector<std::string>& extra_known) {
  // Process-wide memory of keys already warned about, so config re-loads
  // (file watchers, retry loops) log each misspelling exactly once.
  static std::mutex mutex;
  static std::set<std::string> warned;

  std::vector<std::string> fresh;
  for (const std::string& key : unknown_config_keys(config, extra_known)) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!warned.insert(key).second) continue;
    }
    std::cerr << "warning: unknown config key '" << key
              << "' in a known section (ignored; check for a misspelling)\n";
    fresh.push_back(key);
  }
  return fresh;
}

}  // namespace foscil::core
