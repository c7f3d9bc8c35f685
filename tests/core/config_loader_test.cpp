#include "core/config_loader.hpp"

#include <gtest/gtest.h>

#include "../test_support.hpp"

namespace foscil::core {
namespace {

TEST(ConfigLoader, BuildsDefaultPlatform) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n");
  const Platform p = platform_from_config(c);
  EXPECT_EQ(p.num_cores(), 3u);
  EXPECT_EQ(p.name, "1x3");
  EXPECT_DOUBLE_EQ(p.t_ambient_c, 35.0);
  EXPECT_EQ(p.levels.count(), 2u);  // default {0.6, 1.3}
}

TEST(ConfigLoader, MatchesProgrammaticConstruction) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n[levels]\nvalues = 0.6, 1.3\n");
  const Platform from_config = platform_from_config(c);
  const Platform direct = testing::grid_platform(1, 3);
  const linalg::Vector v{1.2, 0.9, 1.1};
  EXPECT_TRUE(linalg::allclose(from_config.model->steady_state(v),
                               direct.model->steady_state(v)));
}

TEST(ConfigLoader, LevelSelectionVariants) {
  const Config table4 = Config::parse(
      "[platform]\nrows = 1\ncols = 2\n[levels]\ntable4 = 3\n");
  EXPECT_EQ(platform_from_config(table4).levels.count(), 3u);

  const Config full = Config::parse(
      "[platform]\nrows = 1\ncols = 2\n[levels]\nfull_range = true\n");
  EXPECT_EQ(platform_from_config(full).levels.count(), 15u);

  const Config conflict = Config::parse(
      "[platform]\nrows = 1\ncols = 2\n"
      "[levels]\ntable4 = 3\nfull_range = true\n");
  EXPECT_THROW((void)platform_from_config(conflict), ConfigError);
}

TEST(ConfigLoader, PackageOverridesApply) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 2\n"
      "[package]\nr_convection_block = 0.9\nt_tim_um = 40\n");
  const Platform p = platform_from_config(c);
  EXPECT_DOUBLE_EQ(p.model->network().params().r_convection_block, 0.9);
  EXPECT_DOUBLE_EQ(p.model->network().params().t_tim, 40e-6);
}

TEST(ConfigLoader, StackedPlatform) {
  const Config c = Config::parse(
      "[platform]\nrows = 2\ncols = 2\ntiers = 2\n"
      "[package]\nr_convection_block = 0.8\nk_inter_tier = 10\n");
  const Platform p = platform_from_config(c);
  EXPECT_EQ(p.num_cores(), 8u);
  EXPECT_EQ(p.name, "2x2x2tiers");
}

TEST(ConfigLoader, PowerOverridesApply) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 2\n"
      "[power]\nalpha = 0.5\nbeta = 0.1\ngamma = 12\n");
  const Platform p = platform_from_config(c);
  EXPECT_DOUBLE_EQ(p.model->power().coefficients().alpha, 0.5);
  EXPECT_DOUBLE_EQ(p.model->power().coefficients().beta, 0.1);
  EXPECT_DOUBLE_EQ(p.model->power().coefficients().gamma, 12.0);
}

TEST(ConfigLoader, PerCorePowerLists) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n"
      "[power]\ngamma_per_core = 9, 12, 9\n");
  const Platform p = platform_from_config(c);
  EXPECT_TRUE(p.model->power().heterogeneous());
  EXPECT_DOUBLE_EQ(p.model->power().coefficients(1).gamma, 12.0);
  EXPECT_DOUBLE_EQ(p.model->power().coefficients(0).gamma, 9.0);
  // Scalar baseline still applies to the fields without a list.
  EXPECT_DOUBLE_EQ(p.model->power().coefficients(1).alpha, 1.0);
}

TEST(ConfigLoader, PerCoreListLengthMismatchThrows) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n"
      "[power]\nalpha_per_core = 1, 2\n");
  EXPECT_THROW((void)platform_from_config(c), ConfigError);
}

TEST(ConfigLoader, AoOptionsAndThreshold) {
  const Config c = Config::parse(
      "[ao]\nbase_period_ms = 20\ntau_us = 10\nmax_m = 100\n"
      "[run]\nt_max_c = 62.5\n");
  const AoOptions options = ao_options_from_config(c);
  EXPECT_DOUBLE_EQ(options.base_period, 0.020);
  EXPECT_DOUBLE_EQ(options.transition_overhead, 10e-6);
  EXPECT_EQ(options.max_m, 100);
  EXPECT_DOUBLE_EQ(t_max_from_config(c), 62.5);
  EXPECT_DOUBLE_EQ(t_max_from_config(Config::parse("")), 55.0);
}

TEST(ConfigLoader, AoEvalEngineAndScanThreads) {
  // Both keys are gone: every plan runs on the modal engine, serially.  A
  // config that still sets them loads, and each key is reported once as
  // unknown.
  const Config c = Config::parse(
      "[ao]\nmax_m = 64\neval_engine = reference\nscan_threads = 3\n");
  EXPECT_EQ(ao_options_from_config(c).max_m, 64);
  ::testing::internal::CaptureStderr();
  const std::vector<std::string> warned = warn_unknown_config_keys(c);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(warned,
            (std::vector<std::string>{"ao.eval_engine", "ao.scan_threads"}));
  for (const char* key : {"ao.eval_engine", "ao.scan_threads"}) {
    const std::size_t first = log.find(key);
    ASSERT_NE(first, std::string::npos) << key;
    EXPECT_EQ(log.find(key, first + 1), std::string::npos) << key;
  }
}

TEST(ConfigLoader, MissingMandatoryKeysThrow) {
  EXPECT_THROW((void)platform_from_config(Config::parse("")), ConfigError);
  EXPECT_THROW((void)platform_from_config(
                   Config::parse("[platform]\nrows = 2\n")),
               ConfigError);
}

TEST(ConfigLoader, BadPhysicalValuesSurfaceAsContractViolations) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 2\n"
      "[package]\nr_convection_block = -1\n");
  EXPECT_THROW((void)platform_from_config(c), ContractViolation);
}

TEST(ConfigLoader, NonFiniteNumericsAreRejectedByName) {
  // stod happily parses "nan"/"inf"; a platform description must not.
  const auto message_of = [](auto&& thunk) -> std::string {
    try {
      thunk();
    } catch (const ConfigError& error) {
      return error.what();
    }
    return "";
  };
  const Config scalar = Config::parse("[run]\nt_max_c = nan\n");
  std::string message = message_of([&] { (void)t_max_from_config(scalar); });
  EXPECT_NE(message.find("run.t_max_c"), std::string::npos) << message;
  EXPECT_NE(message.find("not finite"), std::string::npos) << message;

  const Config list = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n"
      "[power]\ngamma_per_core = 9, inf, 9\n");
  message = message_of([&] { (void)platform_from_config(list); });
  EXPECT_NE(message.find("power.gamma_per_core"), std::string::npos)
      << message;

  const Config negative_inf = Config::parse(
      "[platform]\nrows = 1\ncols = 2\n[package]\nk_tim = -inf\n");
  EXPECT_THROW((void)platform_from_config(negative_inf), ConfigError);
}

TEST(ConfigLoader, MalformedPerCoreListsAreRejected) {
  const Config empty_element = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n"
      "[power]\nalpha_per_core = 1, , 3\n");
  EXPECT_THROW((void)platform_from_config(empty_element), ConfigError);
  const Config non_numeric = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n"
      "[power]\nalpha_per_core = 1, two, 3\n");
  EXPECT_THROW((void)platform_from_config(non_numeric), ConfigError);
}

TEST(ConfigLoader, NonPositiveGridIsRejectedNotWrapped) {
  // rows = 0 must be a ConfigError naming the key, not a size_t wraparound
  // or an opaque contract failure deep in the floorplan.
  const Config zero = Config::parse("[platform]\nrows = 0\ncols = 3\n");
  try {
    (void)platform_from_config(zero);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("platform.rows"),
              std::string::npos);
  }
  const Config negative = Config::parse("[platform]\nrows = 2\ncols = -1\n");
  EXPECT_THROW((void)platform_from_config(negative), ConfigError);
}

/// The ConfigError message `thunk` throws, or "" when it throws none.
template <class Thunk>
std::string config_error_of(Thunk&& thunk) {
  try {
    thunk();
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(ConfigLoader, OversizedMaxMIsRejectedNotNarrowed) {
  // 2^32 + 1 used to narrow to an int max_m of 1.
  const std::string message = config_error_of([] {
    (void)ao_options_from_config(Config::parse("[ao]\nmax_m = 4294967297\n"));
  });
  EXPECT_NE(message.find("ao.max_m"), std::string::npos) << message;
}

TEST(ConfigLoader, OversizedEscalateAfterIsRejectedNotNarrowed) {
  const std::string message = config_error_of([] {
    (void)guard_options_from_config(
        Config::parse("[guard]\nescalate_after = 4294967297\n"));
  });
  EXPECT_NE(message.find("guard.escalate_after"), std::string::npos)
      << message;
}

TEST(ConfigLoader, NegativeTiersAreRejectedNotWrapped) {
  // -1 used to become SIZE_MAX tiers and fail deep in the matrix code.
  const std::string message = config_error_of([] {
    (void)platform_from_config(
        Config::parse("[platform]\nrows = 1\ncols = 2\ntiers = -1\n"));
  });
  EXPECT_NE(message.find("platform.tiers"), std::string::npos) << message;
}

TEST(ConfigLoader, AoMarginFromConfig) {
  const Config c = Config::parse("[ao]\nt_max_margin_k = 1.5\n");
  EXPECT_DOUBLE_EQ(ao_options_from_config(c).t_max_margin, 1.5);
  EXPECT_DOUBLE_EQ(ao_options_from_config(Config::parse("")).t_max_margin,
                   0.0);
  const Config bad = Config::parse("[ao]\nt_max_margin_k = -1\n");
  EXPECT_THROW((void)ao_options_from_config(bad), ConfigError);
}

TEST(ConfigLoader, FaultsSectionParses) {
  EXPECT_FALSE(has_faults_config(Config::parse("[run]\nt_max_c = 55\n")));
  const Config c = Config::parse(
      "[faults]\nintensity = 0.5\nsensor_bias_k = -1\n"
      "stuck_sensors = 0, 2\nstuck_at_k = 3\ndelay_ms = 4\n");
  EXPECT_TRUE(has_faults_config(c));
  const sim::FaultSpec spec = faults_from_config(c);
  // The intensity dial seeds the mix; explicit keys override on top.
  EXPECT_DOUBLE_EQ(spec.sensors.bias_k, -1.0);
  EXPECT_DOUBLE_EQ(spec.sensors.noise_sigma_k, 0.15);
  EXPECT_DOUBLE_EQ(spec.transitions.drop_probability, 0.15);
  EXPECT_DOUBLE_EQ(spec.transitions.delay_s, 4e-3);
  ASSERT_EQ(spec.sensors.stuck_cores.size(), 2u);
  EXPECT_EQ(spec.sensors.stuck_cores[1], 2u);
  EXPECT_DOUBLE_EQ(spec.sensors.stuck_at_k, 3.0);
  // An empty [faults] config is the inert spec.
  EXPECT_FALSE(faults_from_config(Config::parse("")).any());
}

TEST(ConfigLoader, FaultsSectionValidates) {
  EXPECT_THROW((void)faults_from_config(
                   Config::parse("[faults]\nintensity = 2\n")),
               ConfigError);
  EXPECT_THROW((void)faults_from_config(
                   Config::parse("[faults]\ndrop_probability = 1.5\n")),
               ConfigError);
  EXPECT_THROW((void)faults_from_config(
                   Config::parse("[faults]\ndelay_probability = 0.5\n")),
               ConfigError);  // delay without a duration
  EXPECT_THROW((void)faults_from_config(
                   Config::parse("[faults]\nstuck_sensors = 1.5\n")),
               ConfigError);
  EXPECT_THROW((void)faults_from_config(
                   Config::parse("[faults]\nr_convection_scale = 0\n")),
               ConfigError);
  EXPECT_THROW((void)faults_from_config(
                   Config::parse("[faults]\npower_jitter = 1\n")),
               ConfigError);
}

TEST(ConfigLoader, FaultRejectionsNameTheOffendingKey) {
  // A negative magnitude must be refused with the section.key spelled out,
  // so a fleet operator can fix the right line of a large config.
  const auto message_for = [](const char* body) -> std::string {
    try {
      (void)faults_from_config(Config::parse(body));
      return "";
    } catch (const ConfigError& error) {
      return error.what();
    }
  };
  EXPECT_NE(message_for("[faults]\nsensor_noise_k = -0.1\n")
                .find("faults.sensor_noise_k"),
            std::string::npos);
  EXPECT_NE(message_for("[faults]\nambient_drift_c = -1\n")
                .find("faults.ambient_drift_c"),
            std::string::npos);
  EXPECT_NE(message_for("[faults]\ndelay_ms = -2\n").find("faults.delay_ms"),
            std::string::npos);
  EXPECT_NE(message_for("[faults]\npower_jitter = -0.5\n")
                .find("faults.power_jitter"),
            std::string::npos);
  EXPECT_NE(message_for("[faults]\nalpha_scale = -1\n")
                .find("faults.alpha_scale"),
            std::string::npos);
}

TEST(ConfigLoader, IdentifySectionParses) {
  // Absent section: identification defaults off with library defaults.
  const IdentifyOptions defaults =
      identify_options_from_config(Config::parse(""));
  EXPECT_FALSE(defaults.enabled);
  EXPECT_NO_THROW(defaults.check());

  const Config c = Config::parse(
      "[identify]\nenabled = true\nforgetting = 0.995\nprior_sigma = 2\n"
      "beta_prior_sigma = 0.15\ngate_sigma = 0.2\nconfidence = 2.5\n"
      "trust_radius = 1.0\nmin_polls = 200\nmin_seconds = 3\n"
      "significance = 2\nmin_theta = 0.1\nband_floor_k = 0.25\n"
      "max_replans = 5\nreplan_delta = 0.75\nalpha_scale_w = 0.4\n"
      "rel_scale = 0.2\nbias_scale_k = 2\ndrift_scale_k = 1.5\n"
      "drift_period_s = 20\ninnovation_clip_k = 0.8\nconservative = false\n");
  const IdentifyOptions options = identify_options_from_config(c);
  EXPECT_TRUE(options.enabled);
  EXPECT_DOUBLE_EQ(options.forgetting, 0.995);
  EXPECT_DOUBLE_EQ(options.prior_sigma, 2.0);
  EXPECT_DOUBLE_EQ(options.beta_prior_sigma, 0.15);
  EXPECT_DOUBLE_EQ(options.gate_sigma, 0.2);
  EXPECT_DOUBLE_EQ(options.confidence, 2.5);
  EXPECT_DOUBLE_EQ(options.trust_radius, 1.0);
  EXPECT_EQ(options.min_polls, 200u);
  EXPECT_DOUBLE_EQ(options.min_seconds, 3.0);
  EXPECT_DOUBLE_EQ(options.significance, 2.0);
  EXPECT_DOUBLE_EQ(options.min_theta, 0.1);
  EXPECT_DOUBLE_EQ(options.band_floor_k, 0.25);
  EXPECT_EQ(options.max_replans, 5u);
  EXPECT_DOUBLE_EQ(options.replan_delta, 0.75);
  EXPECT_DOUBLE_EQ(options.alpha_scale_w, 0.4);
  EXPECT_DOUBLE_EQ(options.rel_scale, 0.2);
  EXPECT_DOUBLE_EQ(options.bias_scale_k, 2.0);
  EXPECT_DOUBLE_EQ(options.drift_scale_k, 1.5);
  EXPECT_DOUBLE_EQ(options.drift_period_s, 20.0);
  EXPECT_DOUBLE_EQ(options.innovation_clip_k, 0.8);
  EXPECT_FALSE(options.conservative);
  EXPECT_NO_THROW(options.check());
}

TEST(ConfigLoader, IdentifySectionValidates) {
  const auto rejects = [](const char* body) {
    EXPECT_THROW((void)identify_options_from_config(Config::parse(body)),
                 ConfigError)
        << body;
  };
  rejects("[identify]\nforgetting = 0\n");
  rejects("[identify]\nforgetting = 1.1\n");
  rejects("[identify]\nbeta_prior_sigma = 0\n");
  rejects("[identify]\ntrust_radius = -1\n");
  rejects("[identify]\nmin_seconds = -1\n");
  rejects("[identify]\nmin_polls = 0\n");
  rejects("[identify]\ndrift_period_s = -5\n");
  rejects("[identify]\ndrift_scale_k = 0\n");
  rejects("[identify]\ninnovation_clip_k = -0.5\n");
}

TEST(ConfigLoader, GuardSectionParsesWithUnits) {
  const Config c = Config::parse(
      "[guard]\nhorizon_s = 30\ncontrol_period_ms = 5\ntrip_margin_k = 0.7\n"
      "escalate_after = 2\nderate_step_k = 0.5\n"
      "[ao]\nt_max_margin_k = 1\n");
  const GuardOptions options = guard_options_from_config(c);
  EXPECT_DOUBLE_EQ(options.horizon, 30.0);
  EXPECT_DOUBLE_EQ(options.control_period, 5e-3);
  EXPECT_DOUBLE_EQ(options.trip_margin, 0.7);
  EXPECT_EQ(options.escalate_after, 2);
  EXPECT_DOUBLE_EQ(options.derate_step, 0.5);
  EXPECT_DOUBLE_EQ(options.ao.t_max_margin, 1.0);  // [ao] rides along
  EXPECT_THROW((void)guard_options_from_config(
                   Config::parse("[guard]\ncontrol_period_ms = 0\n")),
               ConfigError);
  EXPECT_THROW((void)guard_options_from_config(
                   Config::parse("[guard]\nbackoff_factor = 0.5\n")),
               ConfigError);  // rejected with the offending key named
}

TEST(ConfigLoader, ReportsUnknownKeysInKnownSectionsOnly) {
  const Config c = Config::parse(
      "[platform]\nrows = 2\ncols = 2\nrowz = 3\n"
      "[ao]\nmax_mm = 9\n"
      "[myapp]\nanything = 1\n");
  // Misspellings inside sections the loader reads are reported (sorted);
  // a section the loader knows nothing about belongs to someone else and
  // stays silent.
  EXPECT_EQ(unknown_config_keys(c),
            (std::vector<std::string>{"ao.max_mm", "platform.rowz"}));
  EXPECT_TRUE(unknown_config_keys(Config::parse(
                  "[platform]\nrows = 1\ncols = 3\n"))
                  .empty());
}

TEST(ConfigLoader, ExtraKnownKeysAdoptTheirSection) {
  const Config c = Config::parse("[serve]\nworkers = 2\nworkerz = 3\n");
  // Without help, [serve] is foreign to the core loader: silence.
  EXPECT_TRUE(unknown_config_keys(c).empty());
  // Once a caller claims one serve key, the section is known and the
  // misspelled sibling is flagged.
  EXPECT_EQ(unknown_config_keys(c, {"serve.workers"}),
            std::vector<std::string>{"serve.workerz"});
}

TEST(ConfigLoader, WarnsOnStderrExactlyOncePerKey) {
  // Key names unique to this test keep it independent of warning state
  // accumulated by any other test in the process.
  const Config c = Config::parse("[run]\nt_max_c_typo_for_warn_test = 1\n");
  ::testing::internal::CaptureStderr();
  const std::vector<std::string> first = warn_unknown_config_keys(c);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(first,
            std::vector<std::string>{"run.t_max_c_typo_for_warn_test"});
  EXPECT_NE(warning.find("unknown config key"), std::string::npos);
  EXPECT_NE(warning.find("run.t_max_c_typo_for_warn_test"),
            std::string::npos);

  // Reloading the same config (file watchers, retries) stays quiet.
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(warn_unknown_config_keys(c).empty());
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

TEST(ConfigLoader, EndToEndSchedulesFromConfig) {
  const Config c = Config::parse(
      "[platform]\nrows = 1\ncols = 3\n"
      "[levels]\nvalues = 0.6, 1.3\n"
      "[run]\nt_max_c = 65\n");
  const Platform p = platform_from_config(c);
  const SchedulerResult r =
      run_ao(p, t_max_from_config(c), ao_options_from_config(c));
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.throughput, 1.0);
}

}  // namespace
}  // namespace foscil::core
