// schedule_audit: certify a hand-written DVFS schedule against a platform.
//
//   $ ./examples/schedule_audit <config.ini> <period_s> <core specs...>
//   $ ./examples/schedule_audit examples/configs/motivation_3x1.ini 0.02
//         "0.6:0.25,1.3:0.75" "0.6:0.4,1.3:0.6" "0.6:0.25,1.3:0.75"
//
// Each core spec is a comma-separated list of voltage:fraction pairs; the
// fractions of a core must sum to 1.  The auditor reports the schedule's
// throughput, its exact stable-status peak, and the Theorem-2 step-up
// certificate — if the certificate clears T_max the schedule is *provably*
// safe without any transient search, which is the paper's core trick turned
// into a verification tool.
//
// When the config carries a [faults] section the auditor additionally
// replays the schedule open-loop on the faulted plant: the certificate
// holds for the *nominal* chip, and the replay shows what the same
// schedule does on the chip you actually got.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/config_loader.hpp"
#include "core/guard.hpp"
#include "serve/serve_config.hpp"
#include "util/table.hpp"

using namespace foscil;

namespace {

std::vector<sched::Segment> parse_core_spec(const std::string& spec,
                                            double period) {
  std::vector<sched::Segment> segments;
  std::istringstream in(spec);
  std::string field;
  while (std::getline(in, field, ',')) {
    const std::size_t colon = field.find(':');
    if (colon == std::string::npos)
      throw std::runtime_error("bad segment '" + field +
                               "', expected voltage:fraction");
    const double voltage = std::stod(field.substr(0, colon));
    const double fraction = std::stod(field.substr(colon + 1));
    segments.push_back({fraction * period, voltage});
  }
  if (segments.empty())
    throw std::runtime_error("empty core spec '" + spec + "'");
  return segments;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <config.ini> <period_s> <core spec>...\n"
                 "  core spec: v:frac[,v:frac...], fractions sum to 1\n",
                 argv[0]);
    return 2;
  }
  try {
    const Config config = Config::load(argv[1]);
    core::warn_unknown_config_keys(config, serve::config_key_names());
    const core::Platform platform = core::platform_from_config(config);
    const double t_max = core::t_max_from_config(config);
    const double period = std::stod(argv[2]);

    const std::size_t specs = static_cast<std::size_t>(argc - 3);
    if (specs != platform.num_cores()) {
      std::fprintf(stderr, "error: platform has %zu cores but %zu core "
                   "specs were given\n",
                   platform.num_cores(), specs);
      return 2;
    }
    sched::PeriodicSchedule schedule(platform.num_cores(), period);
    for (std::size_t core = 0; core < specs; ++core)
      schedule.set_core_segments(
          core, parse_core_spec(argv[3 + static_cast<int>(core)], period));

    const core::ScheduleAudit audit =
        audit_schedule(platform, schedule, t_max, 96);

    std::printf("auditing a %.1f ms schedule on %s against T_max = %.1f C\n\n",
                period * 1e3, platform.name.c_str(), t_max);
    TextTable table({"quantity", "value"});
    table.add_row({"throughput (eq. 5)", fmt(audit.throughput)});
    table.add_row({"step-up certificate (Thm. 2)",
                   fmt_celsius(audit.bound_celsius)});
    table.add_row({"exact stable-status peak",
                   fmt_celsius(audit.peak_celsius)});
    table.add_row({"hottest core", std::to_string(audit.hottest_core)});
    table.add_row({"peak offset in period",
                   fmt(audit.peak_time * 1e3, 2) + " ms"});
    table.add_row({"certified safe (no sampling needed)",
                   audit.certified_safe ? "YES" : "no"});
    table.add_row({"measured safe", audit.measured_safe ? "YES" : "NO"});
    std::printf("%s\n", table.str().c_str());

    if (core::has_faults_config(config)) {
      const sim::FaultSpec faults = core::faults_from_config(config);
      const core::GuardOptions options =
          core::guard_options_from_config(config);
      const core::GuardResult replay =
          core::run_open_loop(platform, t_max, schedule, faults, options);
      std::printf("open-loop replay on the faulted plant (%.0f s horizon):\n",
                  options.horizon);
      TextTable faulted({"quantity", "value"});
      faulted.add_row({"true peak", fmt_celsius(replay.result.peak_celsius)});
      faulted.add_row({"violating polls", std::to_string(replay.violations) +
                                              " / " +
                                              std::to_string(replay.polls)});
      faulted.add_row({"delivered throughput", fmt(replay.result.throughput)});
      faulted.add_row(
          {"dropped / delayed transitions",
           std::to_string(replay.dropped_transitions) + " / " +
               std::to_string(replay.delayed_transitions)});
      faulted.add_row(
          {"survived faulted", replay.violations == 0 ? "YES" : "NO"});
      std::printf("%s\n", faulted.str().c_str());
    }

    if (audit.certified_safe) {
      std::printf("verdict: provably below T_max by the step-up bound.\n");
    } else if (audit.measured_safe) {
      std::printf("verdict: measured safe, but only by sampling — the "
                  "step-up bound exceeds T_max,\nso consider re-ordering "
                  "segments (step-up) or lowering high-mode ratios for a "
                  "certificate.\n");
    } else {
      std::printf("verdict: UNSAFE — the schedule overheats the chip in "
                  "stable status.\n");
    }
    return audit.measured_safe ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
