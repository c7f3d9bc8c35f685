// [serve] and [net] configuration sections for the planning service and
// its network front end.
//
// Lives in serve/ (not core/config_loader) so the core library never
// depends upward on the serving stack.  Every key -- its type, unit, range
// and default -- is a row of the key table in serve_config.cpp
// (config_keys); all keys are optional, and defaults are those of the
// option structs the rows fill.
#pragma once

#include "serve/net/server.hpp"
#include "serve/service.hpp"
#include "util/config.hpp"

namespace foscil::serve {

/// Service knobs from [serve] (defaults when the section is absent).
/// Throws ConfigError / ContractViolation on malformed values.
[[nodiscard]] ServiceOptions service_options_from_config(
    const Config& config);

/// Workload shape for the CLI serving demo.
struct ServeDemoOptions {
  int unique_requests = 16;  ///< distinct T_max points swept
  int repeats = 32;          ///< how often each point recurs
};

[[nodiscard]] ServeDemoOptions demo_options_from_config(const Config& config);

/// Network front-end knobs from [net] (defaults when absent).  Throws
/// ConfigError / ContractViolation on malformed values.
[[nodiscard]] net::ServerOptions server_options_from_config(
    const Config& config);

/// Every value a [serve] or [net] key fills, at the loaders' defaults.
struct ConfigTargets {
  ServiceOptions service;
  ServeDemoOptions demo;
  net::ServerOptions server;
};

/// The [serve]/[net] key table: one row per key, bound to a field of
/// `targets`.
[[nodiscard]] std::vector<ConfigKey> config_keys(ConfigTargets& targets);

/// The table's key names — the serve layer's contribution to
/// core::unknown_config_keys / warn_unknown_config_keys, so a misspelled
/// [serve] or [net] knob is warned about instead of silently ignored.
[[nodiscard]] std::vector<std::string> config_key_names();

}  // namespace foscil::serve
