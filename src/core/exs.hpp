// EXS — exhaustive search over single-mode assignments (Algorithm 1).
//
// Enumerates every |levels|^N assignment of one constant discrete mode per
// core, keeps the feasible assignment with the highest total speed
// (ties broken toward the cooler chip).  Each candidate needs one
// steady-state evaluation T_inf = (G - beta E)^{-1} Psi(v); the die-block of
// that inverse is precomputed once, and the odometer walk updates the
// temperatures incrementally: one contribution column per changed digit
// (amortized O(N) per candidate, with a periodic full recompute bounding
// drift), and any candidate near the budget is re-evaluated exactly with
// the N x N mat-vec before the feasibility test.  The exponential
// enumeration is the paper's scalability strawman — kept faithful (no
// pruning), but partitioned across threads.
#pragma once

#include <cstdint>

#include "core/platform.hpp"
#include "core/result.hpp"
#include "util/cancel.hpp"

namespace foscil::core {

struct ExsOptions {
  /// Refuse to enumerate more candidates than this (0 = unlimited).  The
  /// 9-core x 15-level space is ~38e9 candidates; the guard turns an
  /// accidental multi-hour run into an error the caller can handle.
  std::uint64_t max_candidates = 200'000'000;
  unsigned threads = 0;  ///< 0 = hardware default
  /// Cooperative cancellation (util/cancel.hpp): each enumeration chunk
  /// polls the token between candidates (every few thousand) and the run
  /// raises CancelledError once all chunks have stopped.  A run that is not
  /// cancelled is bit-identical to one planned with no token.
  const CancelToken* cancel = nullptr;
};

/// Thrown when the design space exceeds ExsOptions::max_candidates.
class ExsSpaceTooLarge : public std::runtime_error {
 public:
  ExsSpaceTooLarge(std::uint64_t candidates, std::uint64_t limit)
      : std::runtime_error("EXS space of " + std::to_string(candidates) +
                           " candidates exceeds the limit of " +
                           std::to_string(limit)) {}
};

[[nodiscard]] SchedulerResult run_exs(const Platform& platform,
                                      double t_max_c,
                                      const ExsOptions& options = {});

}  // namespace foscil::core
