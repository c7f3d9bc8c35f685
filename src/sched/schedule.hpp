// Periodic multi-core voltage schedules (Sec. II of the paper).
//
// A PeriodicSchedule assigns every core a cyclic sequence of (duration,
// voltage) segments over a common period t_p.  Cores switch independently,
// so the chip as a whole runs through "state intervals" — maximal spans in
// which no core changes mode — which is the granularity the thermal
// recurrences (eqs. 3, 4) operate on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/contracts.hpp"

namespace foscil::sched {

/// One per-core run: hold `voltage` for `duration` seconds.
struct Segment {
  double duration = 0.0;
  double voltage = 0.0;
};

/// Chip-wide span in which every core holds one mode.
struct StateInterval {
  double start = 0.0;            ///< offset from period start
  double length = 0.0;           ///< seconds
  linalg::Vector voltages;       ///< per-core supply voltage
};

/// State intervals in flat, caller-owned storage (see
/// PeriodicSchedule::state_intervals_into).  Interval k starts at
/// breakpoint k and ends at breakpoint k + 1; its per-core voltages are row
/// k of one contiguous intervals × cores block.  Refilling a buffer keeps
/// its capacity, so a planner scan that merges thousands of candidate
/// schedules through one buffer stops allocating once the buffer has grown
/// to the largest candidate.
class IntervalBuffer {
 public:
  [[nodiscard]] std::size_t size() const { return breaks_.size() - 1; }
  [[nodiscard]] std::size_t num_cores() const { return cores_; }
  [[nodiscard]] double start(std::size_t k) const { return breaks_[k]; }
  [[nodiscard]] double length(std::size_t k) const {
    return breaks_[k + 1] - breaks_[k];
  }
  /// num_cores() voltages of interval k.
  [[nodiscard]] const double* voltages(std::size_t k) const {
    return voltages_.data() + k * cores_;
  }

 private:
  friend class PeriodicSchedule;
  std::size_t cores_ = 0;
  std::vector<double> breaks_{0.0};  // merged breakpoints, period included
  std::vector<double> voltages_;     // size() × cores_, row-major
  std::vector<double> midpoints_;   // cursor-walk scratch
};

/// Piecewise-constant periodic voltage schedule for N cores.
class PeriodicSchedule {
 public:
  /// All cores initially hold 0 V for the whole period; fill with
  /// `set_core_segments`.
  PeriodicSchedule(std::size_t num_cores, double period);

  /// Every core holds its entry of `voltages` for the whole period.
  [[nodiscard]] static PeriodicSchedule constant(
      const linalg::Vector& voltages, double period);

  [[nodiscard]] std::size_t num_cores() const { return segments_.size(); }
  [[nodiscard]] double period() const { return period_; }

  /// Return to the freshly constructed state with a new period (every core
  /// holds 0 V for the whole period), keeping the per-core storage so a
  /// caller that rebuilds schedules in a loop does not reallocate.
  void reset(double period);

  /// Replace one core's cycle; durations must be positive and sum to the
  /// period (within a relative tolerance, after which they are rescaled to
  /// sum exactly).
  void set_core_segments(std::size_t core, std::vector<Segment> segments);

  /// set_core_segments copying from a caller buffer into the core's
  /// existing storage (no allocation once it has the capacity).  Same
  /// validation and rescale, so the stored bits are identical.
  void assign_core_segments(std::size_t core,
                            std::span<const Segment> segments);

  /// Verbatim variant for deserialization (serve/snapshot warm restart):
  /// same validation as set_core_segments but durations are stored exactly
  /// as given, with no rescale.  The segments must have come from a
  /// schedule that already went through set_core_segments — re-rescaling
  /// them would perturb the stored bit patterns and break the snapshot
  /// round-trip bit-identity guarantee.
  void restore_core_segments(std::size_t core, std::vector<Segment> segments);

  [[nodiscard]] const std::vector<Segment>& core_segments(
      std::size_t core) const {
    FOSCIL_EXPECTS(core < segments_.size());
    return segments_[core];
  }

  /// Supply voltage of `core` at time t (t taken modulo the period).
  [[nodiscard]] double voltage_at(std::size_t core, double t) const;

  /// Merge the per-core breakpoints into chip-wide state intervals.
  [[nodiscard]] std::vector<StateInterval> state_intervals() const;

  /// state_intervals written into `out`, overwriting its contents: the same
  /// breakpoint sort, merge tolerance and per-core cursor walk, so starts,
  /// lengths and voltages are bit-identical to state_intervals().
  void state_intervals_into(IntervalBuffer& out) const;

  /// Chip-wide throughput of eq. (5): mean speed per core, with speed == v.
  /// (Transition-stall accounting lives in the AO scheduler, which builds
  /// stall compensation into the segment durations.)
  [[nodiscard]] double throughput() const;

  /// Total work (volt-seconds) completed by one core per period.
  [[nodiscard]] double core_work(std::size_t core) const;

  /// True when every core's voltage is non-decreasing over its cycle
  /// (Definition 1).
  [[nodiscard]] bool is_step_up(double tol = 1e-12) const;

  /// Merge adjacent segments with equal voltage; drops zero-length runs.
  [[nodiscard]] PeriodicSchedule simplified(double voltage_tol = 1e-12) const;

 private:
  double period_;
  std::vector<std::vector<Segment>> segments_;
};

}  // namespace foscil::sched
