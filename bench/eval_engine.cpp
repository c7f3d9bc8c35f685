// X9/X10 — Modal vs reference engines, and SIMD + batched kernels
// (DESIGN.md §11, §14).
//
// Measurements per grid size:
//   * per-candidate latency of one steady-boundary core-rise evaluation
//     (the unit of work the AO m-search and TPT scan repeat thousands of
//     times), reference dense walk vs modal diagonal recurrence, plus their
//     node-space agreement;
//   * a frozen copy of the pre-SIMD modal evaluation path (legacy interval
//     walk, mutexed memo lookups, sequential scalar loops — see
//     LegacyModalEval below) vs the batched SoA pass at the best dispatch
//     level — the per-candidate speedup this PR's kernel layer buys on top
//     of the modal engine itself;
//   * end-to-end AO plan latency with each engine (run_ao_internal on a
//     reference or a modal analyzer), pinning that both engines settle on
//     the same oscillation count m and throughput.  The
//     reference engine's AO run is skipped above ~250 nodes and the modal
//     engine's above ~400 (a 16x16 plan multiplies hundreds of cores by
//     hundreds of TPT steps — the scaling story there is the per-candidate
//     eval cost, which is measured at every size).
// A small GEMM microbench reports the transposed-RHS multiply against the
// plain ikj product, since W-row back-transforms are the modal engine's
// residual dense cost.
//
// --smoke is the CI acceptance gate (ISSUEs 4 and 9): on the largest
// reference-capable grid (8x8, ~200 thermal nodes), the modal engine must
// plan >= 2x faster than the reference engine while choosing the identical
// m, the same feasibility, and a throughput within 1e-9 — the boundary
// temperatures must agree to 1e-10 — forced-scalar and best-available
// dispatch must produce bit-identical boundaries and batch results — and,
// when the CPU has AVX2, the batched SIMD path must evaluate candidates
// >= 2x faster than the frozen pre-SIMD baseline.
// The gate is engine-vs-engine on one thread of work, so it holds on a
// single-core CI box.
//
// --json PATH writes the measurements as the BENCH_eval.json perf record.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "core/ao.hpp"
#include "core/ideal.hpp"
#include "linalg/simd.hpp"
#include "linalg/spectral.hpp"
#include "sim/steady.hpp"
#include "thermal/model.hpp"
#include "util/table.hpp"

using namespace foscil;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kTMaxC = 55.0;

/// Reference-engine AO plans above this node count take minutes each; the
/// per-candidate eval comparison stays cheap at any size, so only the
/// end-to-end reference plan is skipped beyond it.
constexpr std::size_t kMaxRefAoNodes = 250;

/// End-to-end AO plans stop being a per-engine comparison and start being
/// a patience test above this node count even on the modal engine (a
/// 16x16 TPT scan is hundreds of cores times hundreds of ratio steps); the
/// scaling chapter (X10) only needs the per-candidate eval costs there.
constexpr std::size_t kMaxModalAoNodes = 400;

/// One benchmarked grid.
struct GridReport {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t nodes = 0;
  std::size_t cores = 0;
  double ref_eval_us = 0.0;
  double modal_eval_us = 0.0;
  double base_eval_us = 0.0;   ///< frozen pre-kernel-layer modal baseline
  double batch_eval_us = 0.0;  ///< per candidate, batched SoA + best dispatch
  double boundary_agreement = 0.0;  ///< inf-norm of the engine difference
  bool dispatch_identical = false;  ///< scalar vs best: boundaries, batch bits
  bool ref_ao_run = false;
  bool modal_ao_run = false;
  double ref_ao_s = 0.0;
  double modal_ao_s = 0.0;
  int ref_m = 0;
  int modal_m = 0;
  double ref_throughput = 0.0;
  double modal_throughput = 0.0;
  core::detail::AoStages modal_stages;  ///< stage split of the modal plan
  bool ref_feasible = false;
  bool modal_feasible = false;

  [[nodiscard]] double eval_speedup() const {
    return modal_eval_us > 0.0 ? ref_eval_us / modal_eval_us : 0.0;
  }
  [[nodiscard]] double simd_speedup() const {
    return batch_eval_us > 0.0 ? base_eval_us / batch_eval_us : 0.0;
  }
  [[nodiscard]] double ao_speedup() const {
    return modal_ao_s > 0.0 ? ref_ao_s / modal_ao_s : 0.0;
  }
};

core::AoOptions bench_options() {
  core::AoOptions options;
  // A coarser TPT step than the paper default keeps the reference-engine
  // run of the largest grid within CI budgets; both engines use the same
  // options, so the comparison is apples-to-apples.
  options.t_unit_fraction = 5e-3;
  return options;
}

/// Per-core oscillations for a representative m-oscillating candidate.  On
/// grids the reference AO still plans, these come from the real planner
/// seed (ideal constant voltages); above that the coordinate-ascent seed
/// itself takes minutes at hundreds of cores, and the per-candidate eval
/// cost being measured does not depend on *which* duty ratios the cores
/// carry — only that they oscillate with distinct ratios, producing the
/// same interval structure a planner candidate has — so the ratios are
/// synthesized instead.
std::vector<core::CoreOscillation> candidate_oscillations(
    const core::Platform& platform) {
  const std::size_t cores = platform.num_cores();
  const std::size_t nodes = platform.model->num_nodes();
  if (nodes <= kMaxRefAoNodes) {
    const core::IdealVoltages ideal = core::ideal_constant_voltages(
        *platform.model, platform.rise_budget(kTMaxC),
        platform.levels.highest());
    return core::detail::make_oscillations(ideal.voltages, platform.levels);
  }
  std::vector<core::CoreOscillation> osc(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    osc[i].v_low = platform.levels.lowest();
    osc[i].v_high = platform.levels.highest();
    osc[i].oscillating = true;
    osc[i].ratio_high =
        0.30 + 0.45 * static_cast<double>(i % 17) / 16.0;
  }
  return osc;
}

/// A representative m-oscillating candidate: the schedule AO would evaluate
/// at m = 8 before any TPT reduction.
sched::PeriodicSchedule candidate_schedule(
    const std::vector<core::CoreOscillation>& cores,
    const core::AoOptions& options) {
  return core::detail::build_oscillating_schedule(
      cores, options.base_period, 8, options.transition_overhead);
}

/// Frozen copy of the modal evaluation path as it stood before the SIMD
/// kernel layer and the batched SoA pass: the sort + per-(interval, core)
/// voltage_at interval walk, mutexed memo lookups keyed by a serial FNV-1a
/// hash, the AoS exp/phi recurrence, and the sequential-accumulator scalar
/// back-transform.  It is the denominator of the ISSUE-9 ">= 2x
/// per-candidate eval speedup vs the current modal engine" gate, kept
/// verbatim here so the gate keeps comparing against the same baseline as
/// the live engine evolves.
class LegacyModalEval {
 public:
  explicit LegacyModalEval(const core::Platform& platform)
      : model_(platform.model) {
    const auto& w = model_->spectral().w();
    const std::size_t cores = model_->num_cores();
    const std::size_t n = model_->num_nodes();
    w_die_ = linalg::Matrix(cores, n);
    for (std::size_t core = 0; core < cores; ++core) {
      const double* src = w.row_data(model_->network().die_node(core));
      double* dst = w_die_.row_data(core);
      for (std::size_t c = 0; c < n; ++c) dst[c] = src[c];
    }
  }

  [[nodiscard]] linalg::Vector stable_core_rises(
      const sched::PeriodicSchedule& s) const {
    const std::size_t n = model_->spectral().size();
    linalg::Vector y(n);
    for (const auto& interval : state_intervals(s)) {
      const linalg::Vector& b_hat = modal_b(interval.voltages);
      const Factors& f = interval_factors(interval.length);
      double* y_p = y.data();
      const double* e_p = f.exp_lt.data();
      const double* p_p = f.phi_lt.data();
      const double* b_p = b_hat.data();
      for (std::size_t i = 0; i < n; ++i)
        y_p[i] = e_p[i] * y_p[i] + p_p[i] * b_p[i];
    }
    const linalg::Vector& res = resolvent(s.period());
    for (std::size_t i = 0; i < n; ++i) y[i] *= res[i];
    linalg::Vector rises(w_die_.rows());
    for (std::size_t r = 0; r < w_die_.rows(); ++r) {
      const double* row = w_die_.row_data(r);
      double acc = 0.0;
      for (std::size_t c = 0; c < n; ++c) acc += row[c] * y[c];
      rises[r] = acc;
    }
    return rises;
  }

 private:
  struct Factors {
    linalg::Vector exp_lt;
    linalg::Vector phi_lt;
  };

  // The pre-kernel-layer serial FNV-1a chain (one multiply per key word on
  // the critical path), with the engine's heterogeneous-lookup shape.
  static std::size_t hash_doubles(const double* values, std::size_t n) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= std::bit_cast<std::uint64_t>(values[i]);
      h *= 1099511628211ull;
    }
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const std::vector<double>& k) const {
      return hash_doubles(k.data(), k.size());
    }
    std::size_t operator()(const linalg::Vector& k) const {
      return hash_doubles(k.data(), k.size());
    }
  };
  struct Eq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return a.size() == b.size() &&
             std::equal(a.begin(), a.end(), b.begin());
    }
  };

  // Pre-PR state_intervals: sort every breakpoint, then restart a
  // voltage_at scan per (interval, core).
  [[nodiscard]] std::vector<sched::StateInterval> state_intervals(
      const sched::PeriodicSchedule& s) const {
    std::vector<double> breaks{0.0, s.period()};
    for (std::size_t core = 0; core < s.num_cores(); ++core) {
      const auto& segs = s.core_segments(core);
      double cursor = 0.0;
      for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
        cursor += segs[i].duration;
        breaks.push_back(cursor);
      }
    }
    std::sort(breaks.begin(), breaks.end());
    const double merge_tol = 1e-9 * s.period();
    std::vector<double> merged;
    for (double b : breaks)
      if (merged.empty() || b - merged.back() > merge_tol) merged.push_back(b);
    if (s.period() - merged.back() <= merge_tol) merged.back() = s.period();
    else merged.push_back(s.period());
    std::vector<sched::StateInterval> intervals;
    intervals.reserve(merged.size() - 1);
    for (std::size_t k = 0; k + 1 < merged.size(); ++k) {
      sched::StateInterval interval;
      interval.start = merged[k];
      interval.length = merged[k + 1] - merged[k];
      interval.voltages = linalg::Vector(s.num_cores());
      const double midpoint = interval.start + 0.5 * interval.length;
      for (std::size_t core = 0; core < s.num_cores(); ++core)
        interval.voltages[core] = s.voltage_at(core, midpoint);
      intervals.push_back(std::move(interval));
    }
    return intervals;
  }

  [[nodiscard]] const linalg::Vector& modal_b(
      const linalg::Vector& voltages) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = b_cache_.find(voltages);
    if (it != b_cache_.end()) return it->second;
    return b_cache_
        .emplace(std::vector<double>(voltages.begin(), voltages.end()),
                 model_->spectral().w_inverse() * model_->b_vector(voltages))
        .first->second;
  }

  [[nodiscard]] const Factors& interval_factors(double dt) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factor_cache_.find(dt);
    if (it != factor_cache_.end()) return it->second;
    const auto& lambda = model_->spectral().eigenvalues();
    Factors f;
    f.exp_lt = linalg::Vector(lambda.size());
    f.phi_lt = linalg::Vector(lambda.size());
    for (std::size_t i = 0; i < lambda.size(); ++i) {
      f.exp_lt[i] = std::exp(lambda[i] * dt);
      f.phi_lt[i] = linalg::phi_factor(lambda[i], dt);
    }
    return factor_cache_.emplace(dt, std::move(f)).first->second;
  }

  [[nodiscard]] const linalg::Vector& resolvent(double period) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = resolvent_cache_.find(period);
    if (it != resolvent_cache_.end()) return it->second;
    const auto& lambda = model_->spectral().eigenvalues();
    linalg::Vector f(lambda.size());
    for (std::size_t i = 0; i < lambda.size(); ++i)
      f[i] = 1.0 / (1.0 - std::exp(lambda[i] * period));
    return resolvent_cache_.emplace(period, std::move(f)).first->second;
  }

  std::shared_ptr<const thermal::ThermalModel> model_;
  linalg::Matrix w_die_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::vector<double>, linalg::Vector, Hash, Eq>
      b_cache_;
  mutable std::unordered_map<double, Factors> factor_cache_;
  mutable std::unordered_map<double, linalg::Vector> resolvent_cache_;
};

/// A TPT-scan-shaped batch: `count` variants of the m = 8 candidate, each
/// with one core's duty ratio nudged down — the shape of the candidates
/// run_ao_internal's TPT scan evaluates as one batch.
std::vector<sched::PeriodicSchedule> candidate_batch(
    const std::vector<core::CoreOscillation>& cores,
    const core::AoOptions& options, std::size_t count) {
  std::vector<sched::PeriodicSchedule> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<core::CoreOscillation> candidate = cores;
    const std::size_t j = i % candidate.size();
    if (candidate[j].oscillating)
      candidate[j].ratio_high = std::clamp(
          candidate[j].ratio_high -
              options.t_unit_fraction *
                  static_cast<double>(1 + i / candidate.size()),
          0.05, 0.95);
    batch.push_back(core::detail::build_oscillating_schedule(
        candidate, options.base_period, 8, options.transition_overhead));
  }
  return batch;
}

/// Mean seconds per stable_core_rises call, timed over >= `budget_s` of
/// repetitions (at least 3 calls).  The checksum defeats dead-code
/// elimination.
double time_eval(const sim::SteadyStateAnalyzer& analyzer,
                 const sched::PeriodicSchedule& schedule, double budget_s,
                 double* checksum) {
  // Warm-up: populates the modal b-hat memo so the timed region measures
  // the steady per-candidate cost, exactly as a planning loop sees it.
  *checksum += analyzer.stable_core_rises(schedule).max();
  const double start = now_s();
  std::size_t calls = 0;
  double elapsed = 0.0;
  do {
    *checksum += analyzer.stable_core_rises(schedule)[0];
    ++calls;
    elapsed = now_s() - start;
  } while (elapsed < budget_s || calls < 3);
  return elapsed / static_cast<double>(calls);
}

/// Mean seconds per call of the frozen pre-kernel-layer baseline, timed
/// warm (memos populated) just like the live engine's measurement.
double time_legacy_eval(const LegacyModalEval& legacy,
                        const sched::PeriodicSchedule& schedule,
                        double budget_s, double* checksum) {
  *checksum += legacy.stable_core_rises(schedule).max();
  const double start = now_s();
  std::size_t calls = 0;
  double elapsed = 0.0;
  do {
    *checksum += legacy.stable_core_rises(schedule)[0];
    ++calls;
    elapsed = now_s() - start;
  } while (elapsed < budget_s || calls < 3);
  return elapsed / static_cast<double>(calls);
}

/// Mean seconds *per candidate* of the batched evaluation path.
double time_batch_eval(const sim::SteadyStateAnalyzer& analyzer,
                       const std::vector<sched::PeriodicSchedule>& batch,
                       double budget_s, double* checksum) {
  *checksum +=
      analyzer.batch_stable_core_rises(batch.data(), batch.size())[0].max();
  const double start = now_s();
  std::size_t calls = 0;
  double elapsed = 0.0;
  do {
    *checksum +=
        analyzer.batch_stable_core_rises(batch.data(), batch.size())[0][0];
    ++calls;
    elapsed = now_s() - start;
  } while (elapsed < budget_s || calls < 3);
  return elapsed / static_cast<double>(calls * batch.size());
}

/// Forced-scalar vs best-available dispatch over the same inputs: stable
/// boundaries must agree bit-for-bit, and the batch path must equal the
/// single-candidate path exactly on both.
bool check_dispatch_identity(const sim::SteadyStateAnalyzer& modal,
                             const sched::PeriodicSchedule& schedule,
                             const std::vector<sched::PeriodicSchedule>& batch) {
  using linalg::simd::Level;
  const Level original = linalg::simd::active_level();
  linalg::simd::set_active_level(Level::kScalar);
  const linalg::Vector scalar_boundary = modal.stable_boundary(schedule);
  const std::vector<linalg::Vector> scalar_batch =
      modal.batch_stable_core_rises(batch.data(), batch.size());
  linalg::simd::set_active_level(linalg::simd::detected_level());
  const linalg::Vector best_boundary = modal.stable_boundary(schedule);
  const std::vector<linalg::Vector> best_batch =
      modal.batch_stable_core_rises(batch.data(), batch.size());
  bool identical =
      (scalar_boundary - best_boundary).inf_norm() == 0.0;
  for (std::size_t i = 0; i < batch.size() && identical; ++i) {
    identical = (scalar_batch[i] - best_batch[i]).inf_norm() == 0.0 &&
                (best_batch[i] - modal.stable_core_rises(batch[i]))
                        .inf_norm() == 0.0;
  }
  linalg::simd::set_active_level(original);
  return identical;
}

GridReport bench_grid(std::size_t rows, std::size_t cols, double eval_budget_s,
                      double* checksum) {
  const core::AoOptions options = bench_options();
  std::fprintf(stderr, "  [%zux%zu] building platform...\n", rows, cols);
  const core::Platform platform = bench::paper_platform(rows, cols, 2);
  GridReport report;
  report.rows = rows;
  report.cols = cols;
  report.nodes = platform.model->num_nodes();
  report.cores = platform.num_cores();

  std::fprintf(stderr, "  [%zux%zu] per-candidate evals (%zu nodes)...\n",
               rows, cols, report.nodes);
  const std::vector<core::CoreOscillation> oscillations =
      candidate_oscillations(platform);
  const sched::PeriodicSchedule schedule =
      candidate_schedule(oscillations, options);
  const sim::SteadyStateAnalyzer reference(platform.model,
                                           sim::EvalEngine::kReference);
  const sim::SteadyStateAnalyzer modal(platform.model,
                                       sim::EvalEngine::kModal);
  report.ref_eval_us =
      1e6 * time_eval(reference, schedule, eval_budget_s, checksum);
  report.modal_eval_us =
      1e6 * time_eval(modal, schedule, eval_budget_s, checksum);
  report.boundary_agreement =
      (reference.stable_boundary(schedule) - modal.stable_boundary(schedule))
          .inf_norm();

  // SIMD-layer measurements: the frozen pre-kernel-layer baseline vs the
  // batched SoA pass at the CPU's best level, on a TPT-scan-shaped batch.
  const std::vector<sched::PeriodicSchedule> batch =
      candidate_batch(oscillations, options, 64);
  const LegacyModalEval legacy(platform);
  // The frozen baseline must still compute the same quantity the live
  // engine does, or its timings mean nothing.
  const double base_agreement =
      (legacy.stable_core_rises(schedule) - modal.stable_core_rises(schedule))
          .inf_norm();
  if (base_agreement > 1e-10)
    std::printf("WARNING: pre-SIMD baseline diverges from modal engine "
                "(%.3e) at %zux%zu\n",
                base_agreement, rows, cols);
  report.base_eval_us =
      1e6 * time_legacy_eval(legacy, schedule, eval_budget_s, checksum);
  report.batch_eval_us =
      1e6 * time_batch_eval(modal, batch, eval_budget_s, checksum);
  report.dispatch_identical = check_dispatch_identity(modal, schedule, batch);

  report.ref_ao_run = report.nodes <= kMaxRefAoNodes;
  if (report.ref_ao_run) {
    std::fprintf(stderr, "  [%zux%zu] reference AO...\n", rows, cols);
    const double t0 = now_s();
    const sim::SteadyStateAnalyzer ref_analyzer(platform.model,
                                                sim::EvalEngine::kReference);
    const core::SchedulerResult ref =
        core::detail::run_ao_internal(platform, kTMaxC, options, ref_analyzer)
            .result;
    report.ref_ao_s = now_s() - t0;
    report.ref_m = ref.m;
    report.ref_throughput = ref.throughput;
    report.ref_feasible = ref.feasible;
  }

  report.modal_ao_run = report.nodes <= kMaxModalAoNodes;
  if (report.modal_ao_run) {
    std::fprintf(stderr, "  [%zux%zu] modal AO...\n", rows, cols);
    const double t0 = now_s();
    const sim::SteadyStateAnalyzer modal_analyzer(platform.model,
                                                  sim::EvalEngine::kModal);
    const core::detail::AoInternal run = core::detail::run_ao_internal(
        platform, kTMaxC, options, modal_analyzer);
    report.modal_ao_s = now_s() - t0;
    const core::SchedulerResult& fast = run.result;
    report.modal_stages = run.stages;
    report.modal_m = fast.m;
    report.modal_throughput = fast.throughput;
    report.modal_feasible = fast.feasible;
  }
  return report;
}

struct GemmReport {
  std::size_t n = 0;
  double plain_ms = 0.0;
  double transposed_ms = 0.0;
  double max_diff = 0.0;
};

GemmReport bench_gemm(std::size_t n, double* checksum) {
  linalg::Matrix a(n, n);
  linalg::Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = std::sin(static_cast<double>(r * 31 + c) * 0.1);
      b(r, c) = std::cos(static_cast<double>(r * 17 + c) * 0.1);
    }
  const linalg::Matrix b_t = b.transposed();

  GemmReport report;
  report.n = n;
  const int reps = 5;
  double t0 = now_s();
  for (int i = 0; i < reps; ++i) *checksum += (a * b)(0, 0);
  report.plain_ms = 1e3 * (now_s() - t0) / reps;
  t0 = now_s();
  for (int i = 0; i < reps; ++i)
    *checksum += linalg::multiply_transposed_rhs(a, b_t)(0, 0);
  report.transposed_ms = 1e3 * (now_s() - t0) / reps;

  const linalg::Matrix diff = a * b - linalg::multiply_transposed_rhs(a, b_t);
  report.max_diff = diff.inf_norm();
  return report;
}

void write_json(const char* path, const std::vector<GridReport>& grids,
                const std::vector<GemmReport>& gemms, bool smoke,
                bool gate_passed) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"eval_engine\",\n");
  std::fprintf(out, "  \"t_max_c\": %.1f,\n", kTMaxC);
  std::fprintf(out, "  \"t_unit_fraction\": %.4f,\n",
               bench_options().t_unit_fraction);
  std::fprintf(out, "  \"simd\": {\"detected\": \"%s\", \"active\": \"%s\"},\n",
               linalg::simd::level_name(linalg::simd::detected_level()),
               linalg::simd::level_name(linalg::simd::active_level()));
  std::fprintf(out, "  \"grids\": [\n");
  for (std::size_t i = 0; i < grids.size(); ++i) {
    const GridReport& g = grids[i];
    std::fprintf(
        out,
        "    {\"grid\": \"%zux%zu\", \"nodes\": %zu, \"cores\": %zu, "
        "\"ref_eval_us\": %.3f, \"modal_eval_us\": %.3f, "
        "\"eval_speedup\": %.2f, \"base_eval_us\": %.3f, "
        "\"batch_eval_us\": %.3f, \"simd_speedup\": %.2f, "
        "\"dispatch_identical\": %s, "
        "\"boundary_agreement\": %.3e, \"ref_ao_run\": %s, "
        "\"modal_ao_run\": %s, "
        "\"ref_ao_s\": %.4f, \"modal_ao_s\": %.4f, \"ao_speedup\": %.2f, "
        "\"m\": [%d, %d], \"throughput\": [%.12f, %.12f], "
        "\"feasible\": [%s, %s], \"seed_s\": %.4f, \"m_search_s\": %.4f, "
        "\"tpt_s\": %.4f, \"final_peak_s\": %.4f, "
        "\"m_search_candidates\": %zu, \"tpt_candidates\": %zu}%s\n",
        g.rows, g.cols, g.nodes, g.cores, g.ref_eval_us, g.modal_eval_us,
        g.eval_speedup(), g.base_eval_us, g.batch_eval_us, g.simd_speedup(),
        g.dispatch_identical ? "true" : "false", g.boundary_agreement,
        g.ref_ao_run ? "true" : "false", g.modal_ao_run ? "true" : "false",
        g.ref_ao_s, g.modal_ao_s,
        g.ao_speedup(), g.ref_m, g.modal_m, g.ref_throughput,
        g.modal_throughput, g.ref_feasible ? "true" : "false",
        g.modal_feasible ? "true" : "false", g.modal_stages.seed_s,
        g.modal_stages.m_search_s, g.modal_stages.tpt_s,
        g.modal_stages.final_peak_s, g.modal_stages.m_search_candidates,
        g.modal_stages.tpt_candidates, i + 1 < grids.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const GemmReport& g = gemms[i];
    std::fprintf(out,
                 "    {\"n\": %zu, \"plain_ms\": %.3f, "
                 "\"transposed_ms\": %.3f, \"max_diff\": %.3e}%s\n",
                 g.n, g.plain_ms, g.transposed_ms, g.max_diff,
                 i + 1 < gemms.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"gate\": {\"mode\": \"%s\", \"min_ao_speedup\": 2.0, "
               "\"min_simd_speedup\": 2.0, "
               "\"requires_dispatch_identical\": true, \"passed\": %s}\n",
               smoke ? "smoke" : "full", gate_passed ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
}

/// The ISSUE-4 + ISSUE-9 acceptance gate, applied to one grid report (the
/// largest grid where the reference engine still planned end-to-end).
bool apply_gate(const GridReport& g) {
  bool passed = true;
  if (g.ref_m != g.modal_m) {
    std::printf("GATE FAIL: engines chose different m (%d vs %d)\n", g.ref_m,
                g.modal_m);
    passed = false;
  }
  if (std::abs(g.ref_throughput - g.modal_throughput) > 1e-9) {
    std::printf("GATE FAIL: throughput diverged (%.12f vs %.12f)\n",
                g.ref_throughput, g.modal_throughput);
    passed = false;
  }
  if (g.ref_feasible != g.modal_feasible) {
    std::printf("GATE FAIL: feasibility diverged\n");
    passed = false;
  }
  if (g.boundary_agreement > 1e-10) {
    std::printf("GATE FAIL: boundary agreement %.3e > 1e-10\n",
                g.boundary_agreement);
    passed = false;
  }
  if (g.ao_speedup() < 2.0) {
    std::printf("GATE FAIL: AO plan speedup %.2fx < 2x at %zu nodes\n",
                g.ao_speedup(), g.nodes);
    passed = false;
  }
  if (!g.dispatch_identical) {
    std::printf("GATE FAIL: scalar vs best dispatch not bit-identical "
                "at %zu nodes\n",
                g.nodes);
    passed = false;
  }
  // The batched-SIMD speedup is only gated when the CPU actually has wider
  // lanes to offer; on a scalar-only host the batch path is still measured
  // (amortized memo lookups alone help) but not held to a multiplier.
  if (linalg::simd::detected_level() == linalg::simd::Level::kAvx2 &&
      g.simd_speedup() < 2.0) {
    std::printf("GATE FAIL: batched SIMD eval speedup %.2fx < 2x "
                "at %zu nodes\n",
                g.simd_speedup(), g.nodes);
    passed = false;
  }
  if (passed)
    std::printf("gate passed: m = %d on both engines, throughput agrees to "
                "%.1e, boundary to %.1e, %.1fx plan speedup, %.1fx batched "
                "SIMD eval speedup, dispatch bit-identical at %zu nodes\n",
                g.ref_m, std::abs(g.ref_throughput - g.modal_throughput),
                g.boundary_agreement, g.ao_speedup(), g.simd_speedup(),
                g.nodes);
  return passed;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "Schedule evaluation engines: modal recurrence vs reference walk",
      "DESIGN.md §11 / EXPERIMENTS.md X9 (beyond the paper)");

  double checksum = 0.0;
  std::vector<GridReport> grids;
  std::vector<GemmReport> gemms;

  // The smoke gate rides on the largest reference-capable grid (8x8, ~200
  // nodes); the full run sweeps the paper grids and the scaling extension
  // up to 16x16 (~800 nodes, modal engine only for end-to-end plans).
  const auto shapes = smoke
                          ? std::vector<std::pair<std::size_t, std::size_t>>{
                                {4, 4}, {8, 8}}
                          : std::vector<std::pair<std::size_t, std::size_t>>{
                                {1, 2}, {2, 3}, {3, 3}, {4, 4},
                                {8, 8}, {16, 16}};
  const double eval_budget_s = smoke ? 0.05 : 0.2;
  for (const auto& [rows, cols] : shapes)
    grids.push_back(bench_grid(rows, cols, eval_budget_s, &checksum));

  TextTable table({"grid", "nodes", "ref eval", "modal eval", "speedup",
                   "agree", "ref AO", "modal AO", "AO speedup", "m"});
  for (const GridReport& g : grids)
    table.add_row({std::to_string(g.rows) + "x" + std::to_string(g.cols),
                   std::to_string(g.nodes), fmt(g.ref_eval_us, 1) + " us",
                   fmt(g.modal_eval_us, 1) + " us",
                   fmt(g.eval_speedup(), 1) + "x",
                   fmt(g.boundary_agreement, 12),
                   g.ref_ao_run ? fmt(g.ref_ao_s, 3) + " s" : "-",
                   g.modal_ao_run ? fmt(g.modal_ao_s, 3) + " s" : "-",
                   g.ref_ao_run ? fmt(g.ao_speedup(), 1) + "x" : "-",
                   g.ref_ao_run ? std::to_string(g.ref_m) + "/" +
                                      std::to_string(g.modal_m)
                   : g.modal_ao_run ? "-/" + std::to_string(g.modal_m)
                                    : "-/-"});
  std::printf("%s\n", table.str().c_str());

  TextTable stage_table({"grid", "seed", "m-search", "TPT", "final peak",
                         "m cands", "TPT cands"});
  for (const GridReport& g : grids) {
    if (!g.modal_ao_run) continue;
    const core::detail::AoStages& st = g.modal_stages;
    stage_table.add_row({std::to_string(g.rows) + "x" + std::to_string(g.cols),
                         fmt(st.seed_s, 4) + " s",
                         fmt(st.m_search_s, 4) + " s",
                         fmt(st.tpt_s, 4) + " s",
                         fmt(st.final_peak_s, 4) + " s",
                         std::to_string(st.m_search_candidates),
                         std::to_string(st.tpt_candidates)});
  }
  std::printf("modal AO stages:\n%s\n", stage_table.str().c_str());

  TextTable simd_table({"grid", "pre-SIMD eval", "batched+SIMD", "speedup",
                        "dispatch bits"});
  for (const GridReport& g : grids)
    simd_table.add_row({std::to_string(g.rows) + "x" + std::to_string(g.cols),
                        fmt(g.base_eval_us, 1) + " us",
                        fmt(g.batch_eval_us, 1) + " us",
                        fmt(g.simd_speedup(), 1) + "x",
                        g.dispatch_identical ? "identical" : "DIVERGED"});
  std::printf("dispatch: detected %s, active %s\n",
              linalg::simd::level_name(linalg::simd::detected_level()),
              linalg::simd::level_name(linalg::simd::active_level()));
  std::printf("%s\n", simd_table.str().c_str());

  if (!smoke) {
    for (std::size_t n : {32u, 64u, 128u}) gemms.push_back(
        bench_gemm(n, &checksum));
    TextTable gemm_table({"n", "plain ikj", "transposed-RHS", "max diff"});
    for (const GemmReport& g : gemms)
      gemm_table.add_row({std::to_string(g.n), fmt(g.plain_ms, 3) + " ms",
                          fmt(g.transposed_ms, 3) + " ms",
                          fmt(g.max_diff, 12)});
    std::printf("%s\n", gemm_table.str().c_str());
  }

  // Gate on the largest grid where the reference engine planned end-to-end
  // (16x16 reports modal-only, so it carries no engine-agreement numbers).
  const GridReport* gate_grid = nullptr;
  for (const GridReport& g : grids)
    if (g.ref_ao_run) gate_grid = &g;
  const bool passed = gate_grid != nullptr && apply_gate(*gate_grid);
  std::printf("(checksum %.6f)\n", checksum);

  if (json_path != nullptr)
    write_json(json_path, grids, gemms, smoke, passed);
  return passed ? 0 : 1;
}
