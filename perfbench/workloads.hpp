// The benchmark's workloads. Each is a fixed list of units generated
// from the seed; a unit is one call sequence into the program's public API
// plus the correctness checks on what it returned. Constructing a workload
// is its set-up (unit list, design-time sizing and placement, cache warming,
// warm-up slice); run_unit() is what the timed loop repeats.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

/// Spans recorded in the traced run around the public calls the benchmark
/// makes. kUnit is the benchmark's own root span around a whole unit.
enum SpanName : int {
  kUnit,
  kRun,         ///< the unit's simulating call: ExperimentRunner::run, ft::run_fleet
  kRtcSizing,   ///< set-up: Eq. (3)-(8) design-time sizing
  kPrepare,     ///< set-up: codec cache warm, FleetSpec::materialize, scc::place_fleet
  kSpanCount,
};

/// Deterministic work counts of one unit.
enum Count : int {
  kEvents,           ///< simulator events dispatched
  kTokensDelivered,  ///< tokens reaching the consumers
  kDetections,
  kRestarts,
  kFalseConvictions,
  kBoundMisses,      ///< detections later than their Eq. (6)-(8) bound
  kNocStalls,
  kOnlineEvents,
  kOnlineViolations,
  kCountKinds,
};

/// Everything deterministic one unit produced. Two runs of one seed, traced
/// or not, must produce equal records.
struct UnitRecord {
  bool ok = false;
  std::array<std::uint64_t, kCountKinds> counts{};
  /// Fault-to-first-detection latencies, simulated nanoseconds.
  std::vector<std::int64_t> detect_latency_ns;

  friend bool operator==(const UnitRecord&, const UnitRecord&) = default;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual int units() const = 0;
  /// Runs timed unit `index`; records spans into `spans` when non-null.
  [[nodiscard]] virtual UnitRecord run_unit(int index, SpanLog* spans) = 0;

  /// Units the set-up's warm-up slice ran, and how many failed their checks.
  [[nodiscard]] int warmup_units() const { return warmup_units_; }
  [[nodiscard]] int warmup_failed() const { return warmup_failed_; }

 protected:
  void count_warmup(const UnitRecord& record) {
    ++warmup_units_;
    if (!record.ok) ++warmup_failed_;
  }

 private:
  int warmup_units_ = 0;
  int warmup_failed_ = 0;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  int units = 1;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// How much work an untraced run of `seconds` does: `passes` passes over a
/// list of `units` units. The shape depends only on the arguments, never on
/// how fast the host is.
struct RunShape {
  int units = 0;
  int passes = 0;
};
[[nodiscard]] RunShape run_shape(const std::string& workload, double seconds);

/// Builds workload `name` — the whole set-up. Setup-time spans go to
/// `setup_spans` when non-null. Throws std::invalid_argument on an unknown
/// name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const WorkloadConfig& config,
                                                      SpanLog* setup_spans);

/// SplitMix64 step: derives independent unit seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
