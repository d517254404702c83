// Small, dependency-free helpers of the performance benchmark: tail-safe
// percentiles, span self-time accounting, peak-RSS parsing, metric-name
// validation and the one-line JSON result. Kept apart from the workloads so
// perfbench_helpers_test can pin them without running a simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, reported only when
/// at least `min_beyond` samples lie strictly beyond its rank: a tail
/// percentile resting on fewer samples is noise, not a measurement. The
/// input need not be sorted.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> samples,
                                                    double q, int min_beyond = 10);

/// Median (mean of the two middle values for an even count). Requires a
/// non-empty input.
[[nodiscard]] double median(std::vector<double> samples);

/// One timed region. `parent` indexes the enclosing span in the same log
/// (-1 for a root). Times are steady-clock nanoseconds.
struct Span {
  int name = 0;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it covered by its
/// direct children. Children must nest inside their parent.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Records nested spans around calls into the program. Single-threaded.
class SpanLog {
 public:
  /// Opens a span nested in the innermost open one; returns its index.
  int open(int name);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction. A null log
/// records nothing, so the untraced run pays one branch per call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int name) : log_(log), index_(log ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Steady-clock nanoseconds since an arbitrary epoch.
[[nodiscard]] std::int64_t now_ns();

/// Host milliseconds of one fixed reference workload: a binary heap of 4,000
/// pseudo-random keys with a pop after every third push, on a buffer reserved
/// once. It calls nothing in the program and allocates nothing, so a program
/// change cannot move it; only the host's speed at that moment does.
[[nodiscard]] double reference_kernel_ms();

/// Host-speed factor of every sample of a series of reference-kernel times:
/// `nominal_ms` divided by the median of the samples within `window` places
/// of it (fewer at the ends). Multiplying a time measured next to sample i
/// by factor i rescales it to a host that runs the kernel in `nominal_ms`.
/// Requires a non-empty series, window >= 0 and positive times.
[[nodiscard]] std::vector<double> host_speed_factors(const std::vector<double>& reference_ms,
                                                     int window, double nominal_ms);

/// Parses the "VmHWM:" line of a /proc/<pid>/status text into MiB.
[[nodiscard]] std::optional<double> parse_vmhwm_mb(std::string_view status);

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] std::optional<double> peak_rss_mb();

/// True iff `name` is a valid metric or workload name: 1 to 64 characters
/// from [A-Za-z0-9_.-], starting with a letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Renders the result line: {"correct", "attempted", "failed", "metrics"}.
/// Throws std::invalid_argument on an invalid metric name, a duplicate name
/// or a non-finite value.
[[nodiscard]] std::string render_result(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed,
                                        const std::vector<Metric>& metrics);

}  // namespace perfbench
