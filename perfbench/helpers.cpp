#include "helpers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::optional<double> tail_percentile(std::vector<double> samples, double q,
                                      int min_beyond) {
  if (samples.empty() || !(q > 0.0 && q < 1.0) || min_beyond < 0) return std::nullopt;
  const auto n = samples.size();
  // Nearest rank: the smallest value with at least q * n samples at or below.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < static_cast<std::size_t>(min_beyond)) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

double reference_kernel_ms() {
  constexpr int kPushes = 4000;
  static thread_local std::vector<std::uint64_t> heap(kPushes);
  static volatile std::uint64_t sink = 0;
  const std::int64_t start = now_ns();
  std::size_t size = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, popped = 0;
  for (int i = 0; i < kPushes; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap[size++] = x;
    std::push_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(size),
                   std::greater<>());
    if (i % 3 == 2) {
      std::pop_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(size),
                    std::greater<>());
      popped += heap[--size];
    }
  }
  sink = sink + popped;
  return static_cast<double>(now_ns() - start) / 1e6;
}

std::vector<double> host_speed_factors(const std::vector<double>& reference_ms, int window,
                                       double nominal_ms) {
  if (reference_ms.empty() || window < 0 || !(nominal_ms > 0)) {
    throw std::invalid_argument("host_speed_factors: empty series or bad window/nominal");
  }
  const auto n = static_cast<std::ptrdiff_t>(reference_ms.size());
  std::vector<double> factors(reference_ms.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const auto first = reference_ms.begin() + std::max<std::ptrdiff_t>(0, i - window);
    const auto last = reference_ms.begin() + std::min<std::ptrdiff_t>(n, i + window + 1);
    const double local = median(std::vector<double>(first, last));
    if (!(local > 0)) throw std::invalid_argument("host_speed_factors: non-positive time");
    factors[static_cast<std::size_t>(i)] = nominal_ms / local;
  }
  return factors;
}

int SpanLog::open(int name) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), now_ns(), 0});
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::optional<double> parse_vmhwm_mb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t end = status.find('\n', pos);
    if (end == std::string_view::npos) end = status.size();
    const std::string_view line = status.substr(pos, end - pos);
    if (line.substr(0, kKey.size()) == kKey) {
      std::istringstream in{std::string(line.substr(kKey.size()))};
      double kib = 0;
      std::string unit;
      if (!(in >> kib >> unit) || unit != "kB" || kib < 0) return std::nullopt;
      return kib / 1024.0;
    }
    pos = end + 1;
  }
  return std::nullopt;
}

std::optional<double> peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_vmhwm_mb(text.str());
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

std::string render_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                          const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name)) throw std::invalid_argument("bad metric name: " + m.name);
    if (!seen.insert(m.name).second) throw std::invalid_argument("duplicate metric: " + m.name);
    if (!std::isfinite(m.value)) throw std::invalid_argument("non-finite metric: " + m.name);
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
