// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload app_campaign --seed 7 --seconds 30 --trace 0
//
// --trace 0 sets the workload up several times (setup_s is their median),
// runs its fixed unit list several times untraced and prints the end-to-end
// metrics. Every unit and every set-up is followed or bracketed by runs of a
// fixed reference kernel, and each host timing is rescaled by how fast that
// kernel ran around it, so the shared host's speed swings cancel out.
// --trace 1 runs the list once untraced and once traced (spans around every
// public call), runs the isolated layer probes and prints the per-layer
// metrics. Every pass must produce identical deterministic
// records. The last stdout line is the JSON result; the line before it
// carries a digest of every deterministic output, which must repeat for one
// seed. See README.md for the metrics and the workloads.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "helpers.hpp"
#include "kpn/payload.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
/// About what reference_kernel_ms() takes on a 4-vCPU Xeon VM. Host timings
/// are rescaled to a host that runs the kernel this fast.
constexpr double kReferenceNominalMs = 0.2;
/// Reference samples on each side of a unit that set its host-speed factor.
constexpr int kReferenceWindow = 50;
/// Reference samples taken before and after each set-up.
constexpr int kSetupReferences = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool parse_uint(std::string_view text, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string_view flag = argv[i], value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_uint(value, number)) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_uint(value, number) && number >= 1 && number <= 600) {
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
      have_trace = true;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         std::find(workload_names().begin(), workload_names().end(), args.workload) !=
             workload_names().end();
}

/// One pass over the whole unit list.
struct Pass {
  std::vector<UnitRecord> records;
  std::vector<double> unit_ms;
  std::vector<double> reference_ms;  ///< reference kernel run right after each unit
  std::vector<SpanLog> spans;        ///< one log per unit, traced passes only
  double wall_s = 0;
  std::uint64_t payload_admits = 0;
  std::uint64_t payload_buffers_created = 0;
};

Pass timed_pass(Workload& workload, bool traced) {
  const int n = workload.units();
  Pass loop;
  loop.records.resize(static_cast<std::size_t>(n));
  loop.unit_ms.resize(static_cast<std::size_t>(n));
  loop.reference_ms.resize(static_cast<std::size_t>(n));
  if (traced) loop.spans.resize(static_cast<std::size_t>(n));
  const sccft::kpn::PayloadPool& pool = sccft::kpn::PayloadPool::instance();
  const std::uint64_t created0 = pool.buffers_created();
  const std::uint64_t admits0 = created0 + pool.buffers_recycled();
  const std::int64_t start = now_ns();
  for (int i = 0; i < n; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    SpanLog* log = traced ? &loop.spans[slot] : nullptr;
    const std::int64_t unit_start = now_ns();
    {
      const ScopedSpan unit(log, kUnit);
      loop.records[slot] = workload.run_unit(i, log);
    }
    loop.unit_ms[slot] = static_cast<double>(now_ns() - unit_start) / 1e6;
    loop.reference_ms[slot] = reference_kernel_ms();
  }
  loop.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  loop.payload_buffers_created = pool.buffers_created() - created0;
  loop.payload_admits = pool.buffers_created() + pool.buffers_recycled() - admits0;
  return loop;
}

std::uint64_t count(const Pass& loop, Count which) {
  std::uint64_t total = 0;
  for (const UnitRecord& r : loop.records) total += r.counts[static_cast<std::size_t>(which)];
  return total;
}

/// Host-speed factor of every unit of a pass (see kReferenceNominalMs).
std::vector<double> speed_factors(const Pass& loop) {
  return host_speed_factors(loop.reference_ms, kReferenceWindow, kReferenceNominalMs);
}

/// Sum of a pass's unit times, each rescaled by its host-speed factor.
double rescaled_ms(const Pass& loop) {
  const std::vector<double> factors = speed_factors(loop);
  double total = 0;
  for (std::size_t i = 0; i < loop.unit_ms.size(); ++i) total += loop.unit_ms[i] * factors[i];
  return total;
}

std::uint64_t failures(const Pass& loop) {
  return static_cast<std::uint64_t>(
      std::count_if(loop.records.begin(), loop.records.end(),
                    [](const UnitRecord& r) { return !r.ok; }));
}

/// FNV-1a over every deterministic output of the loop, in unit order.
std::uint64_t digest(const Pass& loop) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const UnitRecord& r : loop.records) {
    mix(r.ok ? 1 : 0);
    for (const std::uint64_t c : r.counts) mix(c);
    mix(r.detect_latency_ns.size());
    for (const std::int64_t ns : r.detect_latency_ns) mix(static_cast<std::uint64_t>(ns));
  }
  return h;
}

/// A tail percentile the run must be able to report; throws otherwise.
double required_percentile(const std::vector<double>& samples, double q, const char* what) {
  const auto value = tail_percentile(samples, q);
  if (!value) {
    throw std::runtime_error(std::string("too few samples for ") + what + ": " +
                             std::to_string(samples.size()));
  }
  return *value;
}

std::vector<double> detect_latency_ms(const Pass& loop) {
  std::vector<double> ms;
  for (const UnitRecord& r : loop.records) {
    for (const std::int64_t ns : r.detect_latency_ns) ms.push_back(static_cast<double>(ns) / 1e6);
  }
  return ms;
}

int run(const Args& args) {
  // The untraced run makes shape.passes passes in about --seconds.
  const RunShape shape = run_shape(args.workload, args.seconds);
  const int units = shape.units;
  const WorkloadConfig config{args.seed, units};

  // Set-up, repeated: setup_s is the median, and in the traced run each
  // setup-time span reports its median per-setup total.
  std::vector<double> setup_s;
  std::map<int, std::vector<double>> setup_span_ms;
  std::unique_ptr<Workload> workload;
  std::vector<double> reference_ms;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    SpanLog log;
    reference_ms.clear();
    for (int r = 0; r < kSetupReferences; ++r) reference_ms.push_back(reference_kernel_ms());
    const std::int64_t start = now_ns();
    workload = make_workload(args.workload, config, args.trace ? &log : nullptr);
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    for (int r = 0; r < kSetupReferences; ++r) reference_ms.push_back(reference_kernel_ms());
    setup_s.push_back(seconds * kReferenceNominalMs / median(reference_ms));
    std::map<int, double> totals;
    const std::vector<std::int64_t> self = self_times(log.spans());
    for (std::size_t s = 0; s < self.size(); ++s) {
      totals[log.spans()[s].name] += static_cast<double>(self[s]) / 1e6;
    }
    for (const auto& [name, ms] : totals) setup_span_ms[name].push_back(ms);
  }

  // The untraced passes. Each repeats the same units, so every pass must
  // produce the same records.
  std::vector<Pass> passes;
  for (int p = 0; p < (args.trace ? 1 : shape.passes); ++p) {
    passes.push_back(timed_pass(*workload, false));
  }
  const Pass& plain = passes.front();
  const std::uint64_t plain_digest = digest(plain);
  bool deterministic = true;
  for (const Pass& pass : passes) deterministic = deterministic && pass.records == plain.records;
  // Every checked unit counts: the last set-up's warm-up slice and the passes.
  std::uint64_t attempted = static_cast<std::uint64_t>(workload->warmup_units());
  std::uint64_t failed = static_cast<std::uint64_t>(workload->warmup_failed());
  for (const Pass& pass : passes) {
    attempted += pass.records.size();
    failed += failures(pass);
  }
  std::vector<Metric> metrics;

  if (!args.trace) {
    // A shared host's speed swings by up to a quarter, both ways, for
    // seconds to minutes. Every host timing of the loop is therefore built
    // from each unit's median over the passes, which are spread across the
    // run, of its time rescaled by the host-speed factor of the reference
    // kernel runs around it. The rates divide one pass's work by the sum of
    // those unit times.
    std::vector<std::vector<double>> factors;
    for (const Pass& pass : passes) factors.push_back(speed_factors(pass));
    std::vector<double> unit_ms(plain.unit_ms.size());
    std::vector<double> samples(passes.size());
    for (std::size_t i = 0; i < unit_ms.size(); ++i) {
      for (std::size_t p = 0; p < passes.size(); ++p) {
        samples[p] = passes[p].unit_ms[i] * factors[p][i];
      }
      unit_ms[i] = median(samples);
    }
    double loop_s = 0;
    for (const double ms : unit_ms) loop_s += ms / 1e3;
    std::vector<double> all_reference_ms;
    for (const Pass& pass : passes) {
      all_reference_ms.insert(all_reference_ms.end(), pass.reference_ms.begin(),
                              pass.reference_ms.end());
    }
    std::cerr << "perfbench: reference kernel median " << median(all_reference_ms)
              << " ms (nominal " << kReferenceNominalMs << "), fastest pass "
              << static_cast<double>(plain.records.size()) /
                     std::min_element(passes.begin(), passes.end(),
                                      [](const Pass& a, const Pass& b) {
                                        return a.wall_s < b.wall_s;
                                      })->wall_s
              << " units/s of wall time\n";
    const std::vector<double> latency = detect_latency_ms(plain);
    const auto rss = peak_rss_mb();
    if (!rss) throw std::runtime_error("cannot read VmHWM from /proc/self/status");
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"units_per_s", static_cast<double>(unit_ms.size()) / loop_s, "1/s"},
        {"unit_ms_p50", required_percentile(unit_ms, 0.50, "unit_ms_p50"), "ms"},
        {"unit_ms_p99", required_percentile(unit_ms, 0.99, "unit_ms_p99"), "ms"},
        {"sim_events_per_s", static_cast<double>(count(plain, kEvents)) / loop_s, "1/s"},
        {"peak_rss_mb", *rss, "MB"},
        {"detect_latency_p50_sim_ms", required_percentile(latency, 0.50, "detection p50"), "ms"},
        {"detect_latency_p99_sim_ms", required_percentile(latency, 0.99, "detection p99"), "ms"},
        {"pass_ratio", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    const Pass traced = timed_pass(*workload, true);
    attempted += traced.records.size();
    failed += failures(traced);
    // Tracing must not change what the program computes.
    deterministic = deterministic && traced.records == plain.records;

    double unit_total_ms = 0, unit_self_ms = 0, simulating_ms = 0;
    for (const SpanLog& log : traced.spans) {
      const std::vector<std::int64_t> self = self_times(log.spans());
      for (std::size_t s = 0; s < self.size(); ++s) {
        const Span& span = log.spans()[s];
        const double ms = static_cast<double>(self[s]) / 1e6;
        if (span.name == kUnit) {
          unit_total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
          unit_self_ms += ms;
        }
        if (span.name == kRun) simulating_ms += ms;
      }
    }
    const auto per_setup = [&](int span) {
      const auto it = setup_span_ms.find(span);
      if (it == setup_span_ms.end()) throw std::runtime_error("a set-up span was never recorded");
      return median(it->second);
    };
    const double events = static_cast<double>(count(traced, kEvents));

    const ProbeResult pipe0 = pipe_probe(0, 200'000, args.seed);
    const ProbeResult pipe3k = pipe_probe(3 * 1024, 50'000, args.seed);
    const ProbeResult pipe77k = pipe_probe(76'800, 4'000, args.seed);
    const ProbeResult online = online_probe(400'000, args.seed);
    const bool probes_ok = pipe0.ok && pipe3k.ok && pipe77k.ok && online.ok;
    if (!probes_ok) std::cerr << "perfbench: a layer probe failed its checks\n";
    attempted += 4;
    failed += static_cast<std::uint64_t>(!pipe0.ok) + !pipe3k.ok + !pipe77k.ok + !online.ok;

    const auto c = [&](Count which) { return static_cast<double>(count(traced, which)); };
    metrics = {
        {"sim.events", events, "count"},
        {"sim.host_ns_per_event", events > 0 ? simulating_ms * 1e6 / events : 0.0, "ns"},
        {"sim.pipe0_ns_per_token", pipe0.ns_per_item, "ns"},
        {"kpn.pipe3k_ns_per_token", pipe3k.ns_per_item, "ns"},
        {"kpn.pipe77k_ns_per_token", pipe77k.ns_per_item, "ns"},
        {"kpn.payload_admits", static_cast<double>(traced.payload_admits), "count"},
        {"kpn.payload_buffers_created", static_cast<double>(traced.payload_buffers_created), "count"},
        {"kpn.tokens_delivered", c(kTokensDelivered), "count"},
        {"ft.detections", c(kDetections), "count"},
        {"ft.restarts", c(kRestarts), "count"},
        {"ft.false_convictions", c(kFalseConvictions), "count"},
        {"ft.bound_misses", c(kBoundMisses), "count"},
        {"scc.noc_contention_stalls", c(kNocStalls), "count"},
        {"rtc.sizing_ms", per_setup(kRtcSizing), "ms"},
        {"rtc.online_events", c(kOnlineEvents), "count"},
        {"rtc.online_violations", c(kOnlineViolations), "count"},
        {"rtc.online_ns_per_event", online.ns_per_item, "ns"},
        {"setup.prepare_ms", per_setup(kPrepare), "ms"},
        {"bench.trace_overhead", rescaled_ms(traced) / rescaled_ms(plain) - 1.0, "ratio"},
        {"bench.span_coverage", unit_total_ms > 0 ? 1.0 - unit_self_ms / unit_total_ms : 0.0,
         "ratio"},
    };
  }

  if (!deterministic) std::cerr << "perfbench: a pass produced different records\n";
  const bool correct = failed == 0 && deterministic;
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed << ", " << units
            << " units, " << plain.wall_s << " s timed, " << failed << "/" << attempted
            << " failed\n";
  std::printf("perfbench digest %016llx units %d events %llu\n",
              static_cast<unsigned long long>(plain_digest), units,
              static_cast<unsigned long long>(count(plain, kEvents)));
  std::printf("%s\n", render_result(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <app_campaign|fleet_mesh> --seed <n> "
                 "--seconds <1..600> --trace <0|1>\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
