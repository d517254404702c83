#include "probes.hpp"

#include <vector>

#include "helpers.hpp"
#include "kpn/channel.hpp"
#include "kpn/network.hpp"
#include "kpn/token.hpp"
#include "rtc/online/conformance.hpp"
#include "rtc/online/estimator.hpp"
#include "rtc/pjd.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sccft;

namespace {

constexpr int kProbeReps = 3;

/// One pipe run; returns host nanoseconds, or -1 when a check failed.
std::int64_t pipe_once(std::size_t payload_bytes, std::uint64_t tokens, std::uint64_t seed) {
  constexpr rtc::TimeNs kPeriod = 1'000;
  sim::Simulator sim;
  kpn::Network net(sim);
  auto& fifo = net.add_fifo("pipe", 8);
  // Payload-less tokens share one admitted 0-byte buffer: no admission and
  // no CRC per token, only a reference-count increment.
  const kpn::PayloadRef empty = kpn::PayloadRef::adopt({});
  net.add_process("producer", scc::CoreId{0}, seed,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    for (std::uint64_t k = 0; k < tokens; ++k) {
                      kpn::Token token =
                          payload_bytes == 0
                              ? kpn::Token(empty, k, ctx.now())
                              : kpn::Token(std::vector<std::uint8_t>(
                                               payload_bytes,
                                               static_cast<std::uint8_t>(mix_seed(seed, k))),
                                           k, ctx.now());
                      co_await kpn::write(fifo, std::move(token));
                      co_await ctx.delay(kPeriod);
                    }
                  });
  std::uint64_t consumed = 0;
  bool ok = true;
  net.add_process("consumer", scc::CoreId{1}, seed + 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    while (true) {
                      const kpn::Token token = co_await kpn::read(fifo);
                      ok = ok && token.seq() == consumed && token.size_bytes() == payload_bytes &&
                           token.verify_checksum();
                      ++consumed;
                      co_await ctx.delay(kPeriod - 200);
                    }
                  });
  const std::int64_t start = now_ns();
  net.run_until(static_cast<rtc::TimeNs>(tokens + 16) * kPeriod);
  const std::int64_t elapsed = now_ns() - start;
  return ok && consumed == tokens ? elapsed : -1;
}

std::int64_t online_once(std::uint64_t events, std::uint64_t seed) {
  const rtc::PJD model{.period = 1'000'000, .jitter = 200'000, .delay = 0};
  rtc::online::CurveEstimator estimator({.base_delta = model.period, .levels = 8});
  rtc::online::ConformanceChecker checker(estimator, rtc::PJDLowerCurve(model),
                                          rtc::PJDUpperCurve(model));
  // Emission k lands in [k P, k P + J): inside the <P, J> envelope, and
  // nondecreasing because J < P.
  util::Xoshiro256 rng(seed);
  std::vector<rtc::TimeNs> times(events);
  for (std::uint64_t k = 0; k < events; ++k) {
    times[k] = static_cast<rtc::TimeNs>(k) * model.period +
               static_cast<rtc::TimeNs>(rng.next() % static_cast<std::uint64_t>(model.jitter));
  }
  const std::int64_t start = now_ns();
  for (const rtc::TimeNs t : times) (void)checker.add_and_check(estimator, t);
  const std::int64_t elapsed = now_ns() - start;
  const bool ok = estimator.events() == events && checker.upper_violations() == 0 &&
                  checker.lower_violations() == 0;
  return ok ? elapsed : -1;
}

template <typename Once>
ProbeResult repeat(std::uint64_t items, Once&& once) {
  std::vector<double> per_item;
  ProbeResult result{0, true};
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const std::int64_t ns = once();
    if (ns < 0) result.ok = false;
    per_item.push_back(static_cast<double>(ns) / static_cast<double>(items));
  }
  result.ns_per_item = median(per_item);
  return result;
}

}  // namespace

ProbeResult pipe_probe(std::size_t payload_bytes, std::uint64_t tokens, std::uint64_t seed) {
  return repeat(tokens, [&] { return pipe_once(payload_bytes, tokens, seed); });
}

ProbeResult online_probe(std::uint64_t events, std::uint64_t seed) {
  return repeat(events, [&] { return online_once(events, seed); });
}

}  // namespace perfbench
