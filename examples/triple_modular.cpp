// Example: the paper's n-fault generalization in action — three replicas
// tolerating TWO sequential permanent timing faults.
//
// Builds a 3-replica pipeline with 3-wide replicator/selector channels sized
// by the N-replica analysis (ft/nreplica.hpp),
// kills replica 0 at t = 400 ms and replica 1 at t = 900 ms, and shows the
// consumer's stream surviving both failovers without a gap.
#include <iostream>
#include <vector>

#include "ft/framework.hpp"
#include "ft/nreplica.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"

using namespace sccft;

int main() {
  sim::Simulator simulator;
  kpn::Network net(simulator);

  const auto producer_model = rtc::PJD::from_ms(10, 1, 10);
  const auto consumer_model = rtc::PJD::from_ms(10, 1, 10);
  const std::vector<rtc::PJD> replica_models{rtc::PJD::from_ms(10, 2, 10),
                                             rtc::PJD::from_ms(10, 5, 10),
                                             rtc::PJD::from_ms(10, 10, 10)};

  // Design-time analysis for N = 3.
  ft::NReplicaTimingModel model;
  model.producer_upper = rtc::make_curve<rtc::PJDUpperCurve>(producer_model);
  model.producer_lower = rtc::make_curve<rtc::PJDLowerCurve>(producer_model);
  model.consumer_upper = rtc::make_curve<rtc::PJDUpperCurve>(consumer_model);
  model.consumer_lower = rtc::make_curve<rtc::PJDLowerCurve>(consumer_model);
  for (const auto& pjd : replica_models) {
    model.in_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(pjd));
    model.in_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(pjd));
    model.out_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(pjd));
    model.out_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(pjd));
  }
  const auto sizing = ft::analyze_n_replica_network(model, rtc::from_sec(3.0));
  std::cout << "3-replica sizing: |R| = {";
  for (auto c : sizing.replicator_capacity) std::cout << " " << c;
  std::cout << " }, |S| = {";
  for (auto c : sizing.selector_capacity) std::cout << " " << c;
  std::cout << " }, D = " << sizing.divergence_threshold << "\n";

  auto& replicator = net.adopt_channel(std::make_unique<ft::ReplicatorChannel>(
      simulator, "tmr.replicator",
      ft::ReplicatorChannel::Config{.capacities = sizing.replicator_capacity}));
  auto& selector = net.adopt_channel(std::make_unique<ft::SelectorChannel>(
      simulator, "tmr.selector",
      ft::SelectorChannel::Config{.capacities = sizing.selector_capacity,
                                  .initials = sizing.selector_initial,
                                  .divergence_threshold = sizing.divergence_threshold,
                                  .verify_checksums = false}));
  const ft::DetectionRecorder recorder(
      simulator.trace(), {replicator.trace_subject(), selector.trace_subject()});
  const std::vector<ft::DetectionRecord>& detections = recorder.log().records;

  net.add_process("producer", scc::CoreId{0}, 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(producer_model, 0, ctx.rng());
                    for (std::uint64_t k = 0;; ++k) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      std::vector<std::uint8_t> payload(16, static_cast<std::uint8_t>(k));
                      co_await kpn::write(replicator,
                                          kpn::Token(std::move(payload), k, ctx.now()));
                      shaper.commit(ctx.now());
                    }
                  });

  std::vector<kpn::Process*> replicas;
  for (int r = 0; r < 3; ++r) {
    replicas.push_back(&net.add_process(
        "replica" + std::to_string(r), scc::CoreId{2 * (r + 1)},
        10 + static_cast<std::uint64_t>(r),
        [&, r, pjd = replica_models[static_cast<std::size_t>(r)]](
            kpn::ProcessContext& ctx) -> sim::Task {
          kpn::TimingShaper emit(pjd, 0, ctx.rng());
          while (true) {
            SCCFT_FAULT_GATE(ctx);
            kpn::Token token = co_await kpn::read(replicator.read_interface(ft::ReplicaIndex{r}));
            SCCFT_FAULT_GATE(ctx);
            co_await ctx.compute(rtc::from_us(300));
            const rtc::TimeNs t = emit.next_emission(ctx.now());
            if (t > ctx.now()) co_await ctx.compute(t - ctx.now());
            SCCFT_FAULT_GATE(ctx);
            co_await kpn::write(selector.write_interface(ft::ReplicaIndex{r}),
                                token.restamped(token.seq(), ctx.now()));
            emit.commit(ctx.now());
          }
        }));
  }

  std::uint64_t received = 0;
  std::uint64_t next_expected = 0;
  bool gap = false;
  net.add_process("consumer", scc::CoreId{8}, 99,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(consumer_model, 0, ctx.rng());
                    while (true) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      kpn::Token token = co_await kpn::read(selector);
                      shaper.commit(ctx.now());
                      if (token.seq() != next_expected) gap = true;
                      next_expected = token.seq() + 1;
                      ++received;
                    }
                  });

  // Kill replica 0 at 400 ms, replica 1 at 900 ms.
  auto kill = [&](int r, rtc::TimeNs at) {
    simulator.schedule_at(at, [&, r] {
      replicas[static_cast<std::size_t>(r)]->context().fault().silenced = true;
      replicator.freeze_reader(ft::ReplicaIndex{r});
      selector.freeze_writer(ft::ReplicaIndex{r});
    });
  };
  kill(0, rtc::from_ms(400.0));
  kill(1, rtc::from_ms(900.0));

  net.run_until(rtc::from_sec(2.0));

  std::cout << "Faults injected at 400 ms (replica 0) and 900 ms (replica 1).\n";
  for (const auto& d : detections) {
    std::cout << "Detected replica " << ft::index_of(d.replica) << " via " << to_string(d.rule)
              << " at " << rtc::to_ms(d.detected_at) << " ms\n";
  }
  std::cout << "Consumer received " << received << " tokens, in order, "
            << (gap ? "WITH GAPS" : "no gaps") << "; surviving replicas: "
            << selector.healthy_count() << "\n";

  const bool ok = !gap && received > 180 && selector.healthy_count() == 1 &&
                  detections.size() >= 2;
  std::cout << (ok ? "SUCCESS" : "FAILURE")
            << ": two sequential timing faults tolerated with three replicas.\n";
  return ok ? 0 : 1;
}
