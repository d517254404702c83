// Ablation A: divergence-threshold sweep (DESIGN.md Section 5, item 1).
//
// Eq. (5)'s D is the smallest threshold with zero false positives. This
// bench sweeps D around the analyzed value and reports, per D over 20 runs:
// detection latency at the selector (faults get caught faster with smaller
// D) and the false-positive count on fault-free runs (non-zero once D drops
// below the Eq. (5) value).
#include <iostream>

#include "apps/adpcm/app.hpp"
#include "bench/campaign.hpp"

int main() {
  using namespace sccft;
  apps::ExperimentRunner runner(apps::adpcm::make_application());

  apps::ExperimentOptions base;
  base.run_periods = 240;
  base.fault_after_periods = 150;
  base.enable_selector_stall_rule = false;  // isolate the divergence rule

  const rtc::SizingReport& analyzed = runner.sizing();
  std::cout << "Analyzed Eq. (5) threshold: D = " << analyzed.selector_threshold
            << "\n\n";

  util::Table table("Ablation A: selector divergence threshold D (ADPCM, 20+20 runs)");
  table.set_header({"D", "Detection latency (fault runs)", "Detections", "False positives (fault-free runs)"});

  for (rtc::Tokens d = 2; d <= analyzed.selector_threshold + 3; ++d) {
    auto options = base;
    options.divergence_override = d;

    const auto faults =
        bench::run_fault_campaign(runner, options, ft::ReplicaIndex::kReplica1);
    const auto clean = bench::run_fault_free_campaign(runner, options);

    table.add_row({std::to_string(d) + (d == analyzed.selector_threshold ? " *" : ""),
                   bench::stat_row(faults.selector_latency_ms),
                   std::to_string(faults.detected) + "/" + std::to_string(bench::kRuns),
                   std::to_string(clean.false_positives + faults.false_positives)});
  }
  std::cout << table << "\n";
  std::cout
      << "* = the Eq. (5) value: the smallest D with a *guaranteed* zero\n"
         "false-positive rate over all conforming streams. Smaller D values may\n"
         "survive a finite campaign (the worst-case jitter alignment is rare)\n"
         "until they don't — D=2 misflags legal jitter in every run here. Above\n"
         "D*, detection latency grows ~linearly with D (Eq. 6: 2D-1 tokens).\n";
  return 0;
}
