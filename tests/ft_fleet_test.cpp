// Fleet simulation tests (ft/fleet.hpp): deterministic materialization, the
// placement request shape, end-to-end run invariants, and the shared
// restart-budget pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "ft/fleet.hpp"
#include "kpn/payload.hpp"
#include "scc/placement.hpp"
#include "scc/topology.hpp"

namespace sccft::ft {
namespace {

FleetRunOptions quick_options() {
  FleetRunOptions options;
  options.run_length = 300'000'000;  // 300 ms keeps the test fast
  options.fault_at = 80'000'000;
  options.fault_duration = 40'000'000;
  return options;
}

TEST(FleetSpec, MaterializeIsDeterministic) {
  FleetSpec spec;
  spec.streams = 8;
  spec.seed = 42;
  const auto a = spec.materialize();
  const auto b = spec.materialize();
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].producer, b[i].producer);
    EXPECT_EQ(a[i].stage, b[i].stage);
    EXPECT_EQ(a[i].consumer, b[i].consumer);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].critical, b[i].critical);
  }
}

TEST(FleetSpec, MaterializeIsPrefixStable) {
  // Growing the fleet must not perturb the streams already in it — the
  // saturation sweep compares stream counts, so stream i must mean the same
  // workload at every count.
  FleetSpec small, large;
  small.streams = 4;
  large.streams = 12;
  const auto a = small.materialize();
  const auto b = large.materialize();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].producer, b[i].producer) << "stream " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "stream " << i;
  }
}

TEST(FleetSpec, CriticalEveryControlsDuplication) {
  FleetSpec spec;
  spec.streams = 6;
  spec.critical_every = 2;
  const auto streams = spec.materialize();
  for (const auto& s : streams) {
    EXPECT_EQ(s.critical, s.index % 2 == 0) << "stream " << s.index;
  }
  spec.critical_every = 0;
  for (const auto& s : spec.materialize()) EXPECT_FALSE(s.critical);
  spec.critical_every = 1;
  for (const auto& s : spec.materialize()) EXPECT_TRUE(s.critical);
}

TEST(FleetSpec, PlacementRequestShape) {
  FleetSpec spec;
  spec.streams = 4;
  const auto streams = spec.materialize();
  const auto request = build_placement_request(spec, streams);
  // Streams 0 and 2 critical (4 processes), 1 and 3 plain pipelines (3).
  ASSERT_EQ(request.processes.size(), 4u + 3u + 4u + 3u);
  // Each critical stream contributes exactly one anti-affine replica pair.
  std::set<int> groups;
  int group_members = 0;
  for (const auto& process : request.processes) {
    if (process.anti_affinity_group >= 0) {
      groups.insert(process.anti_affinity_group);
      ++group_members;
    }
  }
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(group_members, 4);
  // Every FIFO demand is accounted in MPB bytes somewhere.
  std::size_t total_mpb = 0;
  for (const auto& process : request.processes) total_mpb += process.mpb_bytes;
  EXPECT_GT(total_mpb, 0u);
  // And the request must actually place.
  const auto placement = scc::place_fleet(request);
  EXPECT_EQ(placement.process_to_core.size(), request.processes.size());
}

TEST(Fleet, SmallRunMeetsPaperGuarantees) {
  FleetSpec spec;
  spec.streams = 4;
  const auto result = run_fleet(spec, quick_options());
  ASSERT_EQ(result.streams.size(), 4u);
  EXPECT_GT(result.events_processed, 0u);
  EXPECT_EQ(result.simulated_ns, quick_options().run_length);
  EXPECT_GE(result.tiles_used, 1);
  EXPECT_LE(result.max_tile_mpb_used,
            static_cast<std::size_t>(scc::kMpbBytesPerTile));
  for (const auto& stream : result.streams) {
    EXPECT_GT(stream.tokens_consumed, 0u) << "stream " << stream.index;
    EXPECT_GT(stream.achieved_rate_hz, 0.0) << "stream " << stream.index;
    EXPECT_FALSE(stream.sequence_gap) << "stream " << stream.index;
    EXPECT_FALSE(stream.false_conviction) << "stream " << stream.index;
    if (stream.critical) {
      // The injected silence must be caught within the Eq. (6)-(8) bound.
      EXPECT_TRUE(stream.detected) << "stream " << stream.index;
      ASSERT_TRUE(stream.detection_latency.has_value())
          << "stream " << stream.index;
      EXPECT_GT(stream.detection_bound, 0);
      EXPECT_LE(*stream.detection_latency, stream.detection_bound)
          << "stream " << stream.index;
      // Designed Eq. (3)/(5) capacities were published.
      EXPECT_GT(stream.replicator_capacity, 0u);
      EXPECT_GT(stream.selector_capacity, 0u);
    }
  }
}

TEST(Fleet, RunIsDeterministic) {
  FleetSpec spec;
  spec.streams = 4;
  spec.seed = 9;
  const auto a = run_fleet(spec, quick_options());
  const auto b = run_fleet(spec, quick_options());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.placement_cost, b.placement_cost);
  EXPECT_EQ(a.noc_contention_stalls, b.noc_contention_stalls);
  EXPECT_EQ(a.max_link_busy_ns, b.max_link_busy_ns);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].tokens_consumed, b.streams[i].tokens_consumed);
    EXPECT_EQ(a.streams[i].detection_latency, b.streams[i].detection_latency);
    EXPECT_EQ(a.streams[i].restarts, b.streams[i].restarts);
    EXPECT_EQ(a.streams[i].replicator_max_fill, b.streams[i].replicator_max_fill);
    EXPECT_EQ(a.streams[i].selector_max_fill, b.streams[i].selector_max_fill);
    EXPECT_EQ(a.streams[i].upper_violations, b.streams[i].upper_violations);
    EXPECT_EQ(a.streams[i].lower_violations, b.streams[i].lower_violations);
  }
}

TEST(Fleet, SharedPoolGatesRestartsAcrossStreams) {
  // Two critical streams, one shared restart token: the first detection wins
  // the restart, the second supervisor finds the pool dry and degrades its
  // replica instead of restarting it.
  FleetSpec spec;
  spec.streams = 4;  // streams 0 and 2 critical
  spec.shared_restart_budget = 1;
  const auto result = run_fleet(spec, quick_options());
  EXPECT_EQ(result.pool_capacity, 1);
  EXPECT_EQ(result.pool_used, 1);
  int restarted = 0, degraded = 0;
  for (const auto& stream : result.streams) {
    if (!stream.critical) continue;
    EXPECT_TRUE(stream.detected) << "stream " << stream.index;
    if (stream.restarts > 0) ++restarted;
    if (stream.degraded) ++degraded;
  }
  EXPECT_EQ(restarted, 1);
  EXPECT_GE(degraded, 1);

  // With an ample pool both streams restart and nothing degrades.
  spec.shared_restart_budget = 8;
  const auto rich = run_fleet(spec, quick_options());
  EXPECT_EQ(rich.pool_capacity, 8);
  for (const auto& stream : rich.streams) {
    if (stream.critical) {
      EXPECT_FALSE(stream.degraded) << stream.index;
    }
  }
}

TEST(FleetSpec, ExplicitProtectionMatchesLegacyDerivation) {
  // protection = {2,1,2,1} must be indistinguishable from the default
  // critical_every = 2 mapping: same envelopes, same criticality, same
  // placement request.
  FleetSpec legacy;
  legacy.streams = 4;
  FleetSpec explicit_spec = legacy;
  explicit_spec.protection = {2, 1, 2, 1};
  const auto a = legacy.materialize();
  const auto b = explicit_spec.materialize();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].critical, b[i].critical);
    EXPECT_EQ(a[i].protection, b[i].protection);
    EXPECT_EQ(a[i].producer, b[i].producer);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
  const auto ra = build_placement_request(legacy, a);
  const auto rb = build_placement_request(explicit_spec, b);
  ASSERT_EQ(ra.processes.size(), rb.processes.size());
  for (std::size_t i = 0; i < ra.processes.size(); ++i) {
    EXPECT_EQ(ra.processes[i].name, rb.processes[i].name);
    EXPECT_EQ(ra.processes[i].mpb_bytes, rb.processes[i].mpb_bytes);
  }
}

TEST(FleetSpec, MixedProtectionPlacementShape) {
  FleetSpec spec;
  spec.streams = 4;
  spec.protection = {3, 1, 2, 1};
  const auto streams = spec.materialize();
  EXPECT_EQ(streams[0].protection, 3);
  EXPECT_TRUE(streams[0].critical);
  EXPECT_EQ(streams[1].protection, 1);
  EXPECT_FALSE(streams[1].critical);
  const auto request = build_placement_request(spec, streams);
  // Stream 0: producer + 3 replicas + consumer; 1 and 3 plain (3 each);
  // 2 duplicated (4).
  ASSERT_EQ(request.processes.size(), 5u + 3u + 4u + 3u);
  int group_members = 0;
  std::set<int> groups;
  for (const auto& process : request.processes) {
    if (process.anti_affinity_group >= 0) {
      groups.insert(process.anti_affinity_group);
      ++group_members;
    }
  }
  EXPECT_EQ(groups.size(), 2u);  // stream 0's triple + stream 2's pair
  EXPECT_EQ(group_members, 5);
  const auto placement = scc::place_fleet(request);
  EXPECT_EQ(placement.process_to_core.size(), request.processes.size());
}

TEST(Fleet, MixedProtectionRunSurvivesInjectedSilence) {
  FleetSpec spec;
  spec.streams = 4;
  spec.protection = {3, 1, 2, 1};
  const auto result = run_fleet(spec, quick_options());
  ASSERT_EQ(result.streams.size(), 4u);
  for (const auto& stream : result.streams) {
    EXPECT_GT(stream.tokens_consumed, 0u) << "stream " << stream.index;
    EXPECT_FALSE(stream.sequence_gap) << "stream " << stream.index;
    EXPECT_FALSE(stream.false_conviction) << "stream " << stream.index;
  }
  const auto& vote = result.streams[0];
  EXPECT_EQ(vote.protection, 3);
  // The N = 3 rig catches the injected silence without any supervisor,
  // within its Eq. (6)-(8) bound, and keeps the stream whole on the
  // surviving majority.
  EXPECT_TRUE(vote.detected);
  ASSERT_TRUE(vote.detection_latency.has_value());
  EXPECT_GT(vote.detection_bound, 0);
  EXPECT_LE(*vote.detection_latency, vote.detection_bound);
  EXPECT_EQ(vote.restarts, 0);
  EXPECT_TRUE(vote.degraded);
  const auto& pair = result.streams[2];
  EXPECT_EQ(pair.protection, 2);
  EXPECT_TRUE(pair.detected);
}

TEST(Fleet, OversubscribedFleetThrowsPlacementError) {
  FleetSpec spec;
  spec.streams = 96;
  EXPECT_THROW((void)run_fleet(spec, quick_options()), scc::PlacementError);
}

// --- size-once pins ----------------------------------------------------------
// Every FleetStreamOutcome field of one default and one mixed N in {1,2,3}
// 32-stream fleet, captured before run_fleet stopped re-sizing each stream in
// its harness constructor. Sizing once must change nothing: capacities,
// detection bounds, fills, latencies and rates all stay bit-identical.

struct PinnedOutcome {
  int index;
  bool critical;
  int protection;
  std::uint64_t tokens_consumed;
  double nominal_rate_hz;
  double achieved_rate_hz;
  rtc::TimeNs detection_latency;  // -1 = none
  rtc::TimeNs detection_bound;
  bool detected;
  bool false_conviction;
  int restarts;
  bool degraded;
  rtc::Tokens replicator_max_fill;
  rtc::Tokens replicator_capacity;
  rtc::Tokens selector_max_fill;
  rtc::Tokens selector_capacity;
  std::uint64_t writer_blocks;
  bool sequence_gap;
  std::uint64_t upper_violations;
  std::uint64_t lower_violations;
};

// clang-format off
const PinnedOutcome kDefaultFleet32[] = {
    {0, 1, 2, 50, 169.39270344317774, 166.66666666666669, 14879225, 18448256, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {1, 0, 1, 54, 181.77207780935564, 180, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {2, 1, 2, 60, 202.56508162866376, 200, 14216357, 15427140, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {3, 0, 1, 73, 246.35857391890468, 243.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {4, 1, 2, 82, 276.30591153734673, 273.33333333333337, 7061491, 11309928, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {5, 0, 1, 72, 241.52086655754755, 240, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {6, 1, 2, 84, 283.60097229757343, 280, 8419803, 11019003, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {7, 0, 1, 57, 190.97385014167395, 190, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {8, 1, 2, 98, 330.13858227268059, 326.66666666666669, 8085043, 9465721, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {9, 0, 1, 82, 276.80480887458361, 273.33333333333337, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {10, 1, 2, 120, 400.71166391511326, 400, 4938437, 7798625, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {11, 0, 1, 125, 419.75378082724234, 416.66666666666669, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {12, 1, 2, 102, 341.78697853133451, 340, 7830774, 9143121, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {13, 0, 1, 146, 489.17456683592104, 486.66666666666669, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {14, 1, 2, 71, 238.66866798300393, 236.66666666666669, 8052295, 13093465, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {15, 0, 1, 49, 166.90074496147514, 163.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {16, 1, 2, 110, 367.79268850202817, 366.66666666666669, 7337656, 8496634, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {17, 0, 1, 55, 185.75845642153052, 183.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {18, 1, 2, 86, 289.71474975453918, 286.66666666666669, 6597482, 10786471, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {19, 0, 1, 61, 207.13780298046441, 203.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {20, 1, 2, 55, 185.30298984521085, 183.33333333333334, 12284073, 16864271, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {21, 0, 1, 52, 175.86375483185665, 173.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {22, 1, 2, 110, 368.11003839755813, 366.66666666666669, 7054200, 8489309, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {23, 0, 1, 60, 203.115012453997, 200, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {24, 1, 2, 55, 183.99118461436277, 183.33333333333334, 12468882, 16984509, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {25, 0, 1, 81, 270.83338411459283, 270, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {26, 1, 2, 51, 173.37714226964204, 170, 12684251, 18024290, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {27, 0, 1, 62, 208.66811524072267, 206.66666666666669, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {28, 1, 2, 56, 189.44531926082982, 186.66666666666669, 15648223, 16495525, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {29, 0, 1, 66, 221.54650538081074, 220, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {30, 1, 2, 52, 173.90100650424546, 173.33333333333334, 12643527, 17969993, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {31, 0, 1, 51, 172.91991179701139, 170, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
};

const PinnedOutcome kMixedFleet32[] = {
    {0, 1, 3, 50, 169.39270344317774, 166.66666666666669, 14879225, 18448256, 1, 0, 0, 1, 2, 2, 1, 18, 0, 0, 0, 0},
    {1, 0, 1, 54, 181.77207780935564, 180, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {2, 1, 2, 60, 202.56508162866376, 200, 14216357, 15427140, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {3, 0, 1, 73, 246.35857391890468, 243.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {4, 1, 2, 82, 276.30591153734673, 273.33333333333337, 7061491, 11309928, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {5, 0, 1, 72, 241.52086655754755, 240, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {6, 1, 2, 84, 283.60097229757343, 280, 8419803, 11019003, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {7, 0, 1, 57, 190.97385014167395, 190, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {8, 1, 3, 98, 330.13858227268059, 326.66666666666669, 8085043, 9465721, 1, 0, 0, 1, 2, 2, 1, 18, 0, 0, 0, 0},
    {9, 0, 1, 82, 276.80480887458361, 273.33333333333337, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {10, 1, 2, 120, 400.71166391511326, 400, 4938437, 7798625, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {11, 0, 1, 125, 419.75378082724234, 416.66666666666669, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {12, 1, 2, 102, 341.78697853133451, 340, 7830774, 9143121, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {13, 0, 1, 146, 489.17456683592104, 486.66666666666669, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {14, 1, 2, 71, 238.66866798300393, 236.66666666666669, 8052295, 13093465, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {15, 0, 1, 49, 166.90074496147514, 163.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {16, 1, 3, 110, 367.79268850202817, 366.66666666666669, 7337656, 8496634, 1, 0, 0, 1, 2, 2, 1, 18, 0, 0, 0, 0},
    {17, 0, 1, 55, 185.75845642153052, 183.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {18, 1, 2, 86, 289.71474975453918, 286.66666666666669, 6597482, 10786471, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {19, 0, 1, 61, 207.13780298046441, 203.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {20, 1, 2, 55, 185.30298984521085, 183.33333333333334, 12284073, 16864271, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {21, 0, 1, 52, 175.86375483185665, 173.33333333333334, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {22, 1, 2, 110, 368.11003839755813, 366.66666666666669, 7054200, 8489309, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {23, 0, 1, 60, 203.115012453997, 200, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {24, 1, 3, 55, 183.99118461436277, 183.33333333333334, 12468882, 16984509, 1, 0, 0, 1, 2, 2, 1, 18, 0, 0, 0, 0},
    {25, 0, 1, 81, 270.83338411459283, 270, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {26, 1, 2, 51, 173.37714226964204, 170, 12684251, 18024290, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {27, 0, 1, 62, 208.66811524072267, 206.66666666666669, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {28, 1, 2, 56, 189.44531926082982, 186.66666666666669, 15648223, 16495525, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {29, 0, 1, 66, 221.54650538081074, 220, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
    {30, 1, 2, 52, 173.90100650424546, 173.33333333333334, 12643527, 17969993, 1, 0, 1, 0, 2, 2, 1, 8, 0, 0, 0, 0},
    {31, 0, 1, 51, 172.91991179701139, 170, -1, 0, 0, 0, 0, 0, 1, 2, 1, 2, 0, 0, 0, 0},
};
// clang-format on

void expect_pinned(const FleetRunResult& result, const PinnedOutcome* pins,
                   std::size_t count) {
  ASSERT_EQ(result.streams.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const FleetStreamOutcome& got = result.streams[i];
    const PinnedOutcome& want = pins[i];
    SCOPED_TRACE("stream " + std::to_string(i));
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.critical, want.critical);
    EXPECT_EQ(got.protection, want.protection);
    EXPECT_EQ(got.tokens_consumed, want.tokens_consumed);
    EXPECT_EQ(got.nominal_rate_hz, want.nominal_rate_hz);
    EXPECT_EQ(got.achieved_rate_hz, want.achieved_rate_hz);
    EXPECT_EQ(got.detection_latency.value_or(-1), want.detection_latency);
    EXPECT_EQ(got.detection_bound, want.detection_bound);
    EXPECT_EQ(got.detected, want.detected);
    EXPECT_EQ(got.false_conviction, want.false_conviction);
    EXPECT_EQ(got.restarts, want.restarts);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.replicator_max_fill, want.replicator_max_fill);
    EXPECT_EQ(got.replicator_capacity, want.replicator_capacity);
    EXPECT_EQ(got.selector_max_fill, want.selector_max_fill);
    EXPECT_EQ(got.selector_capacity, want.selector_capacity);
    EXPECT_EQ(got.writer_blocks, want.writer_blocks);
    EXPECT_EQ(got.sequence_gap, want.sequence_gap);
    EXPECT_EQ(got.upper_violations, want.upper_violations);
    EXPECT_EQ(got.lower_violations, want.lower_violations);
  }
}

TEST(Fleet, DefaultFleetOutcomesArePinned) {
  FleetSpec spec;
  spec.streams = 32;
  const auto result = run_fleet(spec, quick_options());
  EXPECT_EQ(result.events_processed, 13019u);
  EXPECT_EQ(result.placement_cost, 9232384u);
  EXPECT_EQ(result.max_tile_mpb_used, 16384u);
  expect_pinned(result, kDefaultFleet32, std::size(kDefaultFleet32));
}

TEST(Fleet, MixedProtectionFleetOutcomesArePinned) {
  FleetSpec spec;
  spec.streams = 32;
  for (int k = 0; k < 4; ++k) {
    spec.protection.insert(spec.protection.end(), {3, 1, 2, 1, 2, 1, 2, 1});
  }
  const auto result = run_fleet(spec, quick_options());
  EXPECT_EQ(result.events_processed, 13213u);
  EXPECT_EQ(result.placement_cost, 13730816u);
  EXPECT_EQ(result.max_tile_mpb_used, 16384u);
  expect_pinned(result, kMixedFleet32, std::size(kMixedFleet32));
}

// --- lazy CRC pins ----------------------------------------------------------
// Payload CRCs are computed only where they are read. No fault in these
// fleets swaps a payload, so rule (c) never hashes; only the N = 3 streams'
// payload votes read checksums: one shared 1 KiB buffer per token of the four
// vote streams (50 + 98 + 110 + 55 = 313 tokens consumed, see kMixedFleet32).

std::uint64_t checksummed_by_run(const FleetSpec& spec) {
  const kpn::PayloadPool& pool = kpn::PayloadPool::instance();
  const std::uint64_t before = pool.bytes_checksummed();
  (void)run_fleet(spec, quick_options());
  return pool.bytes_checksummed() - before;
}

TEST(Fleet, DefaultFleetChecksumsNoPayloadBytes) {
  FleetSpec spec;
  spec.streams = 32;
  EXPECT_EQ(checksummed_by_run(spec), 0u);
}

TEST(Fleet, MixedProtectionFleetChecksumsOnlyVoteStreams) {
  FleetSpec spec;
  spec.streams = 32;
  for (int k = 0; k < 4; ++k) {
    spec.protection.insert(spec.protection.end(), {3, 1, 2, 1, 2, 1, 2, 1});
  }
  EXPECT_EQ(checksummed_by_run(spec), 320512u);
}

}  // namespace
}  // namespace sccft::ft
