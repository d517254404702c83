// Replica identifiers and fault-detection records shared by the replicator
// and selector channels.
#pragma once

#include <optional>
#include <string>

#include "rtc/time.hpp"

namespace sccft::ft {

/// 0-based replica index. The two named values cover the paper's duplicated
/// setup; N-replica channels use ReplicaIndex{i} for i in [0, N).
enum class ReplicaIndex : int { kReplica1 = 0, kReplica2 = 1 };

/// The peer of a replica in a 2-replica setup.
[[nodiscard]] constexpr ReplicaIndex other(ReplicaIndex r) {
  return r == ReplicaIndex::kReplica1 ? ReplicaIndex::kReplica2
                                      : ReplicaIndex::kReplica1;
}

[[nodiscard]] constexpr int index_of(ReplicaIndex r) { return static_cast<int>(r); }

/// "R<i+1>": R1, R2, R3, ...
[[nodiscard]] inline std::string to_string(ReplicaIndex r) {
  return "R" + std::to_string(index_of(r) + 1);
}

/// Which detection rule fired.
enum class DetectionRule {
  kReplicatorOverflow,   ///< producer write attempt found space_i == 0
  kSelectorStall,        ///< space_i exceeded |S_i| on a consumer read
  kSelectorDivergence,   ///< |received_1 - received_2| reached D
  kSelectorCorruption,   ///< repeated CRC-32 mismatches on arriving tokens
  kCurveConformance,     ///< empirical arrival curve left the design envelope
                         ///< (online RTC monitor, Eq. 2 breach)
  kWatchdogTimeout,      ///< per-tile hardware watchdog expired (scc/watchdog)
  kSelectorVote,         ///< out-voted by a strict majority of replicas whose
                         ///< duplicate-group payloads agree (payload-vote
                         ///< selectors only)
};

[[nodiscard]] inline std::string to_string(DetectionRule rule) {
  switch (rule) {
    case DetectionRule::kReplicatorOverflow: return "replicator-overflow";
    case DetectionRule::kSelectorStall: return "selector-stall";
    case DetectionRule::kSelectorDivergence: return "selector-divergence";
    case DetectionRule::kSelectorCorruption: return "selector-corruption";
    case DetectionRule::kCurveConformance: return "curve-conformance";
    case DetectionRule::kWatchdogTimeout: return "watchdog-timeout";
    case DetectionRule::kSelectorVote: return "selector-vote";
  }
  return "?";
}

/// A fault-detection event: which replica, by which rule, when.
struct DetectionRecord {
  ReplicaIndex replica = ReplicaIndex::kReplica1;
  DetectionRule rule = DetectionRule::kReplicatorOverflow;
  rtc::TimeNs detected_at = 0;
};

}  // namespace sccft::ft
