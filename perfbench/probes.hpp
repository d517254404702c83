// Isolated layer probes of the traced run. Each drives one layer through its
// public API alone, so a change to that layer shows here before it shows end
// to end, and checks what the layer returned.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct ProbeResult {
  double ns_per_item = 0;  ///< median host nanoseconds per token or event
  bool ok = false;         ///< every output check passed
};

/// Producer -> FIFO -> consumer on one Simulator, `tokens` tokens of
/// `payload_bytes` each (0 = payload-less tokens: the kernel and the channel
/// alone; otherwise every token admits a fresh buffer into the payload pool).
/// The consumer checks order, size and CRC of every token.
[[nodiscard]] ProbeResult pipe_probe(std::size_t payload_bytes, std::uint64_t tokens,
                                     std::uint64_t seed);

/// rtc/online estimator + Eq. (2) checker fed with a seeded stream that
/// conforms to its PJD design curves; a single breach fails the probe.
[[nodiscard]] ProbeResult online_probe(std::uint64_t events, std::uint64_t seed);

}  // namespace perfbench
