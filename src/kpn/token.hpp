// Data tokens flowing through the process network.
//
// The paper's model (Section 2): a token T_k[j] produced by replica R_k
// carries a monotonically increasing sequence number j and has a timestamp
// t(k, j). Payloads are immutable and shared (the replicator duplicates each
// token to two FIFOs without copying the bytes), and carry a CRC-32 so that
// the experiments can check *functional* equivalence (Theorem 2) in O(1)
// space per token.
//
// Payload storage is the pooled PayloadRef (see payload.hpp). A token's
// checksum *is* its buffer's memoized CRC unless a fault swapped the payload
// under it: only corrupted() gives a token its own stamp (the original
// buffer's CRC, taken at that moment). Constructing, copying and re-stamping
// a token therefore never hash, verify_checksum() on an unswapped payload is
// true without hashing (the stamp equals the buffer's CRC by construction),
// and a buffer is hashed at most once, by the first checksum() that reads it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kpn/payload.hpp"
#include "rtc/time.hpp"

namespace sccft::kpn {

using rtc::TimeNs;

class Token final {
 public:
  Token() = default;

  /// Creates a token with the given payload, sequence number and timestamp.
  Token(std::vector<std::uint8_t> payload, std::uint64_t seq, TimeNs produced_at);

  /// Creates a token sharing an existing pooled payload (no copy, no CRC;
  /// used by the payload caches on every replica emission).
  Token(PayloadRef payload, std::uint64_t seq, TimeNs produced_at);

  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] TimeNs produced_at() const { return produced_at_; }
  [[nodiscard]] std::size_t size_bytes() const { return payload_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> payload() const;
  /// The shared payload handle itself (cached CRC + bytes). Empty for
  /// payload-less marker tokens.
  [[nodiscard]] const PayloadRef& payload_ref() const { return payload_; }
  /// The stamped CRC-32: the own stamp corrupted() left, else the payload
  /// buffer's (memoized) CRC. 0 for payload-less marker tokens.
  [[nodiscard]] std::uint32_t checksum() const {
    return own_stamp_ ? checksum_ : payload_.crc();
  }
  [[nodiscard]] bool valid() const { return static_cast<bool>(payload_); }

  /// Compares the stamped checksum with the payload's true CRC-32. A token
  /// whose payload was altered *after* CRC stamping (silent data corruption
  /// in a core or in transit) fails this check; tokens without a payload, and
  /// tokens without an own stamp (whose stamp is the buffer's CRC), pass
  /// without hashing.
  [[nodiscard]] bool verify_checksum() const;

  /// Returns a copy of this token re-stamped with a new sequence number and
  /// production time (used when a channel re-emits a token downstream).
  [[nodiscard]] Token restamped(std::uint64_t seq, TimeNs produced_at) const;

  /// Fault-injection helper: returns a copy whose payload has bit
  /// `bit_index % (8 * size)` flipped while the stored checksum is kept
  /// unchanged — i.e. a token corrupted after CRC stamping, exactly what
  /// verify_checksum() is designed to convict. The original (shared) payload
  /// is not touched. The copy keeps an own stamp: the original buffer's CRC,
  /// or this token's own stamp if it has one. Requires a non-empty payload.
  [[nodiscard]] Token corrupted(std::size_t bit_index) const;

  /// Fault-injection helper for *silent* data corruption: returns a copy
  /// whose payload has bit `bit_index % (8 * size)` flipped AND whose stored
  /// checksum is re-stamped to match the flipped bytes — i.e. the corruption
  /// happened before CRC stamping (an upset in the producing core's
  /// registers), so rule (c) passes vacuously and only cross-replica
  /// comparison (a vote) can see it. The copy drops any own stamp, so its
  /// checksum is the flipped buffer's CRC. Requires a non-empty payload.
  [[nodiscard]] Token silently_corrupted(std::size_t bit_index) const;

 private:
  /// A copy whose payload is a fresh buffer with one bit flipped; every
  /// other field, the own stamp included, is copied unchanged.
  [[nodiscard]] Token flipped(std::size_t bit_index) const;

  PayloadRef payload_;
  std::uint64_t seq_ = 0;
  TimeNs produced_at_ = 0;
  std::uint32_t checksum_ = 0;  ///< meaningful only while own_stamp_
  bool own_stamp_ = false;
};

}  // namespace sccft::kpn
