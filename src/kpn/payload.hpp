// Pooled, reference-counted token payload buffers.
//
// The seed kernel stored every payload as a `shared_ptr<const vector>` and
// recomputed its CRC-32 on each Token construction. Under a 20-run campaign
// that is one heap allocation (control block + vector) and one full-payload
// CRC per *emission*, even though the payload caches mean only ~input_cycle
// distinct byte strings ever exist. This module replaces the shared_ptr with
// a pool-recycled buffer whose CRC is computed lazily, at most once, by the
// first reader that asks for it:
//
//  - PayloadBuffer: immutable byte string + its memoized CRC-32, intrusively
//    refcounted, linked into the pool's free list when the count hits zero
//    so steady-state token traffic never allocates buffer nodes.
//  - PayloadRef: the shared-ownership handle (the `SharedBytes` of the apps
//    layer). Copying is one relaxed increment; no control block.
//  - PayloadPool: process-wide free list. Reference counts are atomic and the
//    free list is mutex-guarded because parallel campaign workers share
//    payloads through the transform caches — a buffer admitted by one worker
//    thread may take its last release on another.
//
// Most buffers are never hashed: rule (c) reads a CRC only for a payload a
// fault swapped (Token::corrupted), and on fault-free traffic only payload
// votes and fingerprints read one. bytes_checksummed() counts what is hashed.
// None of this changes simulated behaviour: buffers are immutable after
// admission and crc() always equals util::crc32(view()), so every checksum
// the experiments record keeps its exact seed value.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace sccft::kpn {

class PayloadPool;
class PayloadRef;

/// One immutable payload: bytes + memoized CRC-32, refcounted, pool-recycled.
class PayloadBuffer final {
 public:
  PayloadBuffer() = default;
  PayloadBuffer(const PayloadBuffer&) = delete;
  PayloadBuffer& operator=(const PayloadBuffer&) = delete;

  [[nodiscard]] std::span<const std::uint8_t> view() const { return bytes_; }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  /// util::crc32(view()), computed on the first call and memoized. Threads
  /// racing on the first call each hash the same immutable bytes and store
  /// the same word, so no lock is needed. Relaxed order suffices: the word
  /// carries the whole value, and the bytes were published with the ref.
  [[nodiscard]] std::uint32_t crc() const {
    const std::uint64_t word = crc_word_.load(std::memory_order_relaxed);
    return (word & kCrcKnown) != 0 ? static_cast<std::uint32_t>(word) : compute_crc();
  }

 private:
  friend class PayloadPool;
  friend class PayloadRef;

  static constexpr std::uint64_t kCrcKnown = std::uint64_t{1} << 32;

  std::uint32_t compute_crc() const;

  std::vector<std::uint8_t> bytes_;
  /// kCrcKnown | crc once computed, 0 before.
  mutable std::atomic<std::uint64_t> crc_word_{0};
  std::atomic<std::uint32_t> refs_{0};
  PayloadBuffer* next_free_ = nullptr;
};

/// Shared-ownership handle to a PayloadBuffer. Default-constructed refs are
/// empty (tokens without a payload). The last ref returns the buffer to the
/// pool instead of freeing it.
class PayloadRef final {
 public:
  PayloadRef() = default;
  PayloadRef(const PayloadRef& other) noexcept : buf_(other.buf_) { retain(); }
  PayloadRef(PayloadRef&& other) noexcept : buf_(std::exchange(other.buf_, nullptr)) {}
  PayloadRef& operator=(const PayloadRef& other) noexcept {
    if (this != &other) {
      release();
      buf_ = other.buf_;
      retain();
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    if (this != &other) {
      release();
      buf_ = std::exchange(other.buf_, nullptr);
    }
    return *this;
  }
  ~PayloadRef() { release(); }

  [[nodiscard]] explicit operator bool() const { return buf_ != nullptr; }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return buf_->view(); }
  [[nodiscard]] std::size_t size() const { return buf_ != nullptr ? buf_->size() : 0; }
  /// CRC-32 of the bytes (== util::crc32(view())), computed on first use.
  [[nodiscard]] std::uint32_t crc() const { return buf_ != nullptr ? buf_->crc() : 0; }
  /// Pointer identity of the underlying bytes (tests assert sharing).
  [[nodiscard]] const std::uint8_t* data() const {
    return buf_ != nullptr ? buf_->view().data() : nullptr;
  }

  /// Admits `bytes` into the process-wide pool and returns the owning ref.
  [[nodiscard]] static PayloadRef adopt(std::vector<std::uint8_t> bytes);

 private:
  friend class PayloadPool;
  explicit PayloadRef(PayloadBuffer* buf) noexcept : buf_(buf) {}  // takes the ref

  void retain() noexcept {
    if (buf_ != nullptr) buf_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept;

  PayloadBuffer* buf_ = nullptr;
};

/// Process-wide buffer pool. Buffers are owned by `storage_` for their whole
/// lifetime; the free list only lends them out, so teardown is a plain vector
/// destruction regardless of refcount races long past.
class PayloadPool final {
 public:
  static PayloadPool& instance();

  /// Moves `bytes` into a (recycled or fresh) buffer and returns a ref holding
  /// the initial reference. The bytes are not hashed here.
  [[nodiscard]] PayloadRef admit(std::vector<std::uint8_t> bytes);

  [[nodiscard]] std::uint64_t buffers_created() const {
    return buffers_created_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t buffers_recycled() const {
    return buffers_recycled_.load(std::memory_order_relaxed);
  }
  /// Payload bytes hashed by PayloadBuffer::crc() so far (each buffer at most
  /// once, unless threads race on its first call).
  [[nodiscard]] std::uint64_t bytes_checksummed() const {
    return bytes_checksummed_.load(std::memory_order_relaxed);
  }

 private:
  friend class PayloadRef;
  friend class PayloadBuffer;

  void recycle(PayloadBuffer* buf) noexcept;

  std::mutex mutex_;
  PayloadBuffer* free_ = nullptr;
  std::vector<std::unique_ptr<PayloadBuffer>> storage_;
  std::atomic<std::uint64_t> buffers_created_{0};
  std::atomic<std::uint64_t> buffers_recycled_{0};
  std::atomic<std::uint64_t> bytes_checksummed_{0};
};

inline void PayloadRef::release() noexcept {
  if (buf_ == nullptr) return;
  if (buf_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    PayloadPool::instance().recycle(buf_);
  }
  buf_ = nullptr;
}

}  // namespace sccft::kpn
