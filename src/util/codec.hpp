// Compact binary serialization for simulated wire messages.
//
// Every payload that crosses the simulated network is encoded with Writer
// and decoded with Reader.  The format is little-endian, length-prefixed,
// with varint-free fixed-width integers — simplicity and debuggability over
// byte count, since "bandwidth" in the simulator is an accounting number.
//
// Reader reports malformed input via a sticky error flag rather than
// exceptions, so protocol code can bail out with a single check after
// decoding a struct (the common pattern in the rpc/groups modules).
//
// Writer builds directly into the pooled block that will become the
// payload Buf: take_buf() hands the finished bytes to the network layer
// with zero copies, and the legacy take() keeps returning a std::string
// for call sites that still want one.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/buf.hpp"
#include "util/pool.hpp"

namespace coop::util {

/// Serializes primitive values into a byte buffer.
class Writer {
 public:
  Writer() = default;
  ~Writer() { discard(); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Length prefixes are 32-bit on the wire; a longer string or blob
  /// cannot be represented.  Exceeding it asserts in debug builds and
  /// sets the sticky failed() flag in release (the value is not written
  /// and the eventual take()/take_buf() yields an empty wire).
  static constexpr std::size_t kMaxLength =
      std::numeric_limits<std::uint32_t>::max();

  /// Appends a fixed-width integral or floating value.
  template <typename T>
    requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
  Writer& put(T value) {
    assert(!taken_ && "Writer reused after take()");
    if (failed_) return *this;
    ensure(sizeof(T));
    std::memcpy(Buf::bytes(ctrl_) + size_, &value, sizeof(T));
    size_ += sizeof(T);
    return *this;
  }

  /// Appends a length-prefixed string.
  Writer& put_string(std::string_view s) {
    assert(!taken_ && "Writer reused after take()");
    if (!check_length(s.size())) return *this;
    put(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
    return *this;
  }

  /// Appends a length-prefixed blob.
  Writer& put_bytes(const std::vector<std::uint8_t>& b) {
    assert(!taken_ && "Writer reused after take()");
    if (!check_length(b.size())) return *this;
    put(static_cast<std::uint32_t>(b.size()));
    append(b.data(), b.size());
    return *this;
  }

  /// Appends each element of a vector of arithmetic values.
  template <typename T>
    requires(std::is_arithmetic_v<T>)
  Writer& put_vector(const std::vector<T>& v) {
    if (!check_length(v.size())) return *this;
    put(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) put(x);
    return *this;
  }

  /// Finishes encoding and empties the buffer; the Writer may not be
  /// reused afterwards.  Moving the storage out (rather than copying)
  /// means a stale Writer cannot silently re-serialize its old bytes —
  /// a second take() returns an empty string, and debug builds assert.
  /// A failed() Writer yields an empty wire.
  [[nodiscard]] std::string take() {
    assert(!taken_ && "Writer::take() called twice");
    taken_ = true;
    if (failed_ || ctrl_ == nullptr) {
      discard();
      return {};
    }
    std::string out(Buf::bytes(ctrl_), size_);
    discard();
    return out;
  }

  /// Finishes encoding and hands the bytes over as a shared Buf without
  /// copying: the block the Writer filled *is* the payload storage.
  [[nodiscard]] Buf take_buf() {
    assert(!taken_ && "Writer::take() called twice");
    taken_ = true;
    if (failed_ || ctrl_ == nullptr || size_ == 0) {
      discard();
      return {};
    }
    ctrl_->size = static_cast<std::uint32_t>(size_);
    Buf out(ctrl_);
    ctrl_ = nullptr;
    size_ = 0;
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True if a length-prefixed value exceeded kMaxLength; once set,
  /// stays set and further writes are dropped.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  /// Validates a length prefix *before* any bytes are touched.
  bool check_length(std::size_t n) {
    assert(n <= kMaxLength &&
           "Writer: length-prefixed value exceeds the 32-bit wire cap");
    if (n > kMaxLength) failed_ = true;
    return !failed_;
  }

  void append(const void* data, std::size_t n) {
    if (failed_ || n == 0) return;
    ensure(n);
    std::memcpy(Buf::bytes(ctrl_) + size_, data, n);
    size_ += n;
  }

  void ensure(std::size_t need) {
    if (ctrl_ != nullptr && size_ + need <= ctrl_->cap) return;
    // Capacities stay at "pool class minus header" so every growth step
    // lands on a recyclable block size.
    std::size_t cap =
        ctrl_ != nullptr ? static_cast<std::size_t>(ctrl_->cap) * 2
                         : BlockPool::kMinBlock * 2 - sizeof(Buf::Ctrl);
    while (cap < size_ + need) cap *= 2;
    Buf::Ctrl* grown = Buf::make(cap);
    if (ctrl_ != nullptr) {
      std::memcpy(Buf::bytes(grown), Buf::bytes(ctrl_), size_);
      BlockPool::free(ctrl_, sizeof(Buf::Ctrl) + ctrl_->cap);
    }
    ctrl_ = grown;
  }

  void discard() noexcept {
    if (ctrl_ != nullptr) {
      BlockPool::free(ctrl_, sizeof(Buf::Ctrl) + ctrl_->cap);
      ctrl_ = nullptr;
    }
    size_ = 0;
  }

  Buf::Ctrl* ctrl_ = nullptr;
  std::size_t size_ = 0;
  bool taken_ = false;
  bool failed_ = false;
};

/// Deserializes values written by Writer, in the same order.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  /// A Reader only views its input; constructing one from a temporary
  /// string would dangle immediately, so that overload is forbidden.
  explicit Reader(std::string&&) = delete;

  /// Reads a fixed-width value; on underrun sets the error flag and
  /// returns a zero value.  Once failed, every further read yields zero.
  template <typename T>
    requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
  T get() {
    T value{};
    if (failed_ || pos_ + sizeof(T) > data_.size()) {
      failed_ = true;
      return value;
    }
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Reads a length-prefixed string.
  std::string get_string() { return std::string(get_string_view()); }

  /// get_string() without the copy: a view into the Reader's input, valid
  /// as long as that input is.  The bound is checked as `len > remaining`
  /// (never `pos_ + len`, which can wrap size_t).
  std::string_view get_string_view() {
    const auto len = get<std::uint32_t>();
    if (failed_ || len > data_.size() - pos_) {
      failed_ = true;
      return {};
    }
    const std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  /// Reads a length-prefixed blob.
  std::vector<std::uint8_t> get_bytes() {
    const auto len = get<std::uint32_t>();
    if (failed_ || len > data_.size() - pos_) {
      failed_ = true;
      return {};
    }
    std::vector<std::uint8_t> b(data_.begin() + static_cast<long>(pos_),
                                data_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
    return b;
  }

  /// Reads a vector of arithmetic values written by put_vector.  The
  /// element count is validated against the remaining bytes by division
  /// — `len * sizeof(T)` can wrap a 32-bit size_t and sail past an
  /// additive check, which would then reserve() an attacker-chosen
  /// length from a malformed frame.
  template <typename T>
    requires(std::is_arithmetic_v<T>)
  std::vector<T> get_vector() {
    const auto len = get<std::uint32_t>();
    std::vector<T> v;
    if (failed_ || len > (data_.size() - pos_) / sizeof(T)) {
      failed_ = true;
      return v;
    }
    v.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) v.push_back(get<T>());
    return v;
  }

  /// Steps over a vector written by put_vector, with get_vector's bounds
  /// check (so a malformed length fails the Reader the same way).
  template <typename T>
    requires(std::is_arithmetic_v<T>)
  void skip_vector() {
    const auto len = get<std::uint32_t>();
    if (failed_ || len > (data_.size() - pos_) / sizeof(T)) {
      failed_ = true;
      return;
    }
    pos_ += len * sizeof(T);
  }

  /// True if any read overran the buffer; once set, stays set.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// True if the whole buffer was consumed without error.
  [[nodiscard]] bool exhausted() const noexcept {
    return !failed_ && pos_ == data_.size();
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return failed_ ? 0 : data_.size() - pos_;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace coop::util
