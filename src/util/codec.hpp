// Compact binary serialization for simulated wire messages.
//
// Every payload that crosses the simulated network is encoded with Writer
// and decoded with Reader.  The format is little-endian, length-prefixed,
// with varint-free fixed-width integers — simplicity and debuggability over
// byte count, since "bandwidth" in the simulator is an accounting number.
//
// Reader reports malformed input via a sticky error flag, not exceptions.
//
// Writer builds directly into the pooled block that will become the
// payload Buf: take_buf() hands the finished bytes to the network layer
// with zero copies, and the legacy take() keeps returning a std::string
// for call sites that still want one.
//
// A message format is declared once, as a struct listing its fields in
// wire order (COOP_FIELDS); encode() and decode() both derive from it.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/buf.hpp"
#include "util/pool.hpp"

/// Declares a struct's wire fields, in wire order.
#define COOP_FIELDS(...)                                          \
  auto fields() noexcept { return std::tie(__VA_ARGS__); }       \
  auto fields() const noexcept { return std::tie(__VA_ARGS__); }

namespace coop::util {

/// What std::string_view is to std::string, this is to std::vector<T> of
/// fixed-width values: decoding one only bounds-checks and records the
/// bytes, so a receiver that does not need the array never copies it.
template <typename T>
class ArrayView {
  static_assert(std::is_arithmetic_v<T>);

 public:
  using value_type = T;

  ArrayView() = default;
  /// Views @p v's elements; valid as long as @p v is unchanged.
  ArrayView(const std::vector<T>& v)  // NOLINT: implicit by design
      : bytes_(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T)) {}
  /// Views @p bytes (a whole number of elements) as the array.
  explicit ArrayView(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return bytes_.size() / sizeof(T);
  }
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> v(size());
    if (!bytes_.empty()) std::memcpy(v.data(), bytes_.data(), bytes_.size());
    return v;
  }
  [[nodiscard]] std::string_view bytes() const noexcept { return bytes_; }

 private:
  std::string_view bytes_;
};

namespace wire {

/// True if T is an instance of the class template Of.
template <typename T, template <typename...> class Of>
inline constexpr bool kIs = false;
template <template <typename...> class Of, typename... As>
inline constexpr bool kIs<Of<As...>, Of> = true;

/// The fewest bytes a T can occupy on the wire.
template <typename T>
constexpr std::size_t min_size() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (requires(const T& t) { t.fields(); }) {
    using Fields = decltype(std::declval<const T&>().fields());
    return []<typename... Fs>(std::tuple<Fs...>*) {
      static_assert(sizeof...(Fs) > 0, "a wire struct needs a field");
      return (min_size<std::remove_cvref_t<Fs>>() + ...);
    }(static_cast<Fields*>(nullptr));
  } else {
    return sizeof(std::uint32_t);  // a count or length prefix
  }
}

}  // namespace wire

/// Serializes values into a byte buffer.
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
    if (put_count(s.size())) append(s.data(), s.size());
    return *this;
  }

  /// Appends a wire value: a fixed-width value, a string, an ArrayView, a
  /// std::vector or std::map of wire values, or a COOP_FIELDS struct.
  template <typename T>
  Writer& write(const T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      put(v);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      put_string(v);
    } else if constexpr (wire::kIs<T, ArrayView>) {
      if (put_count(v.size())) append(v.bytes().data(), v.bytes().size());
    } else if constexpr (wire::kIs<T, std::vector>) {
      if (put_count(v.size()))
        for (const auto& e : v) write(e);
    } else if constexpr (wire::kIs<T, std::map>) {
      if (put_count(v.size()))
        for (const auto& [key, value] : v) write(key).write(value);
    } else {
      std::apply([this](const auto&... f) { (write(f), ...); }, v.fields());
    }
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
  /// Writes a u32 count or length prefix, validated *before* any bytes
  /// are touched; false (and nothing written) if it cannot be.
  bool put_count(std::size_t n) {
    assert(!taken_ && "Writer reused after take()");
    assert(n <= kMaxLength &&
           "Writer: length-prefixed value exceeds the 32-bit wire cap");
    if (n > kMaxLength) failed_ = true;
    if (failed_) return false;
    put(static_cast<std::uint32_t>(n));
    return true;
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
    if constexpr (std::is_same_v<T, bool>) {
      // Any byte but 0 and 1 fails: loading it into a bool is undefined.
      const auto b = get<std::uint8_t>();
      if (b > 1) failed_ = true;
      return b == 1;
    }
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
  /// as long as that input is.
  std::string_view get_string_view() {
    const std::uint32_t len = get_count(1);
    const std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

  /// Reads a wire value Writer::write wrote.  std::string_view and ArrayView
  /// fields view the Reader's input.  On failure @p v is partial.
  template <typename T>
  void read(T& v) {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      v = get<T>();
    } else if constexpr (std::is_same_v<T, std::string_view>) {
      v = get_string_view();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v.assign(get_string_view());
    } else if constexpr (wire::kIs<T, ArrayView>) {
      const std::size_t n = get_count(sizeof(typename T::value_type)) *
                            sizeof(typename T::value_type);
      v = T(data_.substr(pos_, n));
      pos_ += n;
    } else if constexpr (wire::kIs<T, std::vector>) {
      using E = typename T::value_type;
      const std::uint32_t n = get_count(wire::min_size<E>());
      v.clear();
      v.reserve(n);
      for (std::uint32_t i = 0; i < n && !failed_; ++i) read(v.emplace_back());
    } else if constexpr (wire::kIs<T, std::map>) {
      typename T::key_type key{};
      typename T::mapped_type value{};
      const std::uint32_t n = get_count(wire::min_size<decltype(key)>() +
                                        wire::min_size<decltype(value)>());
      v.clear();
      for (std::uint32_t i = 0; i < n && !failed_; ++i) {
        read(key);
        read(value);
        v.emplace(std::move(key), std::move(value));
      }
    } else {
      std::apply([this](auto&... f) { (read(f), ...); }, v.fields());
    }
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
  /// Reads a u32 count of elements of at least @p min_size wire bytes each.
  /// The bounds policy of every count and length: no more than the bytes
  /// left divided by @p min_size (division, since a product can wrap), so a
  /// hostile count fails before anything is reserved.  0 on failure.
  std::uint32_t get_count(std::size_t min_size) {
    const auto n = get<std::uint32_t>();
    if (failed_ || n > (data_.size() - pos_) / min_size) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Encodes @p msg (any value Writer::write accepts) as a payload.
template <typename T>
[[nodiscard]] Buf encode(const T& msg) {
  Writer w;
  w.write(msg);
  return w.take_buf();
}

/// Decodes @p msg from the front of @p bytes; false, and @p msg unusable,
/// if any field fails.  View fields of @p msg point into @p bytes.
template <typename T>
[[nodiscard]] bool decode(std::string_view bytes, T& msg) {
  Reader r(bytes);
  r.read(msg);
  return !r.failed();
}
template <typename T>
bool decode(std::string&&, T&) = delete;  // view fields would dangle

}  // namespace coop::util
