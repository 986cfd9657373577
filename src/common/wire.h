// Field-level wire encoding. A message (or a struct nested in one)
// lists its fields once, in wire order, with MRP_FIELDS; wire::Codec
// turns that list into the encoder, the decoder and the encoded size,
// so the bytes net/codec.cc sends and the WireSize() the simulator
// charges cannot drift apart.
//
// Field types and their encoding (little-endian):
//   bool, std::uint8_t                  1 byte
//   std::uint32_t, int                  4 bytes
//   std::uint64_t                       8 bytes
//   Duration (also TimePoint)           8 bytes, signed nanoseconds
//   Bytes, std::string, PayloadBuf      varint length, then the bytes
//   std::vector<T>                      varint count, then the elements
//   std::optional<T>                    u8 presence flag, then T if set
//   std::pair<A, B>                     A, then B
//   a struct with MRP_FIELDS            its fields, in order
// and the field wrappers AtMost, Enum and Payload and the Pad filler
// below.
//
// Decoding never trusts a length: counts are capped (kMaxCount unless
// AtMost says otherwise), reserve() is bounded by what the remaining
// bytes could hold, enumerations are range-checked, and a payload must
// match its declared size. A reader returns false on any violation.
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"

// Declares the wire fields of the enclosing struct, in wire order. Each
// argument is a data member or a field wrapper over one (wire::AtMost,
// wire::Enum, wire::Payload).
#define MRP_FIELDS(...)                                               \
  template <class V>                                                  \
  decltype(auto) Fields(V&& visit) {                                  \
    return visit(__VA_ARGS__);                                        \
  }                                                                   \
  template <class V>                                                  \
  decltype(auto) Fields(V&& visit) const {                            \
    return visit(__VA_ARGS__);                                        \
  }

namespace mrp::wire {

// Put(ByteWriter&, const T&), Get(ByteReader&, T&), Size(const T&).
template <class T>
struct Codec;

template <class T>
void Put(ByteWriter& w, const T& v) { Codec<T>::Put(w, v); }
template <class T>
[[nodiscard]] bool Get(ByteReader& r, T& v) { return Codec<T>::Get(r, v); }
template <class T>
std::size_t Size(const T& v) { return Codec<T>::Size(v); }

constexpr std::size_t VarintSize(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// Default cap on a decoded collection's element count.
inline constexpr std::uint64_t kMaxCount = 1'000'000;

// ------------------------------------------------------------- scalars

template <class T>
  requires std::integral<T>
struct Codec<T> {
  static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
  static void Put(ByteWriter& w, T v) {
    if constexpr (sizeof(T) == 1) {
      w.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      w.u32(static_cast<std::uint32_t>(v));
    } else {
      w.u64(static_cast<std::uint64_t>(v));
    }
  }
  static bool Get(ByteReader& r, T& v) {
    std::optional<std::uint64_t> x;
    if constexpr (sizeof(T) == 1) {
      x = r.u8();
    } else if constexpr (sizeof(T) == 4) {
      x = r.u32();
    } else {
      x = r.u64();
    }
    if (!x) return false;
    v = static_cast<T>(*x);
    return true;
  }
  static constexpr std::size_t Size(T) { return sizeof(T); }
};

template <>
struct Codec<Duration> {
  static void Put(ByteWriter& w, Duration d) { w.i64(d.count()); }
  static bool Get(ByteReader& r, Duration& d) {
    auto x = r.i64();
    if (!x) return false;
    d = Duration(*x);
    return true;
  }
  static constexpr std::size_t Size(Duration) { return 8; }
};

// ------------------------------------------------------ byte sequences

template <>
struct Codec<Bytes> {
  static void Put(ByteWriter& w, const Bytes& b) { w.bytes(b); }
  static bool Get(ByteReader& r, Bytes& b) {
    auto x = r.bytes();
    if (!x) return false;
    b = std::move(*x);
    return true;
  }
  static std::size_t Size(const Bytes& b) {
    return VarintSize(b.size()) + b.size();
  }
};

template <>
struct Codec<std::string> {
  static void Put(ByteWriter& w, const std::string& s) { w.str(s); }
  static bool Get(ByteReader& r, std::string& s) {
    auto x = r.str();
    if (!x) return false;
    s = std::move(*x);
    return true;
  }
  static std::size_t Size(const std::string& s) {
    return VarintSize(s.size()) + s.size();
  }
};

// Views the receive frame under zero-copy decode (ByteReader::payload).
template <>
struct Codec<PayloadBuf> {
  static void Put(ByteWriter& w, const PayloadBuf& p) { w.bytes(p); }
  static bool Get(ByteReader& r, PayloadBuf& p) {
    auto x = r.payload();
    if (!x) return false;
    p = std::move(*x);
    return true;
  }
  static std::size_t Size(const PayloadBuf& p) {
    return VarintSize(p.size()) + p.size();
  }
};

// --------------------------------------------------------- composites

// Smallest encoding of a T: that of a default-constructed one (zero
// scalars, empty collections). Bounds reserve() against short frames.
template <class T>
std::size_t MinSize() {
  static const std::size_t n = Size(T{});
  return n;
}

template <class T>
bool GetVector(ByteReader& r, std::vector<T>& v, std::uint64_t max_count) {
  auto n = r.varint();
  if (!n || *n > max_count) return false;
  // A short hostile frame declaring a huge count must not force a large
  // allocation up front: reserve only what the remaining bytes could
  // hold. The loop still fails fast on the first truncated element.
  const std::uint64_t fits = r.remaining() / MinSize<T>() + 1;
  v.clear();
  v.reserve(static_cast<std::size_t>(*n < fits ? *n : fits));
  for (std::uint64_t i = 0; i < *n; ++i) {
    v.emplace_back();
    if (!Get(r, v.back())) return false;
  }
  return true;
}

template <class T>
struct Codec<std::vector<T>> {
  static void Put(ByteWriter& w, const std::vector<T>& v) {
    w.varint(v.size());
    for (const T& e : v) wire::Put(w, e);
  }
  static bool Get(ByteReader& r, std::vector<T>& v) {
    return GetVector(r, v, kMaxCount);
  }
  static std::size_t Size(const std::vector<T>& v) {
    std::size_t n = VarintSize(v.size());
    for (const T& e : v) n += wire::Size(e);
    return n;
  }
};

template <class T>
struct Codec<std::optional<T>> {
  static void Put(ByteWriter& w, const std::optional<T>& v) {
    w.u8(v.has_value() ? 1 : 0);
    if (v) wire::Put(w, *v);
  }
  static bool Get(ByteReader& r, std::optional<T>& v) {
    auto has = r.u8();
    if (!has) return false;
    v.reset();
    if (*has == 0) return true;
    return wire::Get(r, v.emplace());
  }
  static std::size_t Size(const std::optional<T>& v) {
    return 1 + (v ? wire::Size(*v) : 0);
  }
};

template <class A, class B>
struct Codec<std::pair<A, B>> {
  static void Put(ByteWriter& w, const std::pair<A, B>& p) {
    wire::Put(w, p.first);
    wire::Put(w, p.second);
  }
  static bool Get(ByteReader& r, std::pair<A, B>& p) {
    return wire::Get(r, p.first) && wire::Get(r, p.second);
  }
  static std::size_t Size(const std::pair<A, B>& p) {
    return wire::Size(p.first) + wire::Size(p.second);
  }
};

template <class T>
concept HasFields = requires(const T& t) { t.Fields([](const auto&...) {}); };

template <class T>
  requires HasFields<T>
struct Codec<T> {
  static void Put(ByteWriter& w, const T& t) {
    t.Fields([&w](const auto&... f) { (wire::Put(w, f), ...); });
  }
  static bool Get(ByteReader& r, T& t) {
    return t.Fields([&r](auto&&... f) { return (wire::Get(r, f) && ...); });
  }
  static std::size_t Size(const T& t) {
    return t.Fields([](const auto&... f) {
      return (std::size_t{0} + ... + wire::Size(f));
    });
  }
};

// ----------------------------------------------------- field wrappers

// A collection decoded with at most N elements instead of kMaxCount.
template <std::uint64_t N, class V>
struct AtMostField {
  V& v;
};
template <std::uint64_t N, class V>
AtMostField<N, V> AtMost(V& v) { return {v}; }

template <std::uint64_t N, class V>
struct Codec<AtMostField<N, V>> {
  using F = AtMostField<N, V>;
  static void Put(ByteWriter& w, const F& f) { wire::Put(w, f.v); }
  static bool Get(ByteReader& r, const F& f) { return GetVector(r, f.v, N); }
  static std::size_t Size(const F& f) { return wire::Size(f.v); }
};

// A one-byte enumeration (an enum or a std::uint8_t) whose valid values
// run from 0 to `last`; decoding rejects anything larger.
template <class V>
struct EnumField {
  V& v;
  std::remove_cv_t<V> last;
};
template <class V>
EnumField<V> Enum(V& v, std::remove_cv_t<V> last) { return {v, last}; }

template <class V>
struct Codec<EnumField<V>> {
  using E = std::remove_cv_t<V>;
  static_assert(sizeof(E) == 1);
  static void Put(ByteWriter& w, const EnumField<V>& f) {
    w.u8(static_cast<std::uint8_t>(f.v));
  }
  static bool Get(ByteReader& r, const EnumField<V>& f) {
    auto x = r.u8();
    if (!x || *x > static_cast<std::uint8_t>(f.last)) return false;
    f.v = static_cast<E>(*x);
    return true;
  }
  static constexpr std::size_t Size(const EnumField<V>&) { return 1; }
};

// The (payload_size, payload) pair of a client message: payload_size as
// u32, then the payload, length-prefixed. The payload is either
// materialised (its length equals payload_size; decoding enforces this)
// or size-only: left empty, because the simulator charges payload bytes
// without allocating them. Size() counts a size-only payload as if it
// were materialised — varint(payload_size) + payload_size — so
// WireSize() is what the real transports would send. Payload(size)
// without a buffer declares a payload that is always size-only.
template <class N, class B>
struct PayloadField {
  N& size;
  B* buf;  // nullptr: always size-only
};
template <class N, class B>
PayloadField<N, B> Payload(N& size, B& buf) { return {size, &buf}; }
template <class N>
PayloadField<N, const PayloadBuf> Payload(N& size) { return {size, nullptr}; }

template <class N, class B>
struct Codec<PayloadField<N, B>> {
  static void Put(ByteWriter& w, const PayloadField<N, B>& f) {
    w.u32(f.size);
    if (f.buf != nullptr) {
      w.bytes(*f.buf);
    } else {
      w.varint(0);
    }
  }
  static bool Get(ByteReader& r, const PayloadField<N, B>& f) {
    auto size = r.u32();
    auto payload = r.payload();
    if (!size || !payload) return false;
    if (!payload->empty() && payload->size() != *size) return false;
    f.size = *size;
    if constexpr (!std::is_const_v<B>) {
      if (f.buf != nullptr) {
        *f.buf = std::move(*payload);
        return true;
      }
    }
    return payload->empty();
  }
  static std::size_t Size(const PayloadField<N, B>& f) {
    return 4 + VarintSize(f.size) + f.size;
  }
};

// Opaque filler of `n` bytes: lets a simulator-only test or benchmark
// message take an exact size through its field list. Never decoded.
struct Pad {
  std::size_t n = 0;
};

template <>
struct Codec<Pad> {
  static void Put(ByteWriter& w, const Pad& p) {
    for (std::size_t i = 0; i < p.n; ++i) w.u8(0);
  }
  static std::size_t Size(const Pad& p) { return p.n; }
};

}  // namespace mrp::wire
