/// \file text_sink.hpp
/// The one output path of every text writer: an append-only buffer over
/// a `std::string`. Strings and characters are appended as they are,
/// integers go through `std::to_chars`, doubles print as `%g` at
/// precision 6 (`std::to_chars` with `chars_format::general`, with a
/// shortcut for short decimals) — exactly what a default-flag
/// `std::ostream` prints, so switching a writer from a stream to the
/// sink leaves its bytes unchanged. Unlike a stream the
/// sink never consults a locale: output is the same under any
/// `std::locale::global` (no digit grouping, `.` as decimal point).

#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>

namespace bb::core {

class TextSink {
 public:
  TextSink& operator<<(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  TextSink& operator<<(char c) {
    buf_.push_back(c);
    return *this;
  }
  /// Integers print as numbers. Character-sized and bool types are
  /// excluded: a stream prints those as characters or 0/1, and a writer
  /// should say which it means.
  template <std::integral T>
    requires(sizeof(T) > 1 && !std::same_as<T, bool>)
  TextSink& operator<<(T v) {
    char tmp[24];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v);
    buf_.append(tmp, r.ptr);
    return *this;
  }
  TextSink& operator<<(double v) {
    char tmp[32];
    char* end = shortDecimal(tmp, v);
    if (end == nullptr) {
      end = std::to_chars(tmp, tmp + sizeof tmp, v, std::chars_format::general, 6).ptr;
    }
    buf_.append(tmp, end);
    return *this;
  }

  /// The text written so far; the sink is spent afterwards.
  [[nodiscard]] std::string take() && noexcept { return std::move(buf_); }

 private:
  /// Writes `v` as its plain decimal when `v` is a nonzero multiple of
  /// 1/1000 with at most six significant digits, such as the SVG
  /// writers' coordinates at their usual scales. `%g` at precision 6
  /// prints exactly that decimal for such values, and this costs about
  /// a quarter of the general formatter. Returns the end, or nullptr
  /// for any other value.
  static char* shortDecimal(char* p, double v) {
    // Zero is excluded for "-0"; from 10^6 on %g turns scientific.
    if (v == 0 || !(std::fabs(v) < 1e6)) return nullptr;
    const double scaled = v * 1000;
    const auto milli = static_cast<long long>(scaled);
    if (static_cast<double>(milli) != scaled) return nullptr;
    const auto m = milli < 0 ? 0 - static_cast<unsigned long long>(milli)
                             : static_cast<unsigned long long>(milli);
    const unsigned long long whole = m / 1000;
    auto frac = static_cast<unsigned>(m % 1000);
    int places = 3;  // fractional digits once trailing zeros are dropped
    for (; places > 0 && frac % 10 == 0; --places) frac /= 10;
    int digits = places;
    for (unsigned long long w = whole; w > 0; w /= 10) ++digits;
    if (digits > 6) return nullptr;
    if (milli < 0) *p++ = '-';
    p = std::to_chars(p, p + 8, whole).ptr;
    if (places > 0) {
      *p++ = '.';
      for (int k = places - 1; k >= 0; --k, frac /= 10) p[k] = static_cast<char>('0' + frac % 10);
      p += places;
    }
    return p;
  }

  std::string buf_;
};

}  // namespace bb::core
