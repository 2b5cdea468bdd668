#pragma once
// 128-bit integer helpers with overflow checking.
//
// Exact evaluation of ranking polynomials is the correctness backbone of
// the library: the floating-point closed-form recovery is always verified
// (and if needed corrected) against exact integer evaluation.  That exact
// evaluation happens in __int128 with explicit overflow checks so that a
// user passing astronomically large parameters gets an OverflowError, not
// silent wrap-around.

#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace nrc {

using i64 = std::int64_t;
using u64 = std::uint64_t;
using i128 = __int128;

/// Decimal rendering of a signed 128-bit integer (std::to_string has no
/// __int128 overload).
std::string to_string_i128(i128 v);

/// a + b with overflow detection.  Throws OverflowError.
inline i128 checked_add(i128 a, i128 b) {
  i128 r;
  if (__builtin_add_overflow(a, b, &r)) throw OverflowError("i128 add overflow");
  return r;
}

/// a - b with overflow detection.  Throws OverflowError.
inline i128 checked_sub(i128 a, i128 b) {
  i128 r;
  if (__builtin_sub_overflow(a, b, &r)) throw OverflowError("i128 sub overflow");
  return r;
}

/// a * b with overflow detection.  Throws OverflowError.
inline i128 checked_mul(i128 a, i128 b) {
  i128 r;
  if (__builtin_mul_overflow(a, b, &r)) throw OverflowError("i128 mul overflow");
  return r;
}

/// base^exp with overflow detection.  exp == 0 yields 1.
i128 ipow_checked(i128 base, unsigned exp);

/// Narrow to int64_t; throws OverflowError when out of range.
inline i64 narrow_i64(i128 v) {
  if (v > static_cast<i128>(INT64_MAX) || v < static_cast<i128>(INT64_MIN))
    throw OverflowError("value does not fit in int64: " + to_string_i128(v));
  return static_cast<i64>(v);
}

/// Exact division; throws SolveError when b does not divide a.
/// Used when evaluating integer-valued polynomials given over a common
/// denominator: divisibility failure indicates a logic error upstream.
inline i128 exact_div(i128 a, i128 b) {
  if (b == 1) return a;
  // One 128-bit division (a library call) instead of a remainder and a
  // quotient; q * b == a exactly when b divides a.
  const i128 q = b == 0 ? 0 : a / b;
  if (b == 0 || q * b != a)
    throw SolveError("exact_div: " + to_string_i128(a) + " not divisible by " +
                     to_string_i128(b));
  return q;
}

/// Floor division for int64 (rounds toward negative infinity).
inline i64 floor_div(i64 a, i64 b) {
  i64 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Checked int64 helpers used by hot-path affine-bound evaluation.
inline i64 checked_add_i64(i64 a, i64 b) {
  i64 r;
  if (__builtin_add_overflow(a, b, &r)) throw OverflowError("i64 add overflow");
  return r;
}
inline i64 checked_mul_i64(i64 a, i64 b) {
  i64 r;
  if (__builtin_mul_overflow(a, b, &r)) throw OverflowError("i64 mul overflow");
  return r;
}

}  // namespace nrc
