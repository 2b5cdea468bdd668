#pragma once
// Error hierarchy for the nrcollapse library.
//
// All library failures are reported through exceptions derived from
// nrc::Error so that callers can catch library problems with a single
// handler while still being able to discriminate the failure class.

#include <stdexcept>
#include <string>

namespace nrc {

/// Base class of every exception thrown by nrcollapse.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Integer overflow detected in exact arithmetic (rationals, i128 eval).
class OverflowError : public Error {
 public:
  explicit OverflowError(const std::string& what) : Error(what) {}
};

/// A level equation has degree > 4 and cannot be inverted in closed form
/// (paper §IV-B).  Binary-search unranking remains available.
class DegreeError : public Error {
 public:
  explicit DegreeError(const std::string& what) : Error(what) {}
};

/// Failure while recovering an index from a level equation.
class SolveError : public Error {
 public:
  explicit SolveError(const std::string& what) : Error(what) {}
};

/// A loop-nest specification violates the model of paper Fig. 5
/// (non-affine bound, bound referencing an inner iterator, duplicate
/// names, empty ranges, ...).
class SpecError : public Error {
 public:
  explicit SpecError(const std::string& what) : Error(what) {}
};

/// Syntax error in the loop-nest DSL accepted by the codegen front end.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

}  // namespace nrc
