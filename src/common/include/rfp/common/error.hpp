#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

/// \file error.hpp
/// Exception hierarchy and precondition assertions. Following the Core
/// Guidelines (E.2, I.6): throw on contract violations and unrecoverable
/// states; keep error types specific enough for callers to discriminate.

namespace rfp {

/// Base class for all rfprism errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A function argument violated a documented precondition.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// A numeric routine failed to converge or produced a degenerate result.
class NumericalError : public Error {
 public:
  using Error::Error;
};

/// A lookup (tag id, material name, calibration entry) found nothing.
class NotFound : public Error {
 public:
  using Error::Error;
};

/// Throw InvalidArgument when `cond` is false. The message is a view, so a
/// passing check costs one branch: the std::string is built only on the
/// throw path (hot loops call require with literals longer than the
/// small-string buffer, which a `const std::string&` parameter would
/// heap-allocate on every call).
inline void require(bool cond, std::string_view what) {
  if (!cond) [[unlikely]] {
    throw InvalidArgument(std::string(what));
  }
}

}  // namespace rfp
