// Error handling primitives shared across the fedclust libraries.
//
// Library code reports precondition violations and invariant breaks by
// throwing `fedclust::Error` (a std::runtime_error with file:line context)
// via the FEDCLUST_CHECK / FEDCLUST_REQUIRE / FEDCLUST_FAIL macros. Hot
// inner loops use FEDCLUST_DCHECK, which compiles away in release builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace fedclust {

/// Exception type thrown on contract violations inside the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream oss;
  oss << file << ":" << line << ": check failed: " << expr;
  if (!msg.empty()) oss << " — " << msg;
  throw Error(oss.str());
}

}  // namespace detail
}  // namespace fedclust

// Throws fedclust::Error for the failed expression `expr` with the
// optional streamed message.
#define FEDCLUST_DETAIL_FAIL(expr, ...)                                 \
  do {                                                                  \
    std::ostringstream fedclust_check_msg_;                             \
    __VA_OPT__(fedclust_check_msg_ << __VA_ARGS__;)                     \
    ::fedclust::detail::throw_check_failure(expr, __FILE__, __LINE__,   \
                                            fedclust_check_msg_.str()); \
  } while (false)

/// Always-on check with an optional streamed message:
///   FEDCLUST_CHECK(rows > 0, "matrix must be non-empty, got " << rows);
#define FEDCLUST_CHECK(cond, ...)                          \
  do {                                                     \
    if (!(cond)) FEDCLUST_DETAIL_FAIL(#cond, __VA_ARGS__); \
  } while (false)

/// Unconditional failure, e.g. after an exhaustive switch. The throw is
/// [[noreturn]], so it may end a non-void function; the message reads as
/// that of a failed FEDCLUST_CHECK(false, ...):
///   FEDCLUST_FAIL("unknown codec kind " << kind);
#define FEDCLUST_FAIL(...) FEDCLUST_DETAIL_FAIL("false", __VA_ARGS__)

/// Precondition check on public API boundaries (same behaviour as
/// FEDCLUST_CHECK; a distinct name documents intent).
#define FEDCLUST_REQUIRE(cond, ...) FEDCLUST_CHECK(cond, __VA_ARGS__)

/// Debug-only check for hot paths; disappears when NDEBUG is defined.
#ifdef NDEBUG
#define FEDCLUST_DCHECK(cond, ...) \
  do {                             \
  } while (false)
#else
#define FEDCLUST_DCHECK(cond, ...) FEDCLUST_CHECK(cond, __VA_ARGS__)
#endif
