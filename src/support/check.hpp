// Runtime and debug assertion helpers.
//
// PG_CHECK is always on and throws pargreedy::CheckFailure, making invariant
// violations testable (EXPECT_THROW) instead of aborting the process.
// PG_DCHECK compiles away in release builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pargreedy {

/// Exception thrown when a PG_CHECK condition fails.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str());
}

/// PG_CHECK_MSG's failure path: streams the message with `stream` and
/// throws. Kept cold and out of line so a check site costs only its test
/// and a call, and the function holding it stays small enough to inline.
template <typename Stream>
[[noreturn, gnu::cold, gnu::noinline]] void check_failed_streamed(
    const char* expr, const char* file, int line, const Stream& stream) {
  std::ostringstream os;
  stream(os);
  check_failed(expr, file, line, os.str());
}

}  // namespace detail
}  // namespace pargreedy

/// Always-on invariant check. Throws pargreedy::CheckFailure on violation.
#define PG_CHECK(cond)                                                     \
  do {                                                                     \
    if (!(cond))                                                           \
      ::pargreedy::detail::check_failed(#cond, __FILE__, __LINE__, "");    \
  } while (0)

/// Always-on invariant check with a streamed message (built only on
/// failure, out of line).
#define PG_CHECK_MSG(cond, msg)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::pargreedy::detail::check_failed_streamed(                          \
          #cond, __FILE__, __LINE__,                                       \
          [&](std::ostream& pg_check_os_) { pg_check_os_ << msg; });       \
    }                                                                      \
  } while (0)

/// Debug-only check; disappears when NDEBUG is defined.
#ifdef NDEBUG
#define PG_DCHECK(cond) \
  do {                  \
  } while (0)
#else
#define PG_DCHECK(cond) PG_CHECK(cond)
#endif
