// Assertion macros for programming errors.
//
// The library does not throw exceptions across its public API (Google C++
// style). Precondition violations are programming errors and abort the
// process with a source location and a formatted message.
//
//   WFM_CHECK(cond) << "extra context " << value;
//   WFM_CHECK_GT(rows, 0);
//   WFM_DCHECK(...)   -- compiled out in NDEBUG builds (hot paths only).

#ifndef WFM_COMMON_CHECK_H_
#define WFM_COMMON_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace wfm {
namespace internal {

// Accumulates a failure message and aborts on destruction. Used as a
// temporary so that `WFM_CHECK(x) << "context"` streams into the message.
class CheckFailureStream {
 public:
  CheckFailureStream(const char* kind, const char* file, int line,
                     const char* condition) {
    stream_ << kind << " failed at " << file << ":" << line << ": "
            << condition;
  }

  CheckFailureStream(const CheckFailureStream&) = delete;
  CheckFailureStream& operator=(const CheckFailureStream&) = delete;

  [[noreturn]] ~CheckFailureStream() {
    stream_ << "\n";
    std::cerr << stream_.str() << std::flush;
    std::abort();
  }

  template <typename T>
  CheckFailureStream& operator<<(const T& value) {
    stream_ << " " << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace wfm

#define WFM_CHECK(condition)                                              \
  if (condition) {                                                        \
  } else /* NOLINT */                                                     \
    ::wfm::internal::CheckFailureStream("WFM_CHECK", __FILE__, __LINE__,  \
                                        #condition)

#define WFM_CHECK_OP(op, a, b) WFM_CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ")"
#define WFM_CHECK_EQ(a, b) WFM_CHECK_OP(==, a, b)
#define WFM_CHECK_NE(a, b) WFM_CHECK_OP(!=, a, b)
#define WFM_CHECK_LT(a, b) WFM_CHECK_OP(<, a, b)
#define WFM_CHECK_LE(a, b) WFM_CHECK_OP(<=, a, b)
#define WFM_CHECK_GT(a, b) WFM_CHECK_OP(>, a, b)
#define WFM_CHECK_GE(a, b) WFM_CHECK_OP(>=, a, b)

#ifdef NDEBUG
#define WFM_DCHECK(condition) \
  if (true) {                 \
  } else /* NOLINT */         \
    ::wfm::internal::CheckFailureStream("WFM_DCHECK", __FILE__, __LINE__, #condition)
#else
#define WFM_DCHECK(condition) WFM_CHECK(condition)
#endif

#endif  // WFM_COMMON_CHECK_H_
