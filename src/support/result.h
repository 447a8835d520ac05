// Minimal expected-style result type used across the library.
//
// C++20 has no std::expected; this is the small subset we need. Functions on
// untrusted-input paths (parser, decoder, verifier, loader) return
// Result<T> or Status instead of throwing, per the project's error-handling
// convention.
#ifndef LFI_SUPPORT_RESULT_H_
#define LFI_SUPPORT_RESULT_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace lfi {

// Error carrying a human-readable message.
struct Error {
  std::string message;
};

// A value or an error.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}        // NOLINT(runtime/explicit)
  Result(Error error) : error_(std::move(error)) {}    // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  const T& value() const& { assert(ok()); return *value_; }
  T& value() & { assert(ok()); return *value_; }
  T&& value() && { assert(ok()); return *std::move(value_); }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  // `*std::move(r)` moves the value out; without this overload it would
  // bind to `const T&` and copy.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  const std::string& error() const {
    assert(!ok());
    return error_->message;
  }

 private:
  std::optional<T> value_;
  std::optional<Error> error_;
};

// A success/failure status with message on failure.
class Status {
 public:
  static Status Ok() { return Status(); }
  static Status Fail(std::string message) {
    Status s;
    s.error_ = Error{std::move(message)};
    return s;
  }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }
  const std::string& error() const {
    assert(!ok());
    return error_->message;
  }

 private:
  std::optional<Error> error_;
};

}  // namespace lfi

#endif  // LFI_SUPPORT_RESULT_H_
