// Minimal leveled logger.
//
// The simulation engine logs round progress at Info; kernels never log.
// Output goes to stderr so bench harnesses can keep stdout for the
// machine-readable tables they print.
#pragma once

#include <sstream>
#include <string>

namespace fedclust {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// The threshold, kInfo: messages below it are dropped.
LogLevel log_level();

namespace detail {
void log_message(LogLevel level, const std::string& message);
}

#define FEDCLUST_LOG(level, ...)                                    \
  do {                                                              \
    if (static_cast<int>(level) >=                                  \
        static_cast<int>(::fedclust::log_level())) {                \
      std::ostringstream fedclust_log_oss_;                         \
      fedclust_log_oss_ << __VA_ARGS__;                             \
      ::fedclust::detail::log_message(level, fedclust_log_oss_.str()); \
    }                                                               \
  } while (false)

#define LOG_DEBUG(...) FEDCLUST_LOG(::fedclust::LogLevel::kDebug, __VA_ARGS__)
#define LOG_INFO(...) FEDCLUST_LOG(::fedclust::LogLevel::kInfo, __VA_ARGS__)
#define LOG_WARN(...) FEDCLUST_LOG(::fedclust::LogLevel::kWarn, __VA_ARGS__)
#define LOG_ERROR(...) FEDCLUST_LOG(::fedclust::LogLevel::kError, __VA_ARGS__)

}  // namespace fedclust
