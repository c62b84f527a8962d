#include "utils/logging.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace fedclust {
namespace {

std::mutex g_log_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    default:
      return "?????";
  }
}

}  // namespace

LogLevel log_level() { return LogLevel::kInfo; }

namespace detail {

void log_message(LogLevel level, const std::string& message) {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  const double t =
      std::chrono::duration<double>(clock::now() - start).count();
  std::lock_guard lock(g_log_mutex);
  std::fprintf(stderr, "[%8.3f] %s %s\n", t, level_name(level),
               message.c_str());
}

}  // namespace detail
}  // namespace fedclust
