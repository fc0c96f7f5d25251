// Lightweight leveled logging.
//
// The simulator is deterministic and single-threaded per run, so the logger
// is intentionally simple: a global level, printf-style formatting, and
// stderr output.
#pragma once

#include <cstdarg>

namespace drs::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// printf-style log call; prefer the LOG_* macros below which skip argument
/// evaluation when the level is disabled.
void log_message(LogLevel level, const char* component, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace drs::util

#define DRS_LOG(level, component, ...)                               \
  do {                                                               \
    if (static_cast<int>(level) >= static_cast<int>(::drs::util::log_level())) \
      ::drs::util::log_message(level, component, __VA_ARGS__);       \
  } while (0)

#define DRS_TRACE(component, ...) DRS_LOG(::drs::util::LogLevel::kTrace, component, __VA_ARGS__)
#define DRS_DEBUG(component, ...) DRS_LOG(::drs::util::LogLevel::kDebug, component, __VA_ARGS__)
#define DRS_INFO(component, ...) DRS_LOG(::drs::util::LogLevel::kInfo, component, __VA_ARGS__)
#define DRS_WARN(component, ...) DRS_LOG(::drs::util::LogLevel::kWarn, component, __VA_ARGS__)
#define DRS_ERROR(component, ...) DRS_LOG(::drs::util::LogLevel::kError, component, __VA_ARGS__)
