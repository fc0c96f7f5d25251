#include "util/log.hpp"

#include <cstdio>

#include "util/time.hpp"

namespace drs::util {

namespace {
// drs-lint: shared-state-ok(process-wide log threshold, set once at startup before simulations run)
LogLevel g_level = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
LogLevel log_level() { return g_level; }

void log_message(LogLevel level, const char* component, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char body[1024];
  std::vsnprintf(body, sizeof body, fmt, args);
  va_end(args);
  std::fprintf(stderr, "[%s] %s: %s\n", level_name(level), component, body);
}

std::string to_string(Duration d) {
  const double ns = static_cast<double>(d.ns());
  char buf[64];
  const double abs = ns < 0 ? -ns : ns;
  if (abs >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3f s", ns * 1e-9);
  } else if (abs >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3f ms", ns * 1e-6);
  } else if (abs >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3f us", ns * 1e-3);
  } else {
    std::snprintf(buf, sizeof buf, "%lld ns", static_cast<long long>(d.ns()));
  }
  return buf;
}

std::string to_string(SimTime t) { return to_string(t - SimTime::zero()); }

}  // namespace drs::util
