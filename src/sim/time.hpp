// Time base for the OpenRTE discrete-event simulation.
//
// All simulated clocks use a signed 64-bit nanosecond count. Signed so that
// "t - now" arithmetic is safe near zero; 64 bits give ~292 years of range,
// far beyond any automotive mission time we simulate.
#pragma once

#include <cstdint>

namespace orte::sim {

/// Simulated time in nanoseconds since simulation start.
using Time = std::int64_t;

/// Duration in nanoseconds (same representation as Time).
using Duration = std::int64_t;

/// Sentinel for "never" / unbounded horizons.
inline constexpr Time kForever = INT64_MAX;

// Literal-style helpers. Integer-only on purpose: fractional microseconds are
// a common source of accumulated rounding drift in schedule tables.
constexpr Duration microseconds(std::int64_t v) { return v * 1'000; }
constexpr Duration milliseconds(std::int64_t v) { return v * 1'000'000; }
constexpr Duration seconds(std::int64_t v) { return v * 1'000'000'000; }

/// Convert to double milliseconds for reporting only (never for scheduling).
constexpr double to_ms(Time t) { return static_cast<double>(t) / 1e6; }
constexpr double to_us(Time t) { return static_cast<double>(t) / 1e3; }

}  // namespace orte::sim
