// Hardened parsing for the IMC_* environment knobs (IMC_FULL_SCALE,
// IMC_THREADS, IMC_TRACE, ...).
//
// The historical ad-hoc readers treated anything unexpected as unset
// (`IMC_FULL_SCALE=yes` silently ran the small ladder), which makes a typo
// indistinguishable from a deliberate default — the experiment runs, just
// not the one that was asked for. Every knob therefore goes through one
// parser that accepts only the documented forms and rejects garbage loudly.
//
// The parse_* functions are pure (value passed in, Result out) so tests can
// cover the rejection paths; the *_or_die wrappers read getenv() and
// terminate with a clear message on malformed input, which is the right
// behaviour for a bench or test binary at startup.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace imc::env {

// Boolean knob: unset or empty -> fallback; "0" -> false; "1" -> true;
// anything else -> kInvalidArgument naming the variable and the accepted
// forms. `value` is the raw getenv() result (may be nullptr).
Result<bool> parse_flag(const char* name, const char* value, bool fallback);

// Integer knob: unset or empty -> fallback; otherwise a base-10 integer in
// [min, max]. Trailing junk, empty digits, or out-of-range values ->
// kInvalidArgument naming the variable, the offending text, and the range.
Result<long long> parse_int(const char* name, const char* value,
                            long long fallback, long long min, long long max);

// Floating-point knob (IMC_FAULT_BACKOFF and friends): unset or empty ->
// fallback; otherwise a finite decimal in [min, max]. Trailing junk, NaN,
// infinities, or out-of-range values -> kInvalidArgument, same contract as
// parse_int so a typo'd backoff can't silently run the default plan.
Result<double> parse_double(const char* name, const char* value,
                            double fallback, double min, double max);

// String knob (IMC_TRACE=<path>): unset -> fallback; set-but-empty ->
// kInvalidArgument (an empty path is almost always a broken shell
// expansion, and "run with tracing to nowhere" is not a useful default).
Result<std::string> parse_str(const char* name, const char* value,
                              const char* fallback);

// getenv() + parse; on error prints the message to stderr and exits 2.
bool flag_or_die(const char* name, bool fallback);
long long int_or_die(const char* name, long long fallback, long long min,
                     long long max);
double double_or_die(const char* name, double fallback, double min,
                     double max);
std::string str_or_die(const char* name, const char* fallback);

}  // namespace imc::env
