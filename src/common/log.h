// Minimal leveled logger. Benches run with logging off by default; tests can
// raise the level to debug a failing scenario.
//
// Sinks: by default every message goes straight to stderr. A World whose
// `log` field is set (common/world.h) captures its messages instead — the
// sweep layer (src/sweep/) sets it for every job so warnings emitted
// mid-scenario can be flushed in submission order next to that scenario's
// results rather than interleaving across worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace imc {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

LogLevel log_level();
void set_log_level(LogLevel level);
void log_message(LogLevel level, std::string_view msg);

// Captured log bytes as a chunked rope. Appends land in a reserved tail
// chunk and handing the capture onward (a move) moves whole chunks, so a
// sweep job's log bytes are formatted once and never copied again on their
// way to the submission-order flush. The chunks are an implementation
// detail: observable output is the concatenation in append order.
class LogText {
 public:
  LogText() = default;
  LogText(LogText&&) = default;
  LogText& operator=(LogText&&) = default;
  LogText(const LogText&) = delete;
  LogText& operator=(const LogText&) = delete;

  bool empty() const { return bytes_ == 0; }
  std::size_t size() const { return bytes_; }

  void append(std::string_view text) {
    if (text.empty()) return;
    bytes_ += text.size();
    if (!chunks_.empty()) {
      std::string& tail = chunks_.back();
      if (tail.size() + text.size() <= tail.capacity()) {
        tail.append(text);
        return;
      }
    }
    grow_and_append(text);
  }

  void clear() {
    chunks_.clear();
    bytes_ = 0;
  }

  // Joins the rope into one string (tests and diagnostics; the hot flush
  // path writes chunks directly — see write_log_output).
  std::string str() const;

  // Chunk access for sinks; never contains empty strings.
  const std::vector<std::string>& chunks() const { return chunks_; }

 private:
  static constexpr std::size_t kChunkBytes = 4096;

  void grow_and_append(std::string_view text);

  std::vector<std::string> chunks_;
  std::size_t bytes_ = 0;
};

// Writes previously captured log bytes to the real sink (stderr). Exposed
// so the sweep pool can flush per-job buffers in submission order.
void write_log_output(const LogText& text);

// Process-wide totals of log bytes/chunks written through the real sink
// (write_log_output plus unbuffered log_message lines).
// Monotonic, thread-safe, and never part of any digest: they feed the
// imc::prof resource-accounting report, which asks "how much wall-clock
// work did log flushing do", not "what did the simulation log".
std::uint64_t log_flushed_bytes();
std::uint64_t log_flushed_chunks();

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, std::move(stream_).str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace imc

#define IMC_LOG(level)                      \
  if (::imc::log_level() <= (level))        \
  ::imc::detail::LogLine(level)

#define IMC_DEBUG() IMC_LOG(::imc::LogLevel::kDebug)
#define IMC_INFO() IMC_LOG(::imc::LogLevel::kInfo)
#define IMC_WARN() IMC_LOG(::imc::LogLevel::kWarn)
#define IMC_ERROR() IMC_LOG(::imc::LogLevel::kError)
