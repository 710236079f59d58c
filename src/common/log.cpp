#include "common/log.h"

#include <atomic>
#include <cstdio>

#include "common/world.h"

namespace imc {
namespace {

// Atomic so a sweep worker reading the level never races a test adjusting
// it; ordering is irrelevant (the level is advisory).
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};

// Flush accounting for imc::prof (bytes/chunks that reached the real
// sink). Relaxed: the totals are advisory resource counters, never
// synchronization.
std::atomic<std::uint64_t> g_flushed_bytes{0};
std::atomic<std::uint64_t> g_flushed_chunks{0};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void LogText::grow_and_append(std::string_view text) {
  std::string chunk;
  chunk.reserve(text.size() > kChunkBytes ? text.size() : kChunkBytes);
  chunk.append(text);
  chunks_.push_back(std::move(chunk));
}

std::string LogText::str() const {
  std::string joined;
  joined.reserve(bytes_);
  for (const std::string& chunk : chunks_) joined.append(chunk);
  return joined;
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_message(LogLevel level, std::string_view msg) {
  if (level < log_level()) return;
  if (LogText* buffer = world().log) {
    buffer->append("[");
    buffer->append(level_name(level));
    buffer->append("] ");
    buffer->append(msg);
    buffer->append("\n");
    return;
  }
  std::fprintf(stderr, "[%s] %.*s\n", level_name(level),
               static_cast<int>(msg.size()), msg.data());
  g_flushed_bytes.fetch_add(msg.size() + 1, std::memory_order_relaxed);
  g_flushed_chunks.fetch_add(1, std::memory_order_relaxed);
}

void write_log_output(const LogText& text) {
  if (text.empty()) return;
  for (const std::string& chunk : text.chunks()) {
    std::fwrite(chunk.data(), 1, chunk.size(), stderr);
  }
  std::fflush(stderr);
  g_flushed_bytes.fetch_add(text.size(), std::memory_order_relaxed);
  g_flushed_chunks.fetch_add(text.chunks().size(),
                             std::memory_order_relaxed);
}

std::uint64_t log_flushed_bytes() {
  return g_flushed_bytes.load(std::memory_order_relaxed);
}

std::uint64_t log_flushed_chunks() {
  return g_flushed_chunks.load(std::memory_order_relaxed);
}

}  // namespace imc
