#include "reference.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace wfbench {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string sanitize(std::string text) {
  for (char& c : text) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

Record make_record(const imc::workflow::RunResult& result) {
  std::string failures;
  for (const auto& f : result.failures) {
    if (!failures.empty()) failures += " ; ";
    failures += sanitize(f);
  }
  return {
      {"ok", result.ok ? "1" : "0"},
      {"failures", failures},
      {"end_to_end", num(result.end_to_end)},
      {"sim_staging", num(result.sim_staging)},
      {"ana_staging", num(result.ana_staging)},
      {"sim_rank_peak", std::to_string(result.sim_rank_peak)},
      {"ana_rank_peak", std::to_string(result.ana_rank_peak)},
      {"server_peak", std::to_string(result.server_peak)},
      {"sample_analysis_value", num(result.sample_analysis_value)},
      {"bytes_moved", num(result.bytes_moved)},
      {"transfers", std::to_string(result.transfers)},
  };
}

std::string format_reference(const Reference& ref) {
  std::string out;
  for (const auto& [key, record] : ref) {
    out += key;
    for (const auto& [field, value] : record) {
      out += "\t" + field + "=" + value;
    }
    out += "\n";
  }
  return out;
}

Reference parse_reference(const std::string& text) {
  Reference ref;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    std::getline(fields, key, '\t');
    Record record;
    std::string cell;
    while (std::getline(fields, cell, '\t')) {
      const auto eq = cell.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("reference line " + std::to_string(lineno) +
                                 ": field without '='");
      }
      record.emplace_back(cell.substr(0, eq), cell.substr(eq + 1));
    }
    if (key.empty() || record.empty() || !ref.emplace(key, record).second) {
      throw std::runtime_error("reference line " + std::to_string(lineno) +
                               ": empty or duplicate entry");
    }
  }
  return ref;
}

std::string check_result(const Reference& ref, const std::string& key,
                         const imc::workflow::RunResult& result) {
  if (!result.leaks.empty()) return key + ": leak ledger: " + result.leaks.front();
  const auto it = ref.find(key);
  if (it == ref.end()) return key + ": no reference entry";
  const Record got = make_record(result);
  if (got.size() != it->second.size()) return key + ": field count differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != it->second[i]) {
      return key + ": " + got[i].first + " = " + got[i].second +
             ", reference " + it->second[i].first + " = " +
             it->second[i].second;
    }
  }
  return {};
}

}  // namespace wfbench
