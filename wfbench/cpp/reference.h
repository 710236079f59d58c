// Reference check of simulated results.
//
// Each Spec's simulated outcome is reduced to a fixed set of fields, printed
// with round-trip precision, and compared field by field against a committed
// reference keyed by spec_key(). Internal hashes and counters a performance
// change may legitimately alter (run_digest, events_processed) are left out.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workflow/workflow.h"

namespace wfbench {

// field name -> formatted value, in a fixed field order.
using Record = std::vector<std::pair<std::string, std::string>>;

Record make_record(const imc::workflow::RunResult& result);

// spec key -> record.
using Reference = std::map<std::string, Record>;

// One line per spec: "<key>\t<field>=<value>\t...". Tabs and newlines never
// occur in keys or values (failure texts are sanitized).
std::string format_reference(const Reference& ref);
// Parses format_reference() output; throws std::runtime_error on a
// malformed line.
Reference parse_reference(const std::string& text);

// Empty when `result` matches the reference entry for `key` and left a
// clean leak ledger; otherwise a one-line reason.
std::string check_result(const Reference& ref, const std::string& key,
                         const imc::workflow::RunResult& result);

}  // namespace wfbench
