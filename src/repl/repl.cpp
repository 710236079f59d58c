#include "repl/repl.h"

#include "trace/trace.h"

namespace imc::repl {

void Coordinator::note_replica_put(std::uint64_t bytes) {
  ++stats_.replica_puts;
  stats_.replica_bytes += bytes;
  trace::count("repl.replica_puts");
}

void Coordinator::note_degraded_get() {
  ++stats_.degraded_gets;
  trace::count("repl.degraded_gets");
}

void Coordinator::note_under_replicated() {
  ++stats_.under_replicated;
  trace::count("repl.under_replicated");
}

void Coordinator::note_object_lost() {
  ++stats_.objects_lost;
  trace::count("repl.objects_lost");
}

void Coordinator::note_resilver_copy(std::uint64_t bytes) {
  ++stats_.resilver_copies;
  stats_.resilver_bytes += bytes;
  trace::count("repl.resilver_copies");
}

void Coordinator::note_resilver_failure() {
  ++stats_.resilver_failures;
  trace::count("repl.resilver_failures");
}

void Coordinator::note_redundancy_restored(double seconds) {
  ++stats_.restores;
  stats_.time_to_restore = std::max(stats_.time_to_restore, seconds);
  trace::count("repl.restores");
}

}  // namespace imc::repl
