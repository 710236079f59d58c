// The Laplace + moment-turbulence-analysis workflow (Table II) through
// ADIOS over Flexpath.
//
//   ./build/examples/laplace_mta
//
// Demonstrates: the Flexpath pub/sub path with queue_size=1 back-pressure,
// and real Jacobi data flowing to the MTA. The method, its queue size and
// the ADIOS buffer and stats settings all come from the run's Spec.
#include <cstdio>

#include "common/units.h"
#include "workflow/workflow.h"

using namespace imc;

int main() {
  workflow::Spec spec;
  spec.app = workflow::AppSel::kLaplace;
  spec.method = workflow::MethodSel::kFlexpath;
  spec.machine = hpc::cori_knl();
  spec.nsim = 8;
  spec.nana = 4;
  spec.steps = 3;
  spec.laplace_rows = 96;          // scaled-down grid, real Jacobi kernel
  spec.laplace_cols_per_proc = 96;
  spec.flexpath_queue_size = 1;

  // The field every step stages.
  const nda::VarDesc field = workflow::global_desc(spec, 0);
  std::printf("ADIOS var '%s' %s via %s\n", field.name.c_str(),
              nda::Box::whole(field.global).to_string().c_str(),
              std::string(workflow::to_string(spec.method)).c_str());
  std::printf("Laplace + MTA via Flexpath on %s (%d+%d ranks, %d steps, "
              "queue_size=1)\n",
              spec.machine.name.c_str(), spec.nsim, spec.nana, spec.steps);

  auto result = workflow::run(spec);
  if (!result.ok) {
    std::fprintf(stderr, "workflow failed: %s\n",
                 result.failure_summary().c_str());
    return 1;
  }
  std::printf("  end-to-end:          %s\n",
              format_time(result.end_to_end).c_str());
  std::printf("  sim/ana overlap:     sim done %.2f s, ana done %.2f s\n",
              result.sim_span, result.ana_span);
  std::printf("  field variance (2nd moment): %.4f\n",
              result.sample_analysis_value);
  std::printf("  (the hot boundary diffusing into the field gives a "
              "non-trivial variance)\n");
  return 0;
}
