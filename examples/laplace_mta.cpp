// The Laplace + moment-turbulence-analysis workflow (Table II), configured
// through an ADIOS XML document — the way the paper's domain scientists
// drive these libraries.
//
//   ./build/examples/laplace_mta
//
// Demonstrates: XML group configuration, the Flexpath pub/sub path with
// queue_size=1 back-pressure, and real Jacobi data flowing to the MTA. The
// method and its queue size are the run's Spec, not the XML.
#include <cstdio>

#include "adios/adios.h"
#include "common/units.h"
#include "workflow/workflow.h"

using namespace imc;

namespace {

constexpr const char* kWorkflowConfig = R"(<?xml version="1.0"?>
<adios-config host-language="C">
  <adios-group name="laplace">
    <var name="field" dimensions="4096,ncols" type="double"/>
  </adios-group>
  <buffer size-MB="320"/>
  <analysis stats="on"/>
</adios-config>)";

}  // namespace

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

  // Parse the configuration exactly as adios_init would.
  auto config = adios::parse_config(kWorkflowConfig);
  if (!config.has_value()) {
    std::fprintf(stderr, "config error: %s\n",
                 config.status().to_string().c_str());
    return 1;
  }
  const adios::GroupDecl* group = config->group("laplace");
  auto dims = adios::resolve_dims(group->vars[0].dimensions,
                                  {{"ncols", 8ull * 4096}});
  std::printf("ADIOS config: group '%s', var '%s' %s via %s\n",
              group->name.c_str(), group->vars[0].name.c_str(),
              nda::Box::whole(*dims).to_string().c_str(),
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
