// Umbrella header: the whole public surface of the in-memory-computing
// study library. Include the individual module headers instead when compile
// time matters.
#pragma once

#include "adios/adios.h"            // ADIOS (the Io decorator, MPI-IO)
#include "apps/analysis.h"          // MSD / MTA analytics
#include "apps/apps.h"              // LAMMPS / Laplace / synthetic workloads
#include "apps/kernels.h"           // the real LJ-melt and Jacobi kernels
#include "common/rng.h"             // deterministic RNG
#include "common/status.h"          // Status / Result error vocabulary
#include "common/units.h"           // byte/time units and formatting
#include "common/world.h"           // the current world's binding (imc::World)
#include "dataspaces/dataspaces.h"  // DataSpaces staging
#include "dataspaces/regions.h"     // region decomposition + SFC index model
#include "decaf/decaf.h"            // Decaf dataflow
#include "dimes/dimes.h"            // DIMES client-side staging
#include "flexpath/flexpath.h"      // Flexpath publish/subscribe
#include "hpc/cluster.h"            // nodes, clusters, resource pools
#include "hpc/machine.h"            // Titan / Cori KNL machine models
#include "lustre/lustre.h"          // the Lustre OST/MDS model
#include "mem/memory.h"             // tagged memory accounting
#include "mpi/comm.h"               // mini-MPI communicators
#include "ndarray/ndarray.h"        // boxes, decompositions, slabs
#include "net/drc.h"                // the DRC credential service
#include "net/fabric.h"             // Gemini / Aries interconnect model
#include "net/transport.h"          // uGNI / NNTI / sockets / shm transports
#include "serial/ffs.h"             // FFS formats and encode cost
#include "sim/engine.h"             // the discrete-event engine
#include "sim/sync.h"               // events, semaphores, queues, barriers
#include "sim/task.h"               // coroutine tasks
#include "staging/client.h"         // the step-based client interface
#include "staging/clients.h"        // DataSpaces/DIMES, Flexpath, Decaf clients
#include "workflow/workflow.h"      // the coupled-workflow harness
