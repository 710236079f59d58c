// Umbrella header: the whole public surface of the in-memory-computing
// study library. Include the individual module headers instead when compile
// time matters.
#pragma once

#include "adios/adios.h"            // ADIOS (XML, the Io decorator, MPI-IO)
#include "apps/analysis.h"          // MSD / MTA analytics
#include "apps/apps.h"              // LAMMPS / Laplace / synthetic workloads
#include "apps/kernels.h"           // the real LJ-melt and Jacobi kernels
#include "common/hilbert.h"         // n-D Hilbert space-filling curve
#include "common/rng.h"             // deterministic RNG
#include "common/status.h"          // Status / Result error vocabulary
#include "common/units.h"           // byte/time units and formatting
#include "dataspaces/dataspaces.h"  // DataSpaces staging
#include "dataspaces/locks.h"       // the named-lock service (lock_type 1/2/3)
#include "dataspaces/regions.h"     // region decomposition + SFC index model
#include "decaf/decaf.h"            // Decaf dataflow
#include "dimes/dimes.h"            // DIMES client-side staging
#include "flexpath/flexpath.h"      // Flexpath publish/subscribe
#include "hpc/cluster.h"            // nodes, clusters, resource pools
#include "hpc/machine.h"            // Titan / Cori KNL machine models
#include "lustre/lustre.h"          // the Lustre OST/MDS model
#include "mem/memory.h"             // tagged memory accounting
#include "mpi/comm.h"               // mini-MPI communicators
#include "mpi/file.h"               // collective MPI-IO
#include "ndarray/ndarray.h"        // boxes, decompositions, slabs
#include "net/drc.h"                // the DRC credential service
#include "net/fabric.h"             // Gemini / Aries interconnect model
#include "net/transport.h"          // uGNI / NNTI / sockets / shm transports
#include "serial/ffs.h"             // FFS self-describing serialization
#include "sim/engine.h"             // the discrete-event engine
#include "sim/sync.h"               // events, semaphores, queues, barriers
#include "sim/task.h"               // coroutine tasks
#include "staging/client.h"         // the step-based client interface
#include "staging/clients.h"        // DataSpaces/DIMES, Flexpath, Decaf clients
#include "workflow/workflow.h"      // the coupled-workflow harness
