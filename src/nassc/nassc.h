#ifndef NASSC_NASSC_H
#define NASSC_NASSC_H

/**
 * @file
 * Umbrella header: the whole public NASSC API in one include.
 *
 *   #include "nassc/nassc.h"
 *
 * Layered bottom-up (each group only depends on the ones above it):
 *
 *   ir/        gate/circuit IR, DAG view, QASM codec, fingerprinting
 *   circuits/  benchmark circuit generators (GHZ, QFT, BV, VQE, QAOA…)
 *   topo/      device topologies, calibration, lazy distance rows
 *   synth/     1q/2q/mct resynthesis primitives
 *   passes/    optimization + lowering passes
 *   route/     SABRE / NASSC routing and layout search
 *   sim/       statevector/unitary simulation and equivalence checks
 *   service/   scheduler, caches, async transpile service
 *   transpile/ end-to-end pipelines and TranspileContext
 *   serve/     nasscd network protocol, server, and client
 *
 * Binaries with tight build-time budgets can keep including the
 * individual headers; this umbrella is for examples, tools, and
 * downstream users who want the API without the include scavenger hunt.
 */

#include "nassc/ir/circuit.h"
#include "nassc/ir/dag.h"
#include "nassc/ir/fnv1a.h"
#include "nassc/ir/gate.h"
#include "nassc/ir/op_kind.h"
#include "nassc/ir/qasm.h"

#include "nassc/circuits/library.h"

#include "nassc/topo/backends.h"
#include "nassc/topo/coupling_map.h"
#include "nassc/topo/distance_provider.h"

#include "nassc/synth/euler1q.h"
#include "nassc/synth/kak2q.h"
#include "nassc/synth/mct.h"

#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/commutation.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/passes/optimize_1q.h"

#include "nassc/route/layout.h"
#include "nassc/route/layout_search.h"
#include "nassc/route/nassc_router.h"
#include "nassc/route/perfect_layout.h"
#include "nassc/route/router.h"
#include "nassc/route/sabre.h"

#include "nassc/sim/noise.h"
#include "nassc/sim/statevector.h"
#include "nassc/sim/unitary.h"
#include "nassc/sim/verify.h"

#include "nassc/service/distance_cache.h"
#include "nassc/service/scheduler.h"
#include "nassc/service/transpile_service.h"

#include "nassc/transpile/context.h"
#include "nassc/transpile/transpile.h"

#include "nassc/serve/client.h"
#include "nassc/serve/protocol.h"
#include "nassc/serve/server.h"

#endif // NASSC_NASSC_H
