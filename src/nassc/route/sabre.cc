#include "nassc/route/sabre.h"

#include <stdexcept>

#include "nassc/ir/dag.h"
#include "nassc/route/layout_search.h"
#include "nassc/route/router.h"

namespace nassc {

RoutingResult
route_circuit(const QuantumCircuit &logical, const CouplingMap &coupling,
              const DistanceProvider &dist, const Layout &initial,
              const RoutingOptions &opts)
{
    if (logical.num_qubits() > coupling.num_qubits())
        throw std::invalid_argument("circuit larger than device");
    DagCircuit dag(logical);
    Router r(dag, coupling, dist, opts);
    return r.run(initial);
}

Layout
sabre_initial_layout(const QuantumCircuit &logical,
                     const CouplingMap &coupling,
                     const DistanceProvider &dist,
                     const RoutingOptions &opts, int iterations)
{
    // The whole search lives in LayoutSearch (route/layout_search.h):
    // opts.layout_trials independent seed layouts refined in parallel on
    // the shared pool, best-by-(swaps, depth, trial) wins.  The default
    // layout_trials = 1 runs the historical single-seed reverse
    // traversal, bit for bit.  This wrapper only hands back the layout,
    // so retention is disabled: racing trials still score (the arg-min
    // needs the key) but nothing is kept alive, and the single-trial
    // path skips the scoring pass entirely — the historical cost.
    RoutingOptions lopts = opts;
    lopts.reuse_routing = false;
    LayoutSearch search(logical, coupling, dist, lopts, iterations);
    return search.run().initial;
}

} // namespace nassc
