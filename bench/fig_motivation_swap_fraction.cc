// Reproduces the Sec. III motivation measurement: the fraction of the
// SWAP gates a SABRE-routed circuit that are later modified by the
// optimizer — via two-qubit block resynthesis and via commutative gate
// cancellation.  The paper reports 20.7% (resynthesis) and 40.3%
// (cancellation) for a 10-qubit Grover benchmark on a 4x4 grid.

#include "bench_common.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/passes/cancellation.h"
#include "nassc/passes/collect_blocks.h"
#include "nassc/passes/decompose_swaps.h"
#include "nassc/passes/optimize_1q.h"

using namespace nassc;
using namespace nassc::bench;

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv, kSeeds);
    Backend dev = grid_backend(4, 4);
    QuantumCircuit logical = grover(10);

    double resynth_frac = 0.0, cancel_frac = 0.0, swaps_avg = 0.0;

    // Seed-invariant inputs hoisted out of the per-seed loop: the
    // prepared circuit and the distance matrix are identical for every
    // repetition; only the layout (seeded) varies.
    QuantumCircuit c = decompose_to_2q(logical);
    run_optimize_1q(c, Basis1q::kUGate);
    consolidate_2q_blocks(c, Basis1q::kUGate);
    const auto dist = hop_distance(dev.coupling);

    for (int s = 0; s < args.seeds; ++s) {
        RoutingOptions ropts;
        ropts.seed = static_cast<unsigned>(s);
        Layout init = sabre_initial_layout(c, dev.coupling, dist, ropts);
        RoutingResult routed =
            route_circuit(c, dev.coupling, dist, init, ropts);

        int swaps = routed.stats.num_swaps;
        swaps_avg += swaps;

        // (a) SWAPs absorbed when blocks (including SWAP gates) are
        // resynthesized, exactly what Collect2qBlocks+UnitarySynthesis
        // does to the routed circuit.
        QuantumCircuit resynth = routed.circuit;
        consolidate_2q_blocks(resynth, Basis1q::kUGate);
        int absorbed = swaps - resynth.count(OpKind::kSwap);
        resynth_frac += swaps > 0 ? double(absorbed) / swaps : 0.0;

        // (b) SWAP CNOTs removed by commutative cancellation after the
        // fixed decomposition (each cancelled pair touches a SWAP CNOT).
        QuantumCircuit fixed = routed.circuit;
        decompose_swaps(fixed, false);
        fixed = translate_to_basis(fixed);
        run_optimize_1q(fixed, Basis1q::kZsx);
        int cx_before = fixed.cx_count();
        run_commutative_cancellation_to_fixpoint(fixed);
        int removed_pairs = (cx_before - fixed.cx_count()) / 2;
        cancel_frac += swaps > 0 ? double(removed_pairs) / swaps : 0.0;
    }
    resynth_frac = 100.0 * resynth_frac / args.seeds;
    cancel_frac = 100.0 * cancel_frac / args.seeds;
    swaps_avg /= args.seeds;

    std::printf("Sec. III motivation: grover_n10 on 4x4 grid, SABRE "
                "(%d seeds)\n\n", args.seeds);
    std::printf("average SWAPs inserted:                 %.1f\n", swaps_avg);
    std::printf("SWAPs absorbed by block resynthesis:    %.1f%%  "
                "(paper: 20.7%%)\n", resynth_frac);
    std::printf("SWAPs touched by gate cancellation:     %.1f%%  "
                "(paper: 40.3%%)\n", cancel_frac);
    std::printf("\nReading: a large share of SABRE's SWAPs are modified "
                "by later optimization,\nso minimizing SWAP count alone "
                "is not minimizing the real CNOT cost.\n");
    return 0;
}
