#ifndef NASSC_CIRCUITS_LIBRARY_H
#define NASSC_CIRCUITS_LIBRARY_H

/**
 * @file
 * Benchmark circuit generators (paper Sec. V).
 *
 * Grover / VQE / BV / QFT / QPE / Adder / Multiplier follow the standard
 * textbook constructions the paper's benchmark suite draws from ([39],
 * Qiskit circuit library, QASMBench).  The RevLib netlists (sqn_258,
 * rd84_253, co14_215, sym9_193, mod5mils_65, mod5d2_64, decod24-v2_43)
 * are not redistributable, so deterministic synthetic multi-controlled-
 * Toffoli networks of matching width and CNOT scale stand in for them;
 * see the "Substitutions" section of README.md.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "nassc/ir/circuit.h"

namespace nassc {

/**
 * Grover search over n qubits with an all-ones phase oracle.
 * @param iterations number of Grover iterations; -1 picks a size-scaled
 *        default that matches the paper's circuit scale.
 */
QuantumCircuit grover(int n, int iterations = -1);

/**
 * Hardware-efficient VQE ansatz: RY layers with *full* CX entanglement
 * (reps * n(n-1)/2 CNOTs; n=8, reps=3 gives exactly the paper's 84).
 */
QuantumCircuit vqe_full(int n, int reps = 3, unsigned seed = 1);

/** Bernstein-Vazirani over n qubits (n-1 data + 1 target). */
QuantumCircuit bernstein_vazirani(int n, uint64_t secret);

/** Quantum Fourier transform (no terminal qubit-reversal swaps). */
QuantumCircuit qft(int n);

/**
 * Quantum phase estimation with n-1 counting qubits and one eigenstate
 * qubit of a phase gate with the given phase.
 */
QuantumCircuit qpe(int n, double phase = 2.0 * 3.14159265358979 * 0.3125);

/** Cuccaro ripple-carry adder on `bits`-bit operands (2*bits+2 qubits). */
QuantumCircuit cuccaro_adder(int bits);

/** Shift-and-add multiplier (bits + bits + 2*bits + 1 qubits). */
QuantumCircuit multiplier(int bits);

/**
 * Deterministic synthetic reversible MCT network: `gates` multi-
 * controlled X gates with control counts in [min_controls, max_controls]
 * drawn from a seeded generator, interleaved with CX/X gates.
 */
QuantumCircuit mct_network(int qubits, int gates, unsigned seed,
                           int min_controls, int max_controls);

/** @name RevLib-style substitutes used in the evaluation. @{ */
QuantumCircuit sqn_258();     ///< 10 qubits, deep MCT cascade
QuantumCircuit rd84_253();    ///< 12 qubits
QuantumCircuit co14_215();    ///< 15 qubits
QuantumCircuit sym9_193();    ///< 11 qubits, deepest
QuantumCircuit mod5mils_65(); ///< 5 qubits (Fig. 11)
QuantumCircuit mod5d2_64();   ///< 5 qubits (Fig. 11)
QuantumCircuit decod24_v2_43(); ///< 4 qubits (Fig. 11)
/** @} */

/** GHZ state preparation (H + CX chain). */
QuantumCircuit ghz(int n);

/**
 * QAOA MaxCut ansatz on a seeded random 3-regular-ish graph: p rounds of
 * per-edge ZZ interactions and X-mixer rotations.  Routing-heavy, like
 * the NISQ workloads the paper's introduction motivates.
 */
QuantumCircuit qaoa_maxcut(int n, int rounds = 2, unsigned seed = 5);

/**
 * Hardware-efficient VQE with *linear* entanglement (cheaper sibling of
 * vqe_full, useful for topology ablations).
 */
QuantumCircuit vqe_linear(int n, int reps = 3, unsigned seed = 1);

/**
 * Brick-work circuit of seeded random SU(4) blocks over adjacent pairs —
 * a worst case for block resynthesis (every block already needs 3 CNOTs).
 */
QuantumCircuit random_su4_circuit(int n, int layers, unsigned seed);

/** One named benchmark. */
struct BenchmarkCase
{
    std::string name;
    QuantumCircuit circuit;
};

/** The 15 benchmarks of Tables I-IV, in table order. */
std::vector<BenchmarkCase> table_benchmarks();

/** The five small benchmarks of Fig. 11. */
std::vector<BenchmarkCase> fig11_benchmarks();

/** Look up any benchmark by name (tables + fig11). */
QuantumCircuit benchmark_by_name(const std::string &name);

} // namespace nassc

#endif // NASSC_CIRCUITS_LIBRARY_H
