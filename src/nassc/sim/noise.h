#ifndef NASSC_SIM_NOISE_H
#define NASSC_SIM_NOISE_H

/**
 * @file
 * Depolarizing + readout noise model and the Monte-Carlo success-rate
 * protocol of the paper's Sec. VI-D (Fig. 11): 8192 noisy trials, success
 * = fraction of trials measuring the ideal output bitstring.
 */

#include <cstdint>

#include "nassc/ir/circuit.h"
#include "nassc/topo/backends.h"

namespace nassc {

/** Stochastic Pauli (depolarizing) + readout-flip noise. */
class NoiseModel
{
  public:
    /** Derive from a backend's calibration data. */
    static NoiseModel from_backend(const Backend &backend);

    double p1(int q) const { return p1_[q]; }
    double p2(int a, int b) const;
    double readout(int q) const { return ro_[q]; }
    int num_qubits() const { return static_cast<int>(p1_.size()); }

  private:
    std::vector<double> p1_;
    std::vector<double> ro_;
    std::vector<std::vector<double>> p2_;
};

/** Noiseless most-likely outcome of a circuit (basis-state index). */
uint64_t ideal_outcome(const QuantumCircuit &logical);

/** Result of a Monte-Carlo run. */
struct SuccessRate
{
    double rate = 0.0;
    int trials = 0;
    int hits = 0;
};

/**
 * Estimate the success rate of a *physical* (routed) circuit.
 *
 * @param physical      routed basis circuit on device wires
 * @param noise         device noise model
 * @param final_l2p     physical wire holding logical qubit l at the end
 * @param ideal_logical ideal logical outcome (from ideal_outcome())
 * @param trials        number of noisy shots (paper: 8192); must be
 *                      positive, else std::invalid_argument
 *
 * Only the wires the circuit actually touches are simulated, so large
 * devices stay cheap.
 */
SuccessRate monte_carlo_success(const QuantumCircuit &physical,
                                const NoiseModel &noise,
                                const std::vector<int> &final_l2p,
                                uint64_t ideal_logical, int trials = 8192,
                                unsigned seed = 1234);

} // namespace nassc

#endif // NASSC_SIM_NOISE_H
