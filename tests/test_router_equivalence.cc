// Golden-metrics regression for the router core.
//
// The optimized router (pinned distance rows, CSR DAG adjacency, epoch-
// stamped scratch buffers, delta scoring) must emit *bit-identical*
// results to the seed implementation: same RoutingStats, same physical
// gate sequence (including SWAP orientation flags), same initial and
// final layouts.  The golden values below were recorded by running the
// seed implementation over the Table I suite on ibmq_montreal for both
// SABRE and NASSC, with and without decay, on hop and noise-aware
// distances.
//
// A second table, kFinalGoldens, pins the *final* transpiled output of
// the same suite (default options, SABRE and NASSC, hop and noise
// distances): cx_total, depth, and the circuit fingerprint after the
// post-routing optimization loop.
//
// Regenerate after an *intentional* behavior change with:
//
//   export NASSC_REGEN_GOLDENS=1
//   ./test_router_equivalence --gtest_filter='*SeedGoldens' | grep '^    {'
//   ./test_router_equivalence --gtest_filter='*FinalOutputs*' | grep '^    {'
//
// and paste each output into its table (kGoldens, then kFinalGoldens).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/route/sabre.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/context.h"

namespace nassc {
namespace {

/** FNV-1a over the routed gate stream and the layouts. */
class Fnv
{
  public:
    void
    mix_u64(std::uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (v >> (8 * byte)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }

    void
    mix_double(double x)
    {
        std::uint64_t v;
        std::memcpy(&v, &x, sizeof(v));
        mix_u64(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t
routing_fingerprint(const RoutingResult &res)
{
    Fnv f;
    for (const Gate &g : res.circuit.gates()) {
        f.mix_u64(static_cast<std::uint64_t>(g.kind));
        f.mix_u64(static_cast<std::uint64_t>(g.swap_orient) + 2);
        for (int q : g.qubits)
            f.mix_u64(static_cast<std::uint64_t>(q));
        for (double p : g.params)
            f.mix_double(p);
    }
    for (int p : res.initial_l2p)
        f.mix_u64(static_cast<std::uint64_t>(p));
    for (int p : res.final_l2p)
        f.mix_u64(static_cast<std::uint64_t>(p));
    return f.value();
}

struct Config
{
    const char *tag;
    RoutingAlgorithm algorithm;
    bool use_decay;
    bool noise_aware;
};

constexpr Config kConfigs[] = {
    {"sabre/decay/hops", RoutingAlgorithm::kSabre, true, false},
    {"sabre/nodecay/noise", RoutingAlgorithm::kSabre, false, true},
    {"nassc/decay/hops", RoutingAlgorithm::kNassc, true, false},
    {"nassc/nodecay/noise", RoutingAlgorithm::kNassc, false, true},
};

struct Golden
{
    const char *circuit;
    const char *config;
    RoutingStats stats;
    std::uint64_t fingerprint;
};

// clang-format off
const Golden kGoldens[] = {
    {"grover_n4", "sabre/decay/hops", {43, 0, 0, 0, 0, 0, 0}, 0xffc5126c5e224f57ull},
    {"grover_n4", "sabre/nodecay/noise", {52, 0, 0, 0, 0, 0, 0}, 0x700fadf0f2eacc54ull},
    {"grover_n4", "nassc/decay/hops", {31, 17, 24, 17, 0, 33, 0}, 0x50ca2b6c77ce0d06ull},
    {"grover_n4", "nassc/nodecay/noise", {29, 22, 22, 19, 3, 35, 0}, 0xb832d6afd77c6360ull},
    {"grover_n6", "sabre/decay/hops", {215, 0, 0, 0, 0, 0, 0}, 0x7a8d12302d3bf046ull},
    {"grover_n6", "sabre/nodecay/noise", {204, 0, 0, 0, 0, 0, 0}, 0x9dc0ce192f703db6ull},
    {"grover_n6", "nassc/decay/hops", {185, 93, 97, 93, 0, 165, 0}, 0x68703b1316114d10ull},
    {"grover_n6", "nassc/nodecay/noise", {193, 87, 91, 87, 0, 158, 0}, 0x34092e6bf17771dbull},
    {"grover_n8", "sabre/decay/hops", {733, 0, 0, 0, 0, 0, 0}, 0x8c495334138c3cb8ull},
    {"grover_n8", "sabre/nodecay/noise", {985, 0, 0, 0, 0, 0, 0}, 0xbf77a545fdd6919cull},
    {"grover_n8", "nassc/decay/hops", {727, 356, 343, 341, 15, 550, 0}, 0xee508ad625700ef3ull},
    {"grover_n8", "nassc/nodecay/noise", {902, 358, 355, 346, 12, 560, 0}, 0x65391c667be97c97ull},
    {"vqe_n8", "sabre/decay/hops", {85, 0, 0, 0, 0, 0, 0}, 0x96796306c5e435f7ull},
    {"vqe_n8", "sabre/nodecay/noise", {107, 0, 0, 0, 0, 0, 0}, 0x1a482dcffe224328ull},
    {"vqe_n8", "nassc/decay/hops", {73, 56, 41, 55, 1, 17, 0}, 0x71c019e10b48cae7ull},
    {"vqe_n8", "nassc/nodecay/noise", {80, 69, 67, 69, 0, 20, 0}, 0xb396697087d3a8caull},
    {"vqe_n12", "sabre/decay/hops", {260, 0, 0, 0, 0, 0, 0}, 0xaa62b56d81303a91ull},
    {"vqe_n12", "sabre/nodecay/noise", {315, 0, 0, 0, 0, 0, 0}, 0xe1f0f1f2450eefe1ull},
    {"vqe_n12", "nassc/decay/hops", {268, 162, 137, 153, 9, 29, 0}, 0xd74792b38d51d1ebull},
    {"vqe_n12", "nassc/nodecay/noise", {344, 168, 135, 128, 40, 20, 0}, 0x4f942a03794b337full},
    {"bv_n19", "sabre/decay/hops", {17, 0, 0, 0, 0, 0, 0}, 0xaaf5b08d8667a516ull},
    {"bv_n19", "sabre/nodecay/noise", {33, 0, 0, 0, 0, 0, 0}, 0x9631b2045e5249daull},
    {"bv_n19", "nassc/decay/hops", {23, 9, 7, 7, 2, 7, 0}, 0x29c0b7929cc80c3bull},
    {"bv_n19", "nassc/nodecay/noise", {28, 14, 11, 13, 1, 13, 0}, 0xc944bf30612d1b7eull},
    {"qft_n15", "sabre/decay/hops", {155, 0, 0, 0, 0, 0, 0}, 0xd6772d32acf3addeull},
    {"qft_n15", "sabre/nodecay/noise", {177, 0, 0, 0, 0, 0, 0}, 0x75ec18e733ef591eull},
    {"qft_n15", "nassc/decay/hops", {169, 13, 43, 0, 13, 0, 0}, 0x0e5e4a38b0a82348ull},
    {"qft_n15", "nassc/nodecay/noise", {168, 30, 38, 0, 30, 0, 0}, 0x1d6e23653ac441f9ull},
    {"qft_n20", "sabre/decay/hops", {318, 0, 0, 0, 0, 0, 0}, 0xf8ea8f6ddce453adull},
    {"qft_n20", "sabre/nodecay/noise", {379, 0, 0, 0, 0, 0, 0}, 0xf21f6c5ef960505cull},
    {"qft_n20", "nassc/decay/hops", {304, 42, 71, 0, 42, 0, 0}, 0xb6a9be76001bda55ull},
    {"qft_n20", "nassc/nodecay/noise", {476, 58, 113, 0, 58, 0, 0}, 0xd3dda62e6af59affull},
    {"qpe_n9", "sabre/decay/hops", {39, 0, 0, 0, 0, 0, 0}, 0x0a8f96a2688d3fa9ull},
    {"qpe_n9", "sabre/nodecay/noise", {39, 0, 0, 0, 0, 0, 0}, 0xd12e2295a7cae2a9ull},
    {"qpe_n9", "nassc/decay/hops", {47, 5, 23, 0, 5, 0, 0}, 0x31e948cbcefa76ddull},
    {"qpe_n9", "nassc/nodecay/noise", {48, 2, 23, 0, 2, 0, 0}, 0x15f262be7d556be1ull},
    {"adder_n10", "sabre/decay/hops", {25, 0, 0, 0, 0, 0, 0}, 0x72a41105b2a578faull},
    {"adder_n10", "sabre/nodecay/noise", {30, 0, 0, 0, 0, 0, 0}, 0xcc39b6df137d50e0ull},
    {"adder_n10", "nassc/decay/hops", {21, 8, 8, 8, 0, 12, 0}, 0xc3ee2e6ee7bb229dull},
    {"adder_n10", "nassc/nodecay/noise", {22, 9, 9, 9, 0, 12, 0}, 0x025a58b4086e805full},
    {"multiplier_n25", "sabre/decay/hops", {649, 0, 0, 0, 0, 0, 0}, 0xd147df97f9a5a5abull},
    {"multiplier_n25", "sabre/nodecay/noise", {928, 0, 0, 0, 0, 0, 0}, 0xa5cab9bdd99d8aafull},
    {"multiplier_n25", "nassc/decay/hops", {632, 281, 281, 281, 0, 407, 0}, 0x58feb58b9a923551ull},
    {"multiplier_n25", "nassc/nodecay/noise", {1351, 296, 291, 290, 6, 440, 0}, 0xd5df98a8875b9a77ull},
    {"sqn_258", "sabre/decay/hops", {2662, 0, 0, 0, 0, 0, 0}, 0x78a18f11e3c73acaull},
    {"sqn_258", "sabre/nodecay/noise", {4387, 0, 0, 0, 0, 0, 0}, 0x9ad06189d32c9277ull},
    {"sqn_258", "nassc/decay/hops", {2665, 1180, 1149, 1150, 30, 1900, 0}, 0xb1b6b08837b6eeecull},
    {"sqn_258", "nassc/nodecay/noise", {4646, 1381, 1323, 1313, 68, 2133, 0}, 0xd32cabb8cd0f7124ull},
    {"rd84_253", "sabre/decay/hops", {3760, 0, 0, 0, 0, 0, 0}, 0x5cac92044ad884abull},
    {"rd84_253", "sabre/nodecay/noise", {5940, 0, 0, 0, 0, 0, 0}, 0x8886f950b35c5106ull},
    {"rd84_253", "nassc/decay/hops", {3747, 1627, 1588, 1588, 39, 2598, 0}, 0xf7b5b3389e6ab203ull},
    {"rd84_253", "nassc/nodecay/noise", {6210, 1871, 1819, 1800, 71, 2877, 0}, 0x110c1ccee103f64full},
    {"co14_215", "sabre/decay/hops", {5571, 0, 0, 0, 0, 0, 0}, 0xf14d09c9779154e8ull},
    {"co14_215", "sabre/nodecay/noise", {8749, 0, 0, 0, 0, 0, 0}, 0x90e8914924adc299ull},
    {"co14_215", "nassc/decay/hops", {5484, 2157, 2131, 2131, 26, 3503, 0}, 0xb009155854124646ull},
    {"co14_215", "nassc/nodecay/noise", {10101, 2495, 2364, 2361, 134, 3799, 0}, 0x3f728a03338dcf61ull},
    {"sym9_193", "sabre/decay/hops", {11244, 0, 0, 0, 0, 0, 0}, 0x0795d24c55ebb134ull},
    {"sym9_193", "sabre/nodecay/noise", {15309, 0, 0, 0, 0, 0, 0}, 0x01a81ade71e4b28eull},
    {"sym9_193", "nassc/decay/hops", {11013, 4351, 4282, 4283, 68, 6960, 0}, 0x189d7eaed4bf5a50ull},
    {"sym9_193", "nassc/nodecay/noise", {15823, 4691, 4503, 4479, 212, 7279, 0}, 0xb8d2cd265a3c687full},
};
// clang-format on

RoutingResult
route_one(const QuantumCircuit &raw, unsigned seed, const Config &cfg)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(raw);

    RoutingOptions opts;
    opts.algorithm = cfg.algorithm;
    opts.use_decay = cfg.use_decay;
    opts.seed = seed;

    const auto dist = cfg.noise_aware ? noise_aware_distance(dev)
                                      : hop_distance(dev.coupling);
    Layout init = sabre_initial_layout(logical, dev.coupling, dist, opts);
    return route_circuit(logical, dev.coupling, dist, init, opts);
}

TEST(RouterEquivalence, TableISuiteMatchesSeedGoldens)
{
    const bool regen = std::getenv("NASSC_REGEN_GOLDENS") != nullptr;
    auto suite = table_benchmarks();

    std::size_t golden_idx = 0;
    for (std::size_t ci = 0; ci < suite.size(); ++ci) {
        for (const Config &cfg : kConfigs) {
            RoutingResult res =
                route_one(suite[ci].circuit, static_cast<unsigned>(ci), cfg);
            const RoutingStats &s = res.stats;
            std::uint64_t fp = routing_fingerprint(res);

            if (regen) {
                std::printf("    {\"%s\", \"%s\", {%d, %d, %d, %d, %d, %d, "
                            "%d}, 0x%016" PRIx64 "ull},\n",
                            suite[ci].name.c_str(), cfg.tag, s.num_swaps,
                            s.flagged_swaps, s.c2q_hits, s.commute1_hits,
                            s.commute2_hits, s.moved_1q, s.forced_moves, fp);
                continue;
            }

            ASSERT_LT(golden_idx, std::size(kGoldens))
                << "golden table shorter than the suite — regenerate";
            const Golden &g = kGoldens[golden_idx++];
            SCOPED_TRACE(std::string(suite[ci].name) + " / " + cfg.tag);
            ASSERT_STREQ(g.circuit, suite[ci].name.c_str());
            ASSERT_STREQ(g.config, cfg.tag);
            EXPECT_EQ(g.stats.num_swaps, s.num_swaps);
            EXPECT_EQ(g.stats.flagged_swaps, s.flagged_swaps);
            EXPECT_EQ(g.stats.c2q_hits, s.c2q_hits);
            EXPECT_EQ(g.stats.commute1_hits, s.commute1_hits);
            EXPECT_EQ(g.stats.commute2_hits, s.commute2_hits);
            EXPECT_EQ(g.stats.moved_1q, s.moved_1q);
            EXPECT_EQ(g.stats.forced_moves, s.forced_moves);
            EXPECT_EQ(g.fingerprint, fp)
                << "routed gate stream / layouts diverged from seed";
        }
    }
    if (!regen) {
        EXPECT_EQ(golden_idx, std::size(kGoldens));
    }
}

struct FinalGolden
{
    const char *circuit;
    const char *config;
    int cx_total;
    int depth;
    std::uint64_t fingerprint;
};

struct FinalConfig
{
    const char *tag;
    RoutingAlgorithm router;
    bool noise_aware;
};

constexpr FinalConfig kFinalConfigs[] = {
    {"sabre", RoutingAlgorithm::kSabre, false},
    {"sabre_noise", RoutingAlgorithm::kSabre, true},
    {"nassc", RoutingAlgorithm::kNassc, false},
    {"nassc_noise", RoutingAlgorithm::kNassc, true},
};

// clang-format off
const FinalGolden kFinalGoldens[] = {
    {"grover_n4", "sabre", 157, 377, 0x76c3a1ebe4c3c74bull},
    {"grover_n4", "sabre_noise", 166, 354, 0x02930023467d5f68ull},
    {"grover_n4", "nassc", 141, 349, 0x073e62072fa74c26ull},
    {"grover_n4", "nassc_noise", 139, 311, 0x66bc313e0eaa40bbull},
    {"grover_n6", "sabre", 837, 1322, 0xc99f5d0e748cc2d2ull},
    {"grover_n6", "sabre_noise", 1076, 1509, 0x5b2cc77d4e1eada6ull},
    {"grover_n6", "nassc", 767, 1095, 0x5709b70787a9b374ull},
    {"grover_n6", "nassc_noise", 1140, 1380, 0x5ae9a4478bfa356cull},
    {"grover_n8", "sabre", 2929, 4410, 0x309c48ee88c9ca6full},
    {"grover_n8", "sabre_noise", 3421, 4801, 0x6aeff447efe40ef8ull},
    {"grover_n8", "nassc", 2683, 3465, 0xcec2cf309a600318ull},
    {"grover_n8", "nassc_noise", 3232, 4105, 0x12523fc6c3cb367bull},
    {"vqe_n8", "sabre", 315, 271, 0x8ee403da710eab35ull},
    {"vqe_n8", "sabre_noise", 378, 387, 0xafc918aff1dfc8f6ull},
    {"vqe_n8", "nassc", 268, 206, 0xbc1cbd2a8285b63cull},
    {"vqe_n8", "nassc_noise", 241, 185, 0x61cfb1647f5f04a1ull},
    {"vqe_n12", "sabre", 840, 531, 0x4cc6880db204a20aull},
    {"vqe_n12", "sabre_noise", 989, 632, 0xdf745062d3b0d9ebull},
    {"vqe_n12", "nassc", 629, 326, 0xb652fb395c168352ull},
    {"vqe_n12", "nassc_noise", 496, 253, 0x179893838d3ab666ull},
    {"bv_n19", "sabre", 62, 95, 0x8fa6906042815bdaull},
    {"bv_n19", "sabre_noise", 93, 120, 0x6c9936e2405fb695ull},
    {"bv_n19", "nassc", 54, 64, 0x8b8d64d53fac8045ull},
    {"bv_n19", "nassc_noise", 84, 88, 0x1eab71b4f9760cc0ull},
    {"qft_n15", "sabre", 603, 673, 0x2a502f3c8ac2b175ull},
    {"qft_n15", "sabre_noise", 718, 786, 0x0342654fda567f95ull},
    {"qft_n15", "nassc", 567, 707, 0xabbb3a53e18e2540ull},
    {"qft_n15", "nassc_noise", 620, 692, 0x7ee823aa884eb195ull},
    {"qft_n20", "sabre", 1035, 891, 0x561362008486aa4eull},
    {"qft_n20", "sabre_noise", 1347, 1052, 0xacbd3b25f6a7019cull},
    {"qft_n20", "nassc", 1065, 1101, 0x54f5d76879dfeac0ull},
    {"qft_n20", "nassc_noise", 1090, 1255, 0x1eac3278e56437a7ull},
    {"qpe_n9", "sabre", 119, 248, 0x00b59c4cca777f39ull},
    {"qpe_n9", "sabre_noise", 138, 219, 0xe753332be18d0689ull},
    {"qpe_n9", "nassc", 127, 244, 0x887ed7bafd7d8f23ull},
    {"qpe_n9", "nassc_noise", 159, 245, 0x9010b80c0ad37309ull},
    {"adder_n10", "sabre", 124, 194, 0xa7b8b29f4cd2a26dull},
    {"adder_n10", "sabre_noise", 174, 243, 0x4dcf88e6af1c8b88ull},
    {"adder_n10", "nassc", 109, 150, 0x5c13e0a857a4bfd3ull},
    {"adder_n10", "nassc_noise", 307, 322, 0xbc1b6a1639f72da0ull},
    {"multiplier_n25", "sabre", 2302, 2738, 0xb364c73759a8eb1bull},
    {"multiplier_n25", "sabre_noise", 3778, 3516, 0x5ea7d5176e304ddaull},
    {"multiplier_n25", "nassc", 2158, 2024, 0x56fb0333ff6ed127ull},
    {"multiplier_n25", "nassc_noise", 4104, 3782, 0x43fb81785dd2126full},
    {"sqn_258", "sabre", 10223, 14577, 0x7b8c749fc72dd76aull},
    {"sqn_258", "sabre_noise", 15406, 17599, 0xe135a4fcc45a413bull},
    {"sqn_258", "nassc", 10010, 11574, 0xa7f725cfc4d9a028ull},
    {"sqn_258", "nassc_noise", 14689, 14993, 0x75af94c63e29bf33ull},
    {"rd84_253", "sabre", 14595, 19701, 0xeaff0e497d4382a2ull},
    {"rd84_253", "sabre_noise", 20139, 22989, 0x854a44d7d960589aull},
    {"rd84_253", "nassc", 14086, 15621, 0xd3c2ac4f3b627540ull},
    {"rd84_253", "nassc_noise", 20198, 20971, 0x39fb65de71b23976ull},
    {"co14_215", "sabre", 21875, 27113, 0x9bfda6568e2ee01bull},
    {"co14_215", "sabre_noise", 27707, 30304, 0x46c097f01cf5d367ull},
    {"co14_215", "nassc", 20789, 21365, 0x8f58bc713f557c56ull},
    {"co14_215", "nassc_noise", 29108, 28247, 0x6d2cb02ac05c8582ull},
    {"sym9_193", "sabre", 37310, 51984, 0xfe3f5fdbca7a86f5ull},
    {"sym9_193", "sabre_noise", 54711, 57727, 0xb5f0c4de665649cdull},
    {"sym9_193", "nassc", 35246, 40548, 0x74e6c7c443d207caull},
    {"sym9_193", "nassc_noise", 56080, 54920, 0x729bc380cc94c58bull},
};
// clang-format on

TEST(RouterEquivalence, TableIFinalOutputsMatchGoldens)
{
    const bool regen = std::getenv("NASSC_REGEN_GOLDENS") != nullptr;
    auto suite = table_benchmarks();
    auto dev = std::make_shared<const Backend>(montreal_backend());

    // Transpile results are bit-identical across thread counts, so the
    // 60 full transpiles run in parallel as tickets on one context.
    TranspileContext ctx;
    std::vector<TranspileTicket> tickets;
    for (const auto &bench : suite) {
        for (const FinalConfig &cfg : kFinalConfigs) {
            TranspileOptions opts;
            opts.router = cfg.router;
            opts.noise_aware = cfg.noise_aware;
            tickets.push_back(ctx.submit(bench.circuit, dev, opts));
        }
    }

    std::size_t golden_idx = 0;
    for (std::size_t ci = 0; ci < suite.size(); ++ci) {
        for (const FinalConfig &cfg : kFinalConfigs) {
            SCOPED_TRACE(suite[ci].name + " / " + cfg.tag);
            const SharedTranspileResult result = tickets[golden_idx].get();
            const TranspileResult &r = *result;
            const std::uint64_t fp = r.circuit.fingerprint();

            if (regen) {
                std::printf("    {\"%s\", \"%s\", %d, %d, 0x%016" PRIx64
                            "ull},\n",
                            suite[ci].name.c_str(), cfg.tag, r.cx_total,
                            r.depth, fp);
                ++golden_idx;
                continue;
            }

            ASSERT_LT(golden_idx, std::size(kFinalGoldens))
                << "final golden table shorter than the suite — regenerate";
            const FinalGolden &g = kFinalGoldens[golden_idx++];
            ASSERT_STREQ(g.circuit, suite[ci].name.c_str());
            ASSERT_STREQ(g.config, cfg.tag);
            EXPECT_EQ(g.cx_total, r.cx_total);
            EXPECT_EQ(g.depth, r.depth);
            EXPECT_EQ(g.fingerprint, fp)
                << "final transpiled circuit diverged from the golden";
        }
    }
    if (!regen) {
        EXPECT_EQ(golden_idx, std::size(kFinalGoldens));
    }
}

} // namespace
} // namespace nassc
