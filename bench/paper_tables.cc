// Reproduces Tables I-IV: additional CNOTs (Table I) and circuit depth
// (Table II) of Qiskit+NASSC vs Qiskit+SABRE on ibmq_montreal, and
// additional CNOTs on the 25-qubit linear chain (Table III) and the 5x5
// grid (Table IV), with transpile-time ratios (paper Sec. VI-A to VI-C).
//
// One Sweep holds every (device, benchmark, router, seed) job, so the
// three devices share the workers and each computes its distance matrix
// once.  Tables I and II print from the same montreal cells.
//
// --csv PATH writes the four tables next to PATH: its ".csv" suffix, if
// any, is replaced by "_table1.csv" ... "_table4.csv", so
// `--csv out/paper.csv` writes out/paper_table1.csv to
// out/paper_table4.csv.  Each has the columns
//   name,qubits,M_orig,M_sabre,M_add_sabre,t_sabre,
//   M_nassc,M_add_nassc,t_nassc,delta_total,delta_add,time_ratio
// with M = depth for Table II and cx for the others.

#include "bench_common.h"

using namespace nassc;
using namespace nassc::bench;

namespace {

/** One circuit's SABRE and NASSC cells on one device. */
struct Row
{
    const BenchmarkCase *bc;
    int base_cx, base_depth;
    Cell sabre, nassc;
};

/** One paper table: CNOTs or depth of one device's rows. */
struct Table
{
    const char *title;
    const char *csv_suffix;
    std::size_t device; ///< index into the device list
    bool depth;         ///< circuit depth instead of CNOTs
    const char *paper_total, *paper_add;
    const char *paper_time; ///< null where the paper gives no time ratio
};

void
print_table(const Table &t, const Backend &dev, const std::vector<Row> &rows,
            const Args &args)
{
    const std::string m = t.depth ? "D" : "CX";
    std::printf("\n%s: %s, SABRE vs NASSC on %s (%d seeds/cell)\n\n",
                t.title, t.depth ? "circuit depth" : "additional CNOTs",
                dev.name.c_str(), args.seeds);
    std::printf("%-15s %4s %9s | %9s %9s %8s | %9s %9s %8s | %8s %8s %7s\n",
                "name", "#q", (m + "orig").c_str(), (m + "sabre").c_str(),
                (m + "add").c_str(), "t(s)", (m + "nassc").c_str(),
                (m + "add").c_str(), "t(s)", "dTotal", "dAdd", "t_ratio");

    const char *col = t.depth ? "depth" : "cx";
    char line[512];
    std::snprintf(line, sizeof(line),
                  "name,qubits,%s_orig,%s_sabre,%s_add_sabre,t_sabre,"
                  "%s_nassc,%s_add_nassc,t_nassc,delta_total,delta_add,"
                  "time_ratio",
                  col, col, col, col, col);
    std::vector<std::string> csv{line};

    GeoMean gm_total, gm_add;
    double time_ratio_log = 0.0;
    for (const Row &r : rows) {
        const int orig = t.depth ? r.base_depth : r.base_cx;
        const double s_total =
            t.depth ? r.sabre.depth_total : r.sabre.cx_total;
        const double s_add = t.depth ? r.sabre.depth_add : r.sabre.cx_add;
        const double n_total =
            t.depth ? r.nassc.depth_total : r.nassc.cx_total;
        const double n_add = t.depth ? r.nassc.depth_add : r.nassc.cx_add;

        const double d_total = 100.0 * (1.0 - n_total / s_total);
        const double d_add =
            s_add > 0.0 ? 100.0 * (1.0 - n_add / s_add) : 0.0;
        const double t_ratio = r.nassc.seconds / r.sabre.seconds;
        gm_total.add_ratio(n_total, s_total);
        gm_add.add_ratio(n_add, s_add);
        time_ratio_log += std::log(t_ratio);

        const int qubits = r.bc->circuit.num_qubits();
        std::printf("%-15s %4d %9d | %9.1f %9.1f %8.3f | %9.1f %9.1f %8.3f "
                    "| %7.2f%% %7.2f%% %7.2f\n",
                    r.bc->name.c_str(), qubits, orig, s_total, s_add,
                    r.sabre.seconds, n_total, n_add, r.nassc.seconds,
                    d_total, d_add, t_ratio);
        std::snprintf(line, sizeof(line),
                      "%s,%d,%d,%.1f,%.1f,%.4f,%.1f,%.1f,%.4f,%.2f,%.2f,%.2f",
                      r.bc->name.c_str(), qubits, orig, s_total, s_add,
                      r.sabre.seconds, n_total, n_add, r.nassc.seconds,
                      d_total, d_add, t_ratio);
        csv.push_back(line);
    }

    const char *what = t.depth ? "depth" : "CNOT";
    std::printf("\nGeometric mean d%s_total: %.2f%%  (paper: %s)\n", what,
                gm_total.reduction_percent(), t.paper_total);
    std::printf("Geometric mean d%s_add:   %.2f%%  (paper: %s)\n", what,
                gm_add.reduction_percent(), t.paper_add);
    if (t.paper_time)
        std::printf("Geometric mean time ratio:  %.2fx    (paper: %s)\n",
                    std::exp(time_ratio_log / rows.size()), t.paper_time);
    std::fflush(stdout);

    if (!args.csv.empty()) {
        std::string stem = args.csv;
        if (stem.size() >= 4 && stem.compare(stem.size() - 4, 4, ".csv") == 0)
            stem.resize(stem.size() - 4);
        write_csv(stem + "_" + t.csv_suffix + ".csv", csv);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv);
    const std::vector<std::shared_ptr<const Backend>> devices = {
        std::make_shared<Backend>(montreal_backend()),
        std::make_shared<Backend>(linear_backend(25)),
        std::make_shared<Backend>(grid_backend(5, 5)),
    };
    const Table tables[] = {
        {"Table I", "table1", 0, false, "13.25%", "21.30%", "1.32x"},
        {"Table II", "table2", 0, true, "6.05%", "7.61%", nullptr},
        {"Table III", "table3", 1, false, "21.92%", "34.65%", nullptr},
        {"Table IV", "table4", 2, false, "15.13%", "28.10%", nullptr},
    };
    const std::vector<BenchmarkCase> benchmarks = table_benchmarks();

    // Submit every device's sweep before folding any of it.
    Sweep sweep(args.threads);
    std::vector<std::vector<std::size_t>> cases(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
        for (std::size_t b = 0; b < benchmarks.size(); ++b) {
            const BenchmarkCase &bc = benchmarks[b];
            if (bc.circuit.num_qubits() > devices[d]->coupling.num_qubits())
                continue;
            cases[d].push_back(b);
            const std::string tag = devices[d]->name + "/" + bc.name;
            sweep.add_cell(tag + "/sabre", bc.circuit, devices[d],
                           RoutingAlgorithm::kSabre, args.seeds);
            sweep.add_cell(tag + "/nassc", bc.circuit, devices[d],
                           RoutingAlgorithm::kNassc, args.seeds);
        }
    }

    // The optimization-only baseline depends only on the circuit.
    std::vector<TranspileResult> base;
    for (const BenchmarkCase &bc : benchmarks)
        base.push_back(optimize_only(bc.circuit));

    for (std::size_t d = 0; d < devices.size(); ++d) {
        std::vector<Row> rows;
        for (std::size_t b : cases[d]) {
            const int cx = base[b].cx_total, depth = base[b].depth;
            Cell sabre = sweep.next_cell(cx, depth);
            Cell nassc = sweep.next_cell(cx, depth);
            rows.push_back({&benchmarks[b], cx, depth, sabre, nassc});
        }
        for (const Table &t : tables)
            if (t.device == d)
                print_table(t, *devices[d], rows, args);
    }

    std::printf("\nbatch: %zu jobs in %.2fs wall, %zu distance matrix "
                "computation(s)\n",
                sweep.jobs(), sweep.seconds(),
                sweep.distance_computations());
    return 0;
}
