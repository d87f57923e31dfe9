// perfbench: the repository benchmark harness.
//
//   perfbench --workload table1_compile|heavyhex_route|wire_mix
//             --seed N --seconds S --trace 0|1 [--nasscd PATH]
//             [--run-dir DIR]
//
// Prints one `name value unit` line per metric, then, as the last line,
// the JSON result {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer split.  Exits 1 when any output check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>

#include "bench.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--nasscd PATH] [--run-dir DIR]\n");
    std::exit(2);
}

pb::Args
parse_args(int argc, char **argv)
{
    pb::Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::atof(v);
        else if (arg == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--nasscd")
            a.nasscd = v;
        else if (arg == "--run-dir")
            a.run_dir = v;
        else
            usage();
    }
    if (a.workload.empty() || a.seconds <= 0)
        usage();
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const pb::Args args = parse_args(argc, argv);
    ::mkdir(args.run_dir.c_str(), 0755);
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d build=%s %s "
                "native=%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                PERFBENCH_NATIVE);
    pb::Report report;
    pb::Outcome out;
    pb::ExactCounts exact;
    try {
        if (args.workload == "wire_mix") {
            if (args.nasscd.empty())
                usage();
            pb::run_wire_mix(args, report, out, exact);
        } else {
            pb::run_compile_workload(args, report, out, exact);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    exact.check_against_previous(args.run_dir, args, out);

    report.print_table();
    const double fail_ratio =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0;
    std::printf("  %-34s %16.6f %s   (%ld of %ld)\n", "fail_ratio",
                fail_ratio, "ratio", out.failed, out.attempted);
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("%s\n",
                report.json(correct, out.attempted, out.failed).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
