// TranspileService demo: several concurrent clients fire a mixed,
// partly overlapping workload at one service and the dedup machinery
// does its job — in-flight duplicates coalesce to a single transpile,
// repeats hit the LRU result cache, and every client still gets a
// bit-identical result.
//
//   $ ./transpile_service_demo
//   $ ./transpile_service_demo --clients 8 --repeat 4 --workers 4
//   $ ./transpile_service_demo --backend grid --cache 8
//
// Options:
//   --backend montreal|linear|grid   target device (default montreal)
//   --clients N                      concurrent client threads (default 4)
//   --repeat N                       times each client repeats its
//                                    request list (default 3)
//   --workers N                      workers of the service's own
//                                    scheduler (default 4; 0 = the
//                                    shared pool)
//   --cache N                        result-cache capacity, 0 = off
//                                    (default 64)
//
// An unknown flag or backend, a missing value, or a value that is not
// a whole integer in range prints a usage line and exits 2.

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nassc/circuits/library.h"
#include "nassc/service/scheduler.h"
#include "nassc/service/transpile_service.h"
#include "nassc/topo/backends.h"

using namespace nassc;

namespace {

[[noreturn]] void
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--backend montreal|linear|grid] "
                 "[--clients N] [--repeat N] [--workers N] [--cache N]\n",
                 argv0, why.c_str(), argv0);
    std::exit(2);
}

/** The whole token as an integer >= `lo`; usage and exit 2 otherwise.
 *  An unsigned T takes no sign, so "-1" cannot wrap to SIZE_MAX. */
template <typename T>
T
parse_count(const char *argv0, const char *flag, const char *text, T lo)
{
    T v{};
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < lo)
        usage(argv0,
              std::string("bad value for ") + flag + ": '" + text + "'");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string backend_name = "montreal";
    int clients = 4;
    int repeat = 3;
    int workers = 4;
    std::size_t cache = 64;

    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        auto value = [&] {
            if (i + 1 >= argc)
                usage(argv[0], std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(flag, "--backend"))
            backend_name = value();
        else if (!std::strcmp(flag, "--clients"))
            clients = parse_count(argv[0], flag, value(), 1);
        else if (!std::strcmp(flag, "--repeat"))
            repeat = parse_count(argv[0], flag, value(), 1);
        else if (!std::strcmp(flag, "--workers"))
            workers = parse_count(argv[0], flag, value(), 0);
        else if (!std::strcmp(flag, "--cache"))
            cache = parse_count<std::size_t>(argv[0], flag, value(), 0);
        else
            usage(argv[0], std::string("unknown argument: ") + flag);
    }
    if (backend_name != "montreal" && backend_name != "linear" &&
        backend_name != "grid")
        usage(argv[0], "unknown backend '" + backend_name + "'");

    auto device = std::make_shared<const Backend>(
        backend_name == "linear" ? linear_backend(25)
        : backend_name == "grid" ? grid_backend(5, 5)
                                 : montreal_backend());

    // A mixed menu: different circuits, routers, and seeds.  Clients
    // draw rotated slices of it, so at any moment several clients are
    // asking for the SAME key (coalescing) while later rounds re-ask
    // for completed ones (cache hits).
    struct MenuItem
    {
        std::string name;
        QuantumCircuit circuit;
        TranspileOptions options;
    };
    std::vector<MenuItem> menu;
    auto add = [&](const std::string &name, QuantumCircuit qc,
                   RoutingAlgorithm router, unsigned seed) {
        TranspileOptions opts;
        opts.router = router;
        opts.seed = seed;
        menu.push_back({name, std::move(qc), opts});
    };
    add("qft8/nassc", qft(8), RoutingAlgorithm::kNassc, 0);
    add("qft8/sabre", qft(8), RoutingAlgorithm::kSabre, 0);
    add("ghz12/sabre", ghz(12), RoutingAlgorithm::kSabre, 1);
    add("bv10/nassc", bernstein_vazirani(10, 0x155),
        RoutingAlgorithm::kNassc, 0);
    add("vqe8/sabre", vqe_linear(8), RoutingAlgorithm::kSabre, 2);
    add("qaoa10/nassc", qaoa_maxcut(10, 2, 5), RoutingAlgorithm::kNassc, 1);

    ServiceOptions sopts;
    sopts.cache_capacity = cache;
    if (workers > 0)
        sopts.scheduler = std::make_shared<Scheduler>(workers);
    TranspileService service(sopts);

    std::printf("service demo: %d client(s) x %d round(s) over %zu "
                "distinct requests on %s (%d workers, cache %zu)\n\n",
                clients, repeat, menu.size(), device->name.c_str(),
                service.scheduler().num_threads(), cache);

    std::mutex print_mu;
    std::atomic<int> failures{0};
    auto client = [&](int id) {
        for (int round = 0; round < repeat; ++round) {
            // Submit this round's whole slice first, then collect:
            // overlap is what exercises coalescing.
            std::vector<TranspileTicket> tickets;
            std::vector<const MenuItem *> items;
            for (std::size_t k = 0; k < menu.size(); ++k) {
                const MenuItem &item =
                    menu[(k + static_cast<std::size_t>(id)) % menu.size()];
                tickets.push_back(
                    service.submit(item.circuit, device, item.options));
                items.push_back(&item);
            }
            for (std::size_t k = 0; k < tickets.size(); ++k) {
                const char *how =
                    tickets[k].source() == TicketSource::kCacheHit
                        ? "cache-hit"
                    : tickets[k].source() == TicketSource::kCoalesced
                        ? "coalesced"
                        : "transpiled";
                try {
                    SharedTranspileResult res = tickets[k].get();
                    std::lock_guard<std::mutex> lk(print_mu);
                    std::printf(
                        "client %d round %d %-14s %-10s cx=%-4d "
                        "depth=%-4d swaps=%d\n",
                        id, round, items[k]->name.c_str(), how,
                        res->cx_total, res->depth,
                        res->routing_stats.num_swaps);
                } catch (const std::exception &e) {
                    failures.fetch_add(1);
                    std::lock_guard<std::mutex> lk(print_mu);
                    std::printf("client %d round %d %-14s FAILED: %s\n", id,
                                round, items[k]->name.c_str(), e.what());
                }
            }
        }
    };

    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c)
        threads.emplace_back(client, c);
    client(0);
    for (std::thread &t : threads)
        t.join();

    const ServiceStats stats = service.stats();
    std::printf("\n%llu requests: %llu cache hit(s), %llu coalesced, "
                "%llu transpile(s) executed (%llu failed), "
                "%llu eviction(s), %zu cached\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.transpiles_ok +
                                                stats.transpiles_failed),
                static_cast<unsigned long long>(stats.transpiles_failed),
                static_cast<unsigned long long>(stats.evictions_capacity +
                                                stats.evictions_invalidated),
                stats.cache_size);
    std::printf("dedup saved %llu of %llu requests "
                "(every key transpiled once, served many times)\n",
                static_cast<unsigned long long>(stats.cache_hits +
                                                stats.coalesced),
                static_cast<unsigned long long>(stats.requests));
    return failures.load() == 0 ? 0 : 1;
}
