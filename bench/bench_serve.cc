// bench_serve: sustained-throughput harness for the serving stack (Server
// + ProtocolService over a DatasetCatalog). Builds a fixed query battery,
// boots an in-process daemon on an ephemeral loopback TCP port, and serves
// the whole battery once per client count — the battery is split
// round-robin across the clients, so every pass does the same total work
// and the `threads` column (= concurrent clients) measures how the worker
// pool scales.
//
// Emits the machine-readable CSV tools/bench_to_json consumes. The
// checksum digests every response line after normalizing the
// order-dependent envelope fields (seq) and wall-clock timings — the
// battery is read-only, so the response *set* must be bit-identical at
// every concurrency level, and the checksum consistency gate is a
// concurrent-vs-serial bit-identity check over the full wire bytes.
//
//   bench_serve --n=20000 --dim=4 --groups=3 --lines=240
//       --clients=1,2,4,8 --workers=4 |
//     bench_to_json --out=BENCH_serve.json --min_speedup=serve:4:1.5

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/catalog.h"
#include "api/server.h"
#include "api/service.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/grouping.h"

namespace fairhms {
namespace {

/// Replaces the numeric value of every order- or clock-dependent field
/// with `T`, leaving the payload bytes to the digest. The warm_start
/// telemetry flag is stripped outright: whether a solve found a warm
/// memo hint depends on which queries happened to finish first, so it is
/// execution-history metadata, not payload — the hint is advisory and
/// the solution bytes are identical either way.
std::string NormalizeResponse(std::string s) {
  static const std::string kWarmStart = ", \"warm_start\": true";
  for (size_t pos; (pos = s.find(kWarmStart)) != std::string::npos;) {
    s.erase(pos, kWarmStart.size());
  }
  for (const char* key : {"seq", "solve_ms", "total_ms"}) {
    const std::string needle = std::string("\"") + key + "\": ";
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      const size_t start = pos + needle.size();
      size_t end = start;
      while (end < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[end])) ||
              std::strchr(".eE+-", s[end]) != nullptr)) {
        ++end;
      }
      s.replace(start, end - start, "T");
      pos = start + 1;
    }
  }
  return s;
}

/// One pipelined loopback client: a writer thread streams its share of the
/// battery while the caller's thread reads responses, so neither side can
/// deadlock on full socket buffers.
bool RunClient(int port, const std::vector<std::string>& lines,
               std::vector<std::string>* responses) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  std::thread writer([fd, &lines] {
    std::string payload;
    for (const std::string& line : lines) payload += line + "\n";
    size_t off = 0;
    while (off < payload.size()) {
      const ssize_t sent =
          ::send(fd, payload.data() + off, payload.size() - off, 0);
      if (sent <= 0) return;
      off += static_cast<size_t>(sent);
    }
  });
  bool ok = true;
  std::string buffer;
  char chunk[8192];
  while (responses->size() < lines.size()) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      ok = false;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(got));
    size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      responses->push_back(buffer.substr(0, pos));
      buffer.erase(0, pos + 1);
    }
  }
  writer.join();
  ::close(fd);
  return ok;
}

int Run(int argc, char** argv) {
  const cli::Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 20000));
  const int dim = static_cast<int>(flags.GetInt("dim", 4));
  const int groups = static_cast<int>(flags.GetInt("groups", 3));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const size_t lines = static_cast<size_t>(flags.GetInt("lines", 240));
  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  std::vector<int> client_counts;
  if (!bench::ParsePositiveInts("clients",
                                flags.GetString("clients", "1,2,4,8"),
                                &client_counts) ||
      !bench::CheckFlags(flags)) {
    return 1;
  }

  // The fixed read-only battery: a deterministic mix of algorithms, k and
  // alpha values across two catalog datasets, each line with a unique id.
  const char* const kAlgos[] = {"intcov", "bigreedy", "bigreedy+"};
  std::vector<std::string> battery;
  for (size_t i = 0; i < lines; ++i) {
    battery.push_back(StrFormat(
        "{\"id\": \"q%zu\", \"algorithm\": \"%s\", \"k\": %d, \"alpha\": "
        "0.%d, \"threads\": 1, \"dataset\": \"%s\"}",
        i, kAlgos[i % 3], 4 + static_cast<int>(i % 5), 1 + static_cast<int>(i % 3),
        i % 2 == 0 ? "main" : "side"));
  }

  bench::PrintReportHead("serve", {{"n", std::to_string(n)},
                                   {"dim", std::to_string(dim)},
                                   {"groups", std::to_string(groups)},
                                   {"lines", std::to_string(lines)},
                                   {"workers", std::to_string(workers)},
                                   {"seed", std::to_string(seed)}});

  for (const int clients : client_counts) {
    // A fresh serving stack per pass: no cross-pass cache warmth, so each
    // row measures the same cold-catalog serving work.
    DatasetCatalog catalog;
    {
      Rng rng(seed);
      Dataset data = GenIndependent(n, dim, &rng).NormalizedMinMax();
      Grouping grouping = GroupBySumRank(data, groups);
      if (!catalog.Register("main", std::move(data), std::move(grouping))
               .ok()) {
        std::fprintf(stderr, "register main failed\n");
        return 1;
      }
    }
    {
      Rng rng(seed + 1);
      Dataset data =
          GenIndependent(n / 2 + 1, dim, &rng).NormalizedMinMax();
      Grouping grouping = GroupBySumRank(data, std::max(2, groups - 1));
      if (!catalog.Register("side", std::move(data), std::move(grouping))
               .ok()) {
        std::fprintf(stderr, "register side failed\n");
        return 1;
      }
    }
    ServiceOptions service_opts;
    service_opts.default_seed = seed;
    service_opts.default_threads = 1;
    service_opts.envelope.version = 1;
    service_opts.envelope.emit_seq = true;
    ProtocolService service(&catalog, service_opts);
    ServerOptions server_opts;
    server_opts.tcp_port = 0;  // Ephemeral.
    server_opts.workers = workers;
    server_opts.max_queue = lines + 16;
    Server server(&service, server_opts);
    if (!server.Start().ok()) {
      std::fprintf(stderr, "server start failed\n");
      return 1;
    }

    // Round-robin split: client c serves battery lines c, c+C, c+2C, ...
    std::vector<std::vector<std::string>> shares(
        static_cast<size_t>(clients));
    for (size_t i = 0; i < battery.size(); ++i) {
      shares[i % static_cast<size_t>(clients)].push_back(battery[i]);
    }
    std::vector<std::vector<std::string>> responses(
        static_cast<size_t>(clients));
    std::vector<char> ok(static_cast<size_t>(clients), 1);
    Stopwatch timer;
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          ok[static_cast<size_t>(c)] =
              RunClient(server.tcp_port(), shares[static_cast<size_t>(c)],
                        &responses[static_cast<size_t>(c)])
                  ? 1
                  : 0;
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double ms = timer.ElapsedMillis();
    server.Drain();

    std::vector<std::string> normalized;
    for (int c = 0; c < clients; ++c) {
      if (!ok[static_cast<size_t>(c)]) {
        std::fprintf(stderr, "client %d failed at clients=%d\n", c, clients);
        return 1;
      }
      for (const std::string& line : responses[static_cast<size_t>(c)]) {
        if (line.find("\"ok\": true") == std::string::npos) {
          std::fprintf(stderr, "failed response at clients=%d: %s\n",
                       clients, line.c_str());
          return 1;
        }
        normalized.push_back(NormalizeResponse(line));
      }
    }
    bench::PrintResult("serve", clients, ms,
                       bench::DigestLines(std::move(normalized)));
    std::fprintf(stderr,
                 "bench_serve: clients=%d served %zu lines in %.1f ms "
                 "(%.0f qps)\n",
                 clients, lines, ms, ms > 0.0 ? lines * 1000.0 / ms : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace fairhms

int main(int argc, char** argv) { return fairhms::Run(argc, argv); }
