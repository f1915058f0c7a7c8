// pao_serve — long-lived multi-tenant pin access oracle daemon.
//
//   pao_serve (--socket PATH | --port N) [options]
//
// Serves the newline-delimited JSON protocol documented in
// src/serve/protocol.hpp and DESIGN.md "Service architecture" over a
// Unix-domain socket (--socket) or loopback TCP (--port; 0 picks an
// ephemeral port, printed on stderr). Holds one incremental OracleSession
// per loaded tenant; all tenants share one AccessCache.
//
// options:
//   --threads N        DEF ingest and oracle worker threads per session
//                      (default 1, 0=auto, at most 256); results are
//                      identical for any value
//   --budget N         per-tenant in-flight request budget (default 4);
//                      over-budget connections are stalled, not dropped
//   --max-tenants N    resident design limit (default 64)
//   --deterministic    process requests strictly in arrival order
//   --slow-micros N    slow-request threshold in microseconds (default
//                      250000); slower requests bump
//                      pao.serve.slow_requests and print a rate-limited
//                      stderr line carrying the request id; 0 disables
//   --faults SPEC      arm fault injection (serve.accept / serve.read /
//                      serve.write and the library points; also read from
//                      the PAO_FAULTS env variable)
//
// Stream contract: stdout is never written; status goes to stderr. The
// line "pao_serve: listening on <addr>" signals readiness to scripts.
//
// exit codes:
//   0  clean shutdown (shutdown command, SIGINT or SIGTERM)
//   2  usage error, checked before binding: a --threads value that is not
//      an integer in [0, 256], a --port outside [0, 65535], a --budget or
//      --max-tenants that is not a whole integer >= 1, a --slow-micros that
//      is not a whole integer >= 0, or a malformed --faults/PAO_FAULTS spec
//   3  fatal startup error (bad socket path, bind/listen failure)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "flag_values.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/executor.hpp"
#include "util/fault.hpp"

namespace {

using pao::tools::kIntMax;
using pao::tools::parseIntFlag;

pao::serve::Server* g_server = nullptr;

void onSignal(int) {
  if (g_server != nullptr) g_server->stop();  // one eventfd write
}

int usage() {
  std::fprintf(stderr,
               "usage: pao_serve (--socket PATH | --port N) [--threads N]"
               " [--budget N] [--max-tenants N] [--deterministic]"
               " [--slow-micros N] [--faults SPEC]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): first statement of main, no
  // other threads exist yet and nothing ever calls setenv.
  if (const char* spec = std::getenv("PAO_FAULTS")) {
    std::string error;
    if (!pao::util::FaultRegistry::instance().configure(spec, &error)) {
      std::fprintf(stderr, "PAO_FAULTS: %s\n", error.c_str());
      return 2;
    }
  }

  pao::serve::ServiceConfig serviceCfg;
  pao::serve::ServerConfig serverCfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      serverCfg.unixSocketPath = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      if (!parseIntFlag("--port", argv[++i], 0, 65535, serverCfg.tcpPort)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parseIntFlag("--threads", argv[++i], 0, pao::util::kMaxThreads,
                        serviceCfg.numThreads)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      if (!parseIntFlag("--budget", argv[++i], 1, kIntMax,
                        serviceCfg.tenantBudget)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-tenants") == 0 && i + 1 < argc) {
      if (!parseIntFlag("--max-tenants", argv[++i], 1, kIntMax,
                        serviceCfg.maxTenants)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--deterministic") == 0) {
      serviceCfg.deterministic = true;
    } else if (std::strcmp(argv[i], "--slow-micros") == 0 && i + 1 < argc) {
      if (!parseIntFlag("--slow-micros", argv[++i], 0,
                        std::numeric_limits<long long>::max(),
                        serviceCfg.slowRequestMicros)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      std::string error;
      if (!pao::util::FaultRegistry::instance().configure(argv[++i],
                                                          &error)) {
        std::fprintf(stderr, "--faults: %s\n", error.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return usage();
    }
  }
  if (serverCfg.unixSocketPath.empty() == (serverCfg.tcpPort < 0)) {
    return usage();
  }

  pao::serve::Service service(serviceCfg);
  pao::serve::Server server(service, serverCfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 3;
  }

  g_server = &server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  if (!serverCfg.unixSocketPath.empty()) {
    std::fprintf(stderr, "pao_serve: listening on %s\n",
                 serverCfg.unixSocketPath.c_str());
  } else {
    std::fprintf(stderr, "pao_serve: listening on 127.0.0.1:%d\n",
                 server.boundPort());
  }

  server.run();
  g_server = nullptr;
  std::fprintf(stderr,
               "pao_serve: stopped (%llu conns, %llu requests, %llu stalls, "
               "%llu dropped)\n",
               static_cast<unsigned long long>(server.stats().accepted),
               static_cast<unsigned long long>(server.stats().requests),
               static_cast<unsigned long long>(server.stats().stalls),
               static_cast<unsigned long long>(server.stats().dropped));
  return 0;
}
