// pao_client — line-oriented test client for pao_serve.
//
//   pao_client (--socket PATH | --port N) [options] [REQUEST...]
//
// Sends each REQUEST argument (one JSON document per argument) as one
// protocol line and prints the matching response line to stdout. With no
// REQUEST arguments, reads request lines from stdin. Connects with
// retries (--retry-ms, default 2000) so scripts can race daemon startup.
//
// options:
//   --extract PATH     print only this dotted path of each response
//                      (e.g. result.report), pretty-printed
//   --partial N        send only the first N bytes of the first request,
//                      no newline, then close — simulates a client killed
//                      mid-request (exit 0; no response is awaited)
//   --retry-ms M       total connect retry window in milliseconds
//
// exit codes: 0 all responses ok; 1 some response not ok or --extract
// path missing; 2 usage error or a flag value that is not a whole integer
// in range; 3 connect or I/O failure.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "flag_values.hpp"
#include "obs/json.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pao_client (--socket PATH | --port N)"
               " [--extract PATH] [--partial N] [--retry-ms M]"
               " [REQUEST...]\n");
  return 2;
}

// pao-lint: allow(executor-hygiene): client-side connect backoff sleeps on
// the main thread of a test tool; there is no executor involved.
void sleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

int connectWithRetry(const std::string& socketPath, int port, int retryMs) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retryMs);
  while (true) {
    int fd = -1;
    int rc = -1;
    if (!socketPath.empty()) {
      fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd >= 0) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socketPath.size() >= sizeof(addr.sun_path)) {
          close(fd);
          return -1;
        }
        std::memcpy(addr.sun_path, socketPath.c_str(),
                    socketPath.size() + 1);
        rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
      }
    } else {
      fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd >= 0) {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
      }
    }
    if (rc == 0) return fd;
    if (fd >= 0) close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    sleepMs(20);
  }
}

bool sendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line (without the newline); false on EOF or
/// error before a full line arrived.
bool recvLine(int fd, std::string& buffer, std::string& line) {
  while (true) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      buffer.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

/// Walks `doc` along a dotted key path; nullptr when any hop is missing.
const pao::obs::Json* extractPath(const pao::obs::Json& doc,
                                  const std::string& path) {
  const pao::obs::Json* node = &doc;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string key = dot == std::string::npos
                                ? path.substr(start)
                                : path.substr(start, dot - start);
    if (!node->isObject()) return nullptr;
    node = node->find(key);
    if (node == nullptr) return nullptr;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return node;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  int port = -1;
  std::string extract;
  long long partial = -1;
  int retryMs = 2000;
  std::vector<std::string> requests;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socketPath = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      if (!pao::tools::parseIntFlag("--port", argv[++i], 0, 65535, port)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--extract") == 0 && i + 1 < argc) {
      extract = argv[++i];
    } else if (std::strcmp(argv[i], "--partial") == 0 && i + 1 < argc) {
      if (!pao::tools::parseIntFlag("--partial", argv[++i], 0,
                                    pao::tools::kIntMax, partial)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--retry-ms") == 0 && i + 1 < argc) {
      if (!pao::tools::parseIntFlag("--retry-ms", argv[++i], 0,
                                    pao::tools::kIntMax, retryMs)) {
        return 2;
      }
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return usage();
    } else {
      requests.push_back(argv[i]);
    }
  }
  if (socketPath.empty() == (port < 0)) return usage();
  if (requests.empty() && partial < 0) {
    std::string line;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
      line = buf;
      while (!line.empty() &&
             (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) requests.push_back(line);
    }
  }

  const int fd = connectWithRetry(socketPath, port, retryMs);
  if (fd < 0) {
    std::fprintf(stderr, "pao_client: cannot connect\n");
    return 3;
  }

  if (partial >= 0) {
    // Simulate a client dying mid-request: ship a prefix, never a newline.
    const std::string& req = requests.empty() ? std::string() : requests[0];
    const std::size_t n =
        std::min(static_cast<std::size_t>(partial), req.size());
    if (n > 0 && !sendAll(fd, req.substr(0, n))) {
      close(fd);
      return 3;
    }
    close(fd);
    return 0;
  }

  int exitCode = 0;
  std::string buffer;
  for (const std::string& req : requests) {
    if (!sendAll(fd, req + "\n")) {
      std::fprintf(stderr, "pao_client: send failed\n");
      close(fd);
      return 3;
    }
    std::string line;
    if (!recvLine(fd, buffer, line)) {
      std::fprintf(stderr, "pao_client: connection closed by server\n");
      close(fd);
      return 3;
    }
    std::string error;
    const auto doc = pao::obs::Json::parse(line, &error);
    if (!doc) {
      std::fprintf(stderr, "pao_client: malformed response: %s\n",
                   error.c_str());
      close(fd);
      return 3;
    }
    const pao::obs::Json* ok = doc->find("ok");
    if (ok == nullptr || !ok->isBool() || !ok->asBool()) exitCode = 1;
    if (extract.empty()) {
      std::printf("%s\n", line.c_str());
    } else {
      const pao::obs::Json* node = extractPath(*doc, extract);
      if (node == nullptr) {
        std::fprintf(stderr, "pao_client: no '%s' in response\n",
                     extract.c_str());
        exitCode = 1;
      } else {
        std::printf("%s\n", node->dump(1).c_str());
      }
    }
  }
  close(fd);
  return exitCode;
}
