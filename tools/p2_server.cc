// p2_server: the planning service behind a TCP port (server/planner_server.h).
// `p2_server --help` lists the flags; a bad flag exits 2.
//
// Binds the loopback interface only. --port=0 (the default) picks an
// ephemeral port; the bound port is printed to stdout and, with
// --port-file, written (atomically enough for a polling reader: the file
// appears only after the server is accepting). The process exits 0 after a
// client's shutdown frame drained the service — the CI smoke asserts that.
//
// --cache-server additionally serves the synthesis-cache plane (frame
// types 8-11) to sharded grid workers (tools/p2_shard): lookups answer
// with an entry, an ownership grant, or a retry-after, and publishes land
// in the shared cache (persisted by --cache-file like any other entry).
// --grant-ttl-ms bounds how long a dead worker's grant can shadow a base
// key (default 10000).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "engine/service.h"
#include "server/planner_server.h"

int main(int argc, char** argv) {
  p2::engine::PlannerServiceOptions service_options;
  service_options.threads = 4;
  p2::server::PlannerServerOptions server_options;
  std::string port_file;
  std::int64_t drain_grace_ms = -1;
  std::int64_t grant_ttl_ms = server_options.grant_ttl.count();
  const std::vector<p2::Flag> flags = {
      {"port", &server_options.port,
       "TCP port on 127.0.0.1; 0 (the default) picks one", 0, 65535},
      {"port-file", &port_file, "write the bound port to PATH once accepting"},
      {"service-threads", &service_options.threads,
       "size of the service's worker pool (default 4)", 1, p2::kMaxFlagThreads},
      {"cache-file", &service_options.cache_file,
       "load/save the persistent synthesis cache at PATH"},
      {"cache-max-entries", &service_options.cache_max_entries,
       "keep at most N synthesis-cache entries", 1},
      {"cache-ttl-seconds", &service_options.cache_ttl_seconds,
       "skip cache-file entries older than N seconds", 1},
      {"max-in-flight", &service_options.max_in_flight,
       "admit at most N concurrently planning requests", 1},
      {"drain-grace-ms", &drain_grace_ms,
       "on shutdown, cancel requests still running after N ms", 0},
      {"cache-server", &server_options.cache_server,
       "also serve the synthesis-cache plane to p2_shard"},
      {"grant-ttl-ms", &grant_ttl_ms,
       "a dead worker's ownership grant expires after N ms", 1},
  };
  std::string error;
  if (!p2::ParseFlags({argv + 1, argv + argc}, flags,
                      "p2_server: the planning service behind a TCP port\n"
                      "\n"
                      "usage: p2_server [FLAGS]\n",
                      nullptr, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (drain_grace_ms >= 0) {
    service_options.drain_grace = std::chrono::milliseconds(drain_grace_ms);
  }
  server_options.grant_ttl = std::chrono::milliseconds(grant_ttl_ms);

  p2::engine::PlannerService service(service_options);
  if (p2::engine::IsCorrupt(service.cache_load_status())) {
    std::fprintf(stderr, "warning: cache file ignored: %s\n",
                 service.cache_load_message().c_str());
  }

  try {
    p2::server::PlannerServer server(service, server_options);
    std::printf("p2_server listening on 127.0.0.1:%d\n", server.port());
    std::fflush(stdout);
    if (!port_file.empty()) {
      // Written only once accept() is live, so "the file exists" is a valid
      // readiness signal for a polling client.
      const std::string tmp = port_file + ".tmp";
      std::FILE* f = std::fopen(tmp.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
        return 1;
      }
      std::fprintf(f, "%d\n", server.port());
      std::fclose(f);
      if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
        std::fprintf(stderr, "cannot rename %s\n", tmp.c_str());
        return 1;
      }
    }
    server.Wait();
    server.Shutdown();
    const p2::server::PlannerServerStats stats = server.stats();
    std::printf(
        "p2_server drained: %lld connections, %lld plan requests "
        "(%lld ok, %lld errors), %lld stats requests\n",
        static_cast<long long>(stats.connections),
        static_cast<long long>(stats.requests),
        static_cast<long long>(stats.plan_ok),
        static_cast<long long>(stats.plan_errors),
        static_cast<long long>(stats.stats_requests));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2_server: %s\n", e.what());
    return 1;
  }
  return 0;
}
