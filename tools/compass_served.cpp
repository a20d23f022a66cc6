// compass_served — the Compass serve daemon (DESIGN.md §15).
//
// Hosts many independent simulation sessions over the length-prefixed
// binary protocol in src/serve/, multiplexed by a single-threaded poll
// dispatcher: clients create sessions from named scenarios, inject stimuli,
// subscribe to spike/rate/heartbeat streams, step, and snapshot/restore.
// The same port answers `GET /metrics` with the Prometheus exposition of
// the daemon's registry.
//
// `compass_served --help` lists the flags.
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

compass::serve::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  compass::serve::ServerOptions opts;
  std::string port_file;
  std::string trace_out;
  std::uint64_t port = opts.port;
  std::uint64_t max_sessions = opts.max_sessions;
  std::uint64_t max_seconds = 0;
  std::uint64_t exit_on_idle_ms = 0;
  using compass::util::Flag;
  compass::util::Flags(
      "compass_served", "usage: compass_served [options]\n",
      {
          Flag::u64("--port", port, 0, 65535,
                    "TCP port (0 = ephemeral; see --port-file)"),
          Flag::text("--bind", opts.bind, "ADDR", "bind address"),
          Flag::text("--port-file", port_file, "PATH",
                     "write the bound port as one line once listening"),
          Flag::u64("--max-sessions", max_sessions, 1, 4096,
                    "concurrent session cap"),
          Flag::u64("--tick-budget", opts.tick_budget, 1, 1u << 20,
                    "ticks one session may run per dispatch round"),
          Flag::u64("--client-queue-bytes", opts.client_queue_soft_bytes, 1024,
                    std::uint64_t{1} << 32,
                    "send-queue level where a spike subscriber is coalesced "
                    "to rate summaries"),
          Flag::u64("--stall-ticks", opts.stall_ticks, 1, UINT64_MAX,
                    "coalesced ticks before a saturated subscriber is "
                    "disconnected"),
          Flag::u64("--rate-window", opts.rate_window_ticks, 1, 1u << 20,
                    "ticks per rate summary frame"),
          Flag::u64("--analytics-window", opts.analytics_window_ticks, 0,
                    1u << 20,
                    "ticks per analytics window streamed to "
                    "Subscribe(analytics) clients (0 = off)"),
          Flag::u64("--heartbeat-ticks", opts.heartbeat_every_ticks, 0,
                    UINT64_MAX, "heartbeat frame cadence in stepped ticks "
                                "(0 = off)"),
          Flag::text("--trace-out", trace_out, "PATH",
                     "JSONL trace of session lifecycle events"),
          Flag::u64("--max-seconds", max_seconds, 1, 86400,
                    "exit after this much wall time (0 = off)"),
          Flag::u64("--exit-on-idle-ms", exit_on_idle_ms, 1, 86400000,
                    "exit once a client was served, none remain, and the "
                    "daemon idled this long (0 = off)"),
      })
      .parse_or_exit(argc, argv);
  opts.port = static_cast<std::uint16_t>(port);
  opts.max_sessions = static_cast<std::uint32_t>(max_sessions);
  opts.max_seconds = static_cast<double>(max_seconds);
  opts.exit_on_idle_s = static_cast<double>(exit_on_idle_ms) / 1000.0;

  compass::obs::MetricsRegistry metrics;
  opts.metrics = &metrics;

  std::ofstream trace_stream;
  std::optional<compass::obs::JsonlTraceWriter> trace_writer;
  if (!trace_out.empty()) {
    trace_stream.open(trace_out);
    if (!trace_stream) {
      std::cerr << "compass_served: cannot write " << trace_out << "\n";
      return 2;
    }
    trace_writer.emplace(trace_stream);
    opts.trace = &*trace_writer;
  }

  try {
    compass::serve::Server server(opts);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!port_file.empty()) {
      std::ofstream pf(port_file);
      if (!pf) {
        std::cerr << "compass_served: cannot write " << port_file << "\n";
        return 2;
      }
      pf << server.port() << "\n";
    }
    std::cout << "compass_served: listening on " << opts.bind << ":"
              << server.port() << " (max " << opts.max_sessions
              << " sessions)\n"
              << std::flush;

    server.run();
    g_server = nullptr;

    const compass::serve::ServerStats& s = server.stats();
    std::cout << "compass_served: exiting — " << s.accepted << " clients, "
              << s.sessions_created << " sessions, " << s.ticks_stepped
              << " ticks, " << s.spikes_streamed << " spikes streamed, "
              << s.analytics_records << " analytics records, "
              << s.protocol_errors << " protocol errors, "
              << s.slow_disconnects << " slow disconnects\n";
  } catch (const std::exception& e) {
    std::cerr << "compass_served: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
