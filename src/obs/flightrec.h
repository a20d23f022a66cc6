// Per-rank flight recorder: the black box the resilience layer's induced
// crashes get post-mortemed from.
//
// Each virtual rank (plus one "machine" track for rank-agnostic events)
// owns a fixed-capacity ring of structured events — phase transitions,
// sends/recvs, fault injections, checkpoint writes. Recording is lock-free:
// every ring has exactly one producer (the thread driving that rank, or the
// serial master for machine events), the write cursor is a relaxed atomic,
// and events are fixed-size PODs, so the recorder can run inside the
// OpenMP-parallel phase loops without synchronisation and costs one pointer
// test per instrumented site when detached.
//
// The recorded window (the last `capacity` events per ring) is dumped as
// JSONL on demand: Compass's drivers trigger a dump on CheckpointError, the
// fault decorator triggers one the first time its kill-rank policy fires,
// and install_signal_handler() arms a fatal-signal path (SIGSEGV/SIGABRT/
// SIGBUS/SIGFPE/SIGILL) that writes the dump with raw fd writes — no
// streams, no allocation — before re-raising the signal.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace compass::obs {

enum class FlightEventKind : std::uint8_t {
  kPhase = 0,      // runtime phase transition (tick_begin / exchange / ...)
  kSend = 1,       // transport message/put src -> peer
  kRecv = 2,       // transport delivery into a rank
  kFault = 3,      // injected fault (what = drop/corrupt/dup/stall/kill/...)
  kCheckpoint = 4, // checkpoint write (a = tick, b = bytes)
  kNote = 5,       // free-form marker (e.g. the compiler's pcc events)
  kRecovery = 6,   // rank-failure recovery (peer = dead rank, a = tick,
                   // b = checkpoint tick; what = policy)
};

const char* flight_event_kind_name(FlightEventKind kind);

/// One recorded event. POD on purpose: the fatal-signal dump path reads
/// these with nothing but integer formatting.
struct FlightEvent {
  std::uint64_t seq = 0;   // per-ring sequence number (monotonic from 0)
  std::uint64_t tick = 0;  // simulation tick when recorded
  std::uint64_t a = 0;     // payload (spikes, tick, ...)
  std::uint64_t b = 0;     // payload (bytes, code, ...)
  std::int32_t rank = -1;  // owning ring: -1 = machine track
  std::int32_t peer = -1;  // other rank for send/recv, else -1
  FlightEventKind kind = FlightEventKind::kNote;
  char what[15] = {};      // fixed-size label, NUL-terminated
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;  // events per ring

  /// One ring per rank plus the machine track (rank -1).
  explicit FlightRecorder(int ranks,
                          std::size_t capacity_per_rank = kDefaultCapacity);

  int ranks() const { return ranks_; }
  std::size_t capacity() const { return capacity_; }

  /// Set the tick stamped onto subsequent events. Called serially at each
  /// tick boundary by the runtime; recorded events between calls carry it.
  void set_tick(std::uint64_t tick) noexcept {
    tick_.store(tick, std::memory_order_relaxed);
  }

  /// Record one event into `rank`'s ring (-1 = machine track). Lock-free
  /// single-producer-per-ring; `what` is truncated to the fixed label size.
  /// Out-of-range ranks are dropped rather than trusted.
  void record(int rank, FlightEventKind kind, const char* what, int peer = -1,
              std::uint64_t a = 0, std::uint64_t b = 0) noexcept;

  /// Total events ever recorded (not capped by the ring capacity).
  std::uint64_t recorded() const;

  /// Where trigger-style dumps (dump_now and the signal handler) write.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  /// Dump every ring's surviving window as JSONL: one header record
  /// ({"type":"flight_dump",...}) then one {"type":"flight",...} per event,
  /// oldest first per ring, machine track first.
  void dump(std::ostream& os, std::string_view reason) const;

  /// dump() to dump_path() with raw POSIX fd writes (best effort; false
  /// when the path is empty or unwritable). Safe to call from contexts that
  /// must not allocate or touch iostreams — this is what the fatal-signal
  /// handler and the kill-rank trigger use.
  bool dump_now(const char* reason) const noexcept;

  /// Arm the fatal-signal post-mortem: on SIGSEGV/SIGABRT/SIGBUS/SIGFPE/
  /// SIGILL the process dumps `recorder` via dump_now() and re-raises with
  /// the default disposition. One recorder per process; pass nullptr to
  /// disarm. `recorder` must outlive the armed window.
  static void install_signal_handler(FlightRecorder* recorder);

 private:
  struct Ring {
    std::vector<FlightEvent> events;     // capacity_ slots, seq % capacity_
    std::atomic<std::uint64_t> next{0};  // events ever recorded in this ring
  };

  int ranks_;
  std::size_t capacity_;
  std::atomic<std::uint64_t> tick_{0};
  std::vector<Ring> rings_;  // [0] = machine track, [r + 1] = rank r
  std::string dump_path_;
};

}  // namespace compass::obs
