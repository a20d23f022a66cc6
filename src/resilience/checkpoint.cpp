#include "resilience/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace compass::resilience {

namespace {

constexpr std::uint32_t kMagic = 0x54504B43;  // "CKPT" little-endian
constexpr std::uint32_t kVersion = 1;

// Section ids. Unknown ids are skipped on load (forward compatibility).
constexpr std::uint32_t kSectionModel = 1;
constexpr std::uint32_t kSectionRuntime = 2;
constexpr std::uint32_t kSectionLedger = 3;

constexpr std::size_t kHeaderBytes = 24;         // 20 payload + 4 CRC
constexpr std::size_t kSectionHeaderBytes = 20;  // id + reserved + size + crc

template <typename T>
void append_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Append one section whose payload `encode(out)` appends in place: the
/// header is reserved first, then its size and CRC are patched in, so no
/// payload is ever built in a temporary and copied.
template <typename Encode>
void append_section(std::string& out, std::uint32_t id, Encode&& encode) {
  const std::size_t header = out.size();
  out.resize(header + kSectionHeaderBytes);
  encode(out);
  const std::size_t payload = header + kSectionHeaderBytes;
  const std::uint64_t size = out.size() - payload;
  const std::uint32_t crc = util::crc32(out.data() + payload, size);
  const std::uint32_t reserved = 0;
  char* h = out.data() + header;
  std::memcpy(h, &id, sizeof id);
  std::memcpy(h + 4, &reserved, sizeof reserved);
  std::memcpy(h + 8, &size, sizeof size);
  std::memcpy(h + 16, &crc, sizeof crc);
}

/// Bounds-checked little-endian reader over an in-memory buffer. Reading
/// the whole file up front makes truncation checks trivial and keeps the
/// parser free of stream-state subtleties.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  template <typename T>
  T read(const char* what) {
    T v;
    std::memcpy(&v, read_span(sizeof(T), what).data(), sizeof(T));
    return v;
  }

  std::string_view read_span(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw CheckpointError(CheckpointErrc::kTruncated,
                            std::string("checkpoint truncated reading ") +
                                what);
    }
    std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

using runtime::RunReport;

/// The runtime section: these counters in order, then host_wall_s, then
/// the recovery totals.
constexpr std::uint64_t RunReport::*kCounters[] = {
    &RunReport::ticks,           &RunReport::fired_spikes,
    &RunReport::routed_spikes,   &RunReport::local_spikes,
    &RunReport::remote_spikes,   &RunReport::synaptic_events,
    &RunReport::messages,        &RunReport::wire_bytes,
    &RunReport::faults_injected, &RunReport::messages_retried,
    &RunReport::spikes_lost};

void encode_runtime(std::string& out, const RunReport& r) {
  for (const auto counter : kCounters) append_pod(out, r.*counter);
  append_pod(out, r.host_wall_s);
  append_pod(out, r.recoveries);
  append_pod(out, r.recovery_ticks_lost);
}

RunReport decode_runtime(std::string_view payload) {
  Cursor c(payload);
  RunReport r;
  for (const auto counter : kCounters) {
    r.*counter = c.read<std::uint64_t>("runtime counters");
  }
  r.host_wall_s = c.read<double>("runtime.host_wall_s");
  // Recovery totals were appended after the format shipped; files written
  // before them simply end here (same version — a strict tail extension, so
  // old files load with zero recoveries and new files load everywhere).
  if (c.remaining() >= 2 * sizeof(std::uint64_t)) {
    r.recoveries = c.read<std::uint64_t>("runtime.recoveries");
    r.recovery_ticks_lost = c.read<std::uint64_t>("runtime.recovery_lost");
  }
  return r;
}

/// The one writer: overwrites `out` (keeping its capacity) with the
/// header, the model section that `append_model(out)` appends, and the
/// runtime and ledger sections.
template <typename AppendModel>
void write_checkpoint(arch::Tick tick, const RunReport& report,
                      const perf::PhaseBreakdown& virtual_time,
                      std::uint64_t ledger_ticks, std::size_t model_size,
                      AppendModel&& append_model, std::string& out) {
  out.clear();
  // Runtime and ledger sections are well under 1 KiB; sizing for them up
  // front keeps the model bytes from being copied by a reallocation.
  out.reserve(kHeaderBytes + 3 * kSectionHeaderBytes + model_size + 1024);
  append_pod(out, kMagic);
  append_pod(out, kVersion);
  append_pod(out, static_cast<std::uint64_t>(tick));
  append_pod(out, std::uint32_t{3});  // section count
  append_pod(out, util::crc32(out.data(), out.size()));

  append_model(out);
  append_section(out, kSectionRuntime,
                 [&](std::string& o) { encode_runtime(o, report); });
  append_section(out, kSectionLedger, [&](std::string& o) {
    append_pod(o, virtual_time.synapse);
    append_pod(o, virtual_time.neuron);
    append_pod(o, virtual_time.network);
    append_pod(o, ledger_ticks);
  });
}

struct Header {
  arch::Tick tick = 0;
  std::uint32_t section_count = 0;
};

/// Check the fixed header at the start of `bytes`: size, magic, version
/// and CRC.
Header check_header(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw CheckpointError(CheckpointErrc::kTruncated,
                          "checkpoint smaller than its header");
  }
  Cursor c(bytes);
  if (c.read<std::uint32_t>("magic") != kMagic) {
    throw CheckpointError(CheckpointErrc::kBadMagic,
                          "not a Compass checkpoint (bad magic)");
  }
  const std::uint32_t version = c.read<std::uint32_t>("version");
  if (version != kVersion) {
    throw CheckpointError(
        CheckpointErrc::kBadVersion,
        "unsupported checkpoint version " + std::to_string(version) +
            " (this build reads version " + std::to_string(kVersion) + ")");
  }
  Header h;
  h.tick = c.read<std::uint64_t>("tick");
  h.section_count = c.read<std::uint32_t>("section count");
  const std::uint32_t header_crc = c.read<std::uint32_t>("header crc");
  if (header_crc != util::crc32(bytes.data(), kHeaderBytes - 4)) {
    throw CheckpointError(CheckpointErrc::kHeaderCorrupt,
                          "checkpoint header CRC mismatch");
  }
  return h;
}

/// The one verifier, for parse_checkpoint, restore_live and capture:
/// checks the header and every section CRC before any payload is looked
/// at (capture, which has just written the bytes, skips the CRCs), then
/// decodes the tick, runtime and ledger sections into `cp`'s fields.
/// Returns the model section's payload.
std::string_view verify(std::string_view bytes, Checkpoint& cp,
                        bool check_crcs = true) {
  const Header h = check_header(bytes);
  Cursor c(bytes.substr(kHeaderBytes));
  std::string_view model, runtime, ledger;
  bool have_model = false, have_runtime = false, have_ledger = false;
  for (std::uint32_t s = 0; s < h.section_count; ++s) {
    const std::uint32_t id = c.read<std::uint32_t>("section id");
    (void)c.read<std::uint32_t>("section reserved");
    const std::uint64_t size = c.read<std::uint64_t>("section size");
    const std::uint32_t crc = c.read<std::uint32_t>("section crc");
    // A corrupt size field cannot over-allocate: read_span bounds-checks
    // against the actual buffer size before any view is taken.
    const std::string_view payload =
        c.read_span(static_cast<std::size_t>(size), "section payload");
    if (check_crcs && crc != util::crc32(payload.data(), payload.size())) {
      throw CheckpointError(CheckpointErrc::kSectionCorrupt,
                            "checkpoint section " + std::to_string(id) +
                                " CRC mismatch");
    }
    switch (id) {
      case kSectionModel: model = payload; have_model = true; break;
      case kSectionRuntime: runtime = payload; have_runtime = true; break;
      case kSectionLedger: ledger = payload; have_ledger = true; break;
      default: break;  // unknown section from a newer writer: skip
    }
  }
  if (!have_model || !have_runtime || !have_ledger) {
    throw CheckpointError(CheckpointErrc::kMissingSection,
                          "checkpoint is missing a required section");
  }
  cp.tick = h.tick;
  cp.report = decode_runtime(runtime);
  Cursor l(ledger);
  cp.virtual_time.synapse = l.read<double>("ledger.synapse");
  cp.virtual_time.neuron = l.read<double>("ledger.neuron");
  cp.virtual_time.network = l.read<double>("ledger.network");
  cp.ledger_ticks = l.read<std::uint64_t>("ledger.ticks");
  cp.report.virtual_time = cp.virtual_time;
  return model;
}

/// Run a model codec call on a CRC-valid section. A throw means a buggy
/// writer produced it: still a typed rejection rather than a crash.
template <typename Call>
auto model_section(Call&& call) -> decltype(call()) {
  try {
    return call();
  } catch (const std::exception& e) {
    throw CheckpointError(
        CheckpointErrc::kSectionCorrupt,
        std::string("checkpoint model section undecodable: ") + e.what());
  }
}

/// The core count of a checkpoint's model section against the live one.
void check_shape(std::string_view model_bytes, std::size_t live) {
  const std::uint64_t cores = model_section(
      [&] { return arch::Model::encoded_core_count(model_bytes); });
  if (cores != live) {
    throw CheckpointError(CheckpointErrc::kShapeMismatch,
                          "checkpoint has " + std::to_string(cores) +
                              " cores but the live model has " +
                              std::to_string(live));
  }
}

/// The one restore tail, for restore and restore_live: the core count
/// against the partition, then the all-or-nothing model decode (which
/// keeps unchanged column mirrors), then tick, report and ledger.
void restore_state(const Checkpoint& fields, std::string_view model_bytes,
                   runtime::Compass& sim, arch::Model& model) {
  check_shape(model_bytes, sim.partition().num_cores());
  model_section([&] { model.decode_into(model_bytes); });
  sim.set_start_tick(fields.tick);
  sim.restore_report(fields.report);
  sim.restore_virtual_time(fields.virtual_time, fields.ledger_ticks);
}

[[noreturn]] void throw_io(const std::string& op, const std::string& path) {
  throw CheckpointError(CheckpointErrc::kIo, "checkpoint " + op + " failed: " +
                                                 path + ": " +
                                                 std::strerror(errno));
}

/// Closes a file descriptor when the scope ends, on every throw path too.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  ~FdCloser() { ::close(fd_); }

 private:
  int fd_;
};

/// pread(2) until `n` bytes at `offset` are read or the file ends; returns
/// how many were read.
std::size_t pread_full(int fd, char* out, std::size_t n, std::uint64_t offset,
                       const std::string& path) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, out + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) throw_io("read", path);
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

const char* to_string(CheckpointErrc code) {
  switch (code) {
    case CheckpointErrc::kIo: return "io-error";
    case CheckpointErrc::kBadMagic: return "bad-magic";
    case CheckpointErrc::kBadVersion: return "bad-version";
    case CheckpointErrc::kHeaderCorrupt: return "header-corrupt";
    case CheckpointErrc::kTruncated: return "truncated";
    case CheckpointErrc::kSectionCorrupt: return "section-corrupt";
    case CheckpointErrc::kMissingSection: return "missing-section";
    case CheckpointErrc::kShapeMismatch: return "shape-mismatch";
  }
  return "?";
}

std::string serialize_checkpoint(const Checkpoint& cp) {
  if (cp.bytes_.empty()) {
    throw CheckpointError(CheckpointErrc::kMissingSection,
                          "checkpoint holds no snapshot");
  }
  std::string out;
  write_checkpoint(
      cp.tick, cp.report, cp.virtual_time, cp.ledger_ticks, cp.model_size_,
      [&](std::string& o) {
        // The section as it was written or read, CRC included.
        o.append(cp.bytes_, cp.model_at_ - kSectionHeaderBytes,
                 kSectionHeaderBytes + cp.model_size_);
      },
      out);
  return out;
}

void serialize_live(const runtime::Compass& sim, const arch::Model& model,
                    std::string& out) {
  write_checkpoint(
      sim.now(), sim.report(), sim.ledger().totals(), sim.ledger().ticks(),
      model.encoded_size(),
      [&](std::string& o) {
        append_section(o, kSectionModel,
                       [&](std::string& p) { model.encode(p); });
      },
      out);
}

Checkpoint parse_checkpoint(std::string_view bytes) {
  Checkpoint cp;
  const std::string_view model = verify(bytes, cp);
  // Every record is checked, without building a Model, before the bytes
  // are kept.
  model_section([&] { return arch::Model::check_encoded(model); });
  cp.bytes_.assign(bytes);
  cp.model_at_ = static_cast<std::size_t>(model.data() - bytes.data());
  cp.model_size_ = model.size();
  return cp;
}

arch::Tick restore_live(std::string_view bytes, runtime::Compass& sim,
                        arch::Model& model) {
  Checkpoint fields;
  restore_state(fields, verify(bytes, fields), sim, model);
  return fields.tick;
}

void write_checkpoint_file(std::string_view bytes, const std::string& path) {
  const std::string tmp = path + ".tmp";

  // POSIX write path: std::ofstream cannot fsync, and without the fsync +
  // atomic-rename pair a crash mid-write could leave a torn file that a
  // later restore would have to reject, losing the job's progress.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("open", tmp);
  const auto fail = [&](const char* op) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    throw_io(op, tmp);
  };
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("write");
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync");
  if (::close(fd) != 0) throw_io("close", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_io("rename", path);
  }
  // Persist the rename itself (best-effort: some filesystems refuse
  // directory fsync, and by this point the data is safe either way).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

std::string read_checkpoint_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CheckpointError(CheckpointErrc::kIo,
                          "cannot open checkpoint " + path);
  }
  const FdCloser closer(fd);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw CheckpointError(CheckpointErrc::kIo,
                          "cannot read checkpoint " + path +
                              ": not a regular file");
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);

  // Size the buffer from what the header and section headers declare,
  // checked against the file's size, never from the size alone: a huge or
  // sparse file that is not a checkpoint is rejected before anything is
  // allocated, and bytes past the last section are never read.
  std::string head(kHeaderBytes, '\0');
  head.resize(pread_full(fd, head.data(), kHeaderBytes, 0, path));
  const Header h = check_header(head);
  std::uint64_t end = kHeaderBytes;
  for (std::uint32_t s = 0; s < h.section_count; ++s) {
    char section[kSectionHeaderBytes];
    if (file_size - end < kSectionHeaderBytes ||
        pread_full(fd, section, kSectionHeaderBytes, end, path) <
            kSectionHeaderBytes) {
      throw CheckpointError(CheckpointErrc::kTruncated,
                            "checkpoint truncated reading section header");
    }
    std::uint64_t size = 0;
    std::memcpy(&size, section + 8, sizeof size);
    end += kSectionHeaderBytes;
    if (size > file_size - end) {
      throw CheckpointError(CheckpointErrc::kTruncated,
                            "checkpoint truncated reading section payload");
    }
    end += size;
  }

  std::string bytes;
  try {
    bytes.resize(static_cast<std::size_t>(end));
  } catch (const std::exception&) {  // bad_alloc or length_error
    throw CheckpointError(CheckpointErrc::kIo,
                          "checkpoint " + path + " declares " +
                              std::to_string(end) +
                              " bytes, more than this process can hold");
  }
  // A file that shrank since fstat reads short: parsing reports it.
  bytes.resize(pread_full(fd, bytes.data(), bytes.size(), 0, path));
  return bytes;
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::string bytes = read_checkpoint_file(path);
  Checkpoint cp;
  const std::string_view model = verify(bytes, cp);
  model_section([&] { return arch::Model::check_encoded(model); });
  cp.model_at_ = static_cast<std::size_t>(model.data() - bytes.data());
  cp.model_size_ = model.size();
  cp.bytes_ = std::move(bytes);
  return cp;
}

Checkpoint capture(const runtime::Compass& sim, const arch::Model& model) {
  Checkpoint cp;
  serialize_live(sim, model, cp.bytes_);
  const std::string_view m = verify(cp.bytes_, cp, /*check_crcs=*/false);
  cp.model_at_ = static_cast<std::size_t>(m.data() - cp.bytes_.data());
  cp.model_size_ = m.size();
  return cp;
}

void restore(const Checkpoint& cp, runtime::Compass& sim, arch::Model& model) {
  restore_state(cp, cp.model_bytes(), sim, model);
}

void restore_cores(const Checkpoint& cp, std::span<const arch::CoreId> ids,
                   arch::Model& model) {
  check_shape(cp.model_bytes(), model.num_cores());
  model_section([&] { model.decode_cores(cp.model_bytes(), ids); });
}

}  // namespace compass::resilience
