// Deterministic fault-injection shim for the I/O layer.
//
// Every syscall the project routes through util::io consults this shim
// when it is enabled.  A Schedule assigns each intercepted operation a
// seeded probability of EINTR, short I/O, or a typed errno failure
// (ENOSPC, EIO, ECONNRESET, ...), plus an optional one-shot "fail the
// Nth call" trigger.  Decisions are a pure function of (seed, op,
// per-op call number), so a given schedule replays the same fault
// sequence on every run — which is what lets the chaos suite assert
// byte-identical artifacts under recoverable faults.
//
// When disabled (the default, and the only state production ever runs
// in) the cost at each call site is one relaxed atomic load and a
// predictable branch; the acceptance bench pins this at <1% on the
// closed-loop TCP path.

#ifndef GSB_UTIL_FAULT_INJECTION_H
#define GSB_UTIL_FAULT_INJECTION_H

#include <array>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gsb::fault {

/// Intercepted operations.  Socket reads/writes are distinct from file
/// reads/writes so a schedule can hammer the transport without
/// perturbing artifact builds (and vice versa).
enum class Op : unsigned {
  kRead,
  kWrite,
  kSend,
  kRecv,
  kAccept,
  kConnect,
  kOpen,
  kFsync,
  kRename,
  kMmap,
};
inline constexpr std::size_t kNumOps = 10;

const char* op_name(Op op) noexcept;
std::optional<Op> op_from_name(std::string_view name) noexcept;

/// Per-op fault probabilities.  `short_io` only applies to the four
/// byte-count ops (read/write/send/recv); the rest ignore it.
struct OpSchedule {
  double eintr = 0.0;     ///< probability of an injected EINTR
  double short_io = 0.0;  ///< probability of a truncated byte count
  double error = 0.0;     ///< probability of failing with `error_errno`
  int error_errno = EIO;
  std::uint64_t fail_after = 0;  ///< one-shot: the Nth call (1-based) fails
  int fail_errno = EIO;
};

struct Schedule {
  std::uint64_t seed = 2005;
  std::array<OpSchedule, kNumOps> ops{};
};

/// Parses the GSB_FAULT_SCHEDULE grammar: semicolon-separated clauses of
/// `seed=N`, `<op>.eintr=P`, `<op>.short=P`, `<op>.error=ERRNO:P`, or
/// `<op>.fail_after=N:ERRNO`, e.g.
///   "seed=7;write.eintr=0.2;fsync.error=EIO:0.01;recv.fail_after=3:ECONNRESET"
/// Recognised errno names: EIO, ENOSPC, ECONNRESET, EPIPE, EAGAIN,
/// ETIMEDOUT, EACCES, EMFILE.  Throws std::runtime_error on malformed
/// input (probabilities must be in [0, 1)).
Schedule parse_schedule(const std::string& text);

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The one branch every intercepted call site pays when no faults are
/// scheduled.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

struct Decision {
  enum class Kind { kNone, kEintr, kShort, kError };
  Kind kind = Kind::kNone;
  int injected_errno = 0;  ///< errno to surface for kEintr/kError
  std::size_t count = 0;   ///< truncated byte count for kShort
};

/// Consulted by the util::io wrappers once per intercepted call (after
/// the enabled() gate).  Thread-safe; deterministic per (op, call
/// number) under a fixed seed.
Decision decide(Op op, std::size_t requested) noexcept;

/// Installs `schedule` process-wide, resets the per-op call counters,
/// and enables the shim.  A decide() already running finishes on the
/// schedule it started with.
void install(const Schedule& schedule);

/// Disables the shim; the schedule stays installed.
void disable() noexcept;

/// Faults injected since the last install() (also exported through the
/// metrics registry as gsb_faults_injected_total).
std::uint64_t injected_total() noexcept;

/// Reads GSB_FAULT_SCHEDULE and installs it when present.  Returns
/// false when the variable is unset; throws on a malformed schedule.
bool install_from_env();

/// RAII enable for tests: installs on construction, disables on
/// destruction.
class ScheduleScope {
 public:
  explicit ScheduleScope(const Schedule& schedule) { install(schedule); }
  ~ScheduleScope() { disable(); }
  ScheduleScope(const ScheduleScope&) = delete;
  ScheduleScope& operator=(const ScheduleScope&) = delete;
};

}  // namespace gsb::fault

#endif  // GSB_UTIL_FAULT_INJECTION_H
