// Chaos suite for the robustness layer: the deterministic fault-injection
// shim (schedule grammar, replayable decisions, env arming), the hardened
// util::io wrappers, FileWriter's crash-safe publish (fault-injected builds
// complete byte-identical to a clean run or leave no artifact and no temp),
// stale-temp detection, truncation/corruption at every 64-byte boundary of
// all three container formats, request deadlines on the stream and TCP
// transports, idle/slow-reader disconnects, and RetryingClient's
// reconnect-and-replay producing byte-identical responses under injected
// connection resets.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "core/bron_kerbosch.h"
#include "graph/graph.h"
#include "pipeline/overlap.h"
#include "service/artifact_verify.h"
#include "service/batch_executor.h"
#include "service/client.h"
#include "service/clique_index.h"
#include "service/graph_catalog.h"
#include "service/server.h"
#include "storage/clique_stream.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "tests/test_helpers.h"
#include "util/fault_injection.h"
#include "util/io.h"

#if defined(__linux__)
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#endif

namespace gsb::service {
namespace {

namespace fs = std::filesystem;

fault::OpSchedule& op(fault::Schedule& s, fault::Op o) {
  return s.ops[static_cast<std::size_t>(o)];
}

/// A per-test scratch directory under the system temp root, removed on
/// destruction so chaos runs never leak artifacts between tests.
struct ScratchDir {
  fs::path dir;

  explicit ScratchDir(const std::string& stem) {
    dir = fs::temp_directory_path() /
          (stem + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct Built {
  std::string gsbg;
  std::string gsbc;
  std::string gsbci;
};

/// Builds all three container formats from `g` under whatever fault
/// schedule is currently installed.
Built build_artifacts(const graph::Graph& g, const ScratchDir& d,
                      const std::string& stem) {
  Built b;
  b.gsbg = d.path(stem + ".gsbg");
  b.gsbc = d.path(stem + ".gsbc");
  b.gsbci = default_index_path(b.gsbc);
  storage::write_gsbg_file(g, b.gsbg);
  storage::GsbcWriter writer(b.gsbc, g.order());
  core::degeneracy_bk(g, [&](std::span<const graph::VertexId> clique) {
    writer.append(clique);
  });
  writer.close();
  build_clique_index(b.gsbc, b.gsbci);
  return b;
}

GraphSpec spec_for(const Built& b) {
  GraphSpec spec;
  spec.graph_path = b.gsbg;
  spec.cliques_path = b.gsbc;
  spec.probe_index = true;
  return spec;
}

// -- schedule grammar --------------------------------------------------------

TEST(FaultSchedule, ParsesFullGrammar) {
  const auto s = fault::parse_schedule(
      "seed=7;write.eintr=0.25;read.short=0.5;fsync.error=ENOSPC:0.125;"
      "recv.fail_after=3:ECONNRESET");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_DOUBLE_EQ(s.ops[static_cast<std::size_t>(fault::Op::kWrite)].eintr,
                   0.25);
  EXPECT_DOUBLE_EQ(s.ops[static_cast<std::size_t>(fault::Op::kRead)].short_io,
                   0.5);
  const auto& fsync = s.ops[static_cast<std::size_t>(fault::Op::kFsync)];
  EXPECT_DOUBLE_EQ(fsync.error, 0.125);
  EXPECT_EQ(fsync.error_errno, ENOSPC);
  const auto& recv = s.ops[static_cast<std::size_t>(fault::Op::kRecv)];
  EXPECT_EQ(recv.fail_after, 3u);
  EXPECT_EQ(recv.fail_errno, ECONNRESET);
}

TEST(FaultSchedule, RejectsMalformedClauses) {
  EXPECT_THROW(fault::parse_schedule("write.eintr=1.0"), std::runtime_error);
  EXPECT_THROW(fault::parse_schedule("nosuchop.eintr=0.1"),
               std::runtime_error);
  EXPECT_THROW(fault::parse_schedule("write.error=EBOGUS:0.1"),
               std::runtime_error);
  EXPECT_THROW(fault::parse_schedule("write.eintr"), std::runtime_error);
  EXPECT_THROW(fault::parse_schedule("seed=banana"), std::runtime_error);
}

TEST(FaultSchedule, OpNamesRoundTrip) {
  for (std::size_t i = 0; i < fault::kNumOps; ++i) {
    const auto o = static_cast<fault::Op>(i);
    const auto back = fault::op_from_name(fault::op_name(o));
    ASSERT_TRUE(back.has_value()) << fault::op_name(o);
    EXPECT_EQ(*back, o);
  }
  EXPECT_FALSE(fault::op_from_name("nosuchop").has_value());
}

TEST(FaultSchedule, DecisionsReplayDeterministically) {
  fault::Schedule s;
  s.seed = 99;
  op(s, fault::Op::kWrite) = {.eintr = 0.4, .short_io = 0.4};

  const auto run = [&s] {
    fault::ScheduleScope scope(s);
    std::vector<std::pair<int, std::size_t>> log;
    for (int i = 0; i < 300; ++i) {
      const auto d = fault::decide(fault::Op::kWrite, 4096);
      log.emplace_back(static_cast<int>(d.kind), d.count);
    }
    return log;
  };

  const auto first = run();
  EXPECT_EQ(first, run()) << "same schedule must replay the same faults";
  std::size_t injected = 0;
  for (const auto& [kind, count] : first) {
    if (kind != static_cast<int>(fault::Decision::Kind::kNone)) ++injected;
  }
  EXPECT_GT(injected, 0u) << "a 40%/40% schedule must actually fire";
}

TEST(FaultSchedule, InstallFromEnvArmsAndRejects) {
  ASSERT_EQ(::setenv("GSB_FAULT_SCHEDULE", "seed=3;write.eintr=0.1", 1), 0);
  EXPECT_TRUE(fault::install_from_env());
  EXPECT_TRUE(fault::enabled());
  fault::disable();

  ASSERT_EQ(::setenv("GSB_FAULT_SCHEDULE", "write.eintr=2.0", 1), 0);
  EXPECT_THROW(fault::install_from_env(), std::runtime_error);
  fault::disable();

  ASSERT_EQ(::unsetenv("GSB_FAULT_SCHEDULE"), 0);
  EXPECT_FALSE(fault::install_from_env());
  EXPECT_FALSE(fault::enabled());
}

// -- io wrappers under faults ------------------------------------------------

std::vector<char> patterned(std::size_t n) {
  std::vector<char> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<char>(i * 31 + 7);
  }
  return data;
}

TEST(IoWrappers, WriteFullSurvivesEintrStormsAndShortWrites) {
  ScratchDir d("gsb_rb_write_full");
  const std::string path = d.path("payload.bin");
  const auto data = patterned(1u << 20);

  fault::Schedule s;
  op(s, fault::Op::kWrite) = {.eintr = 0.5, .short_io = 0.5};
  {
    fault::ScheduleScope scope(s);
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(util::io::write_full(fd, data.data(), data.size()));
    ::close(fd);
    EXPECT_GT(fault::injected_total(), 0u);
  }
  const std::string back = read_bytes(path);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(IoWrappers, ReadFullSurvivesEintrStormsAndShortReads) {
  ScratchDir d("gsb_rb_read_full");
  const std::string path = d.path("payload.bin");
  const auto data = patterned(1u << 20);
  write_bytes(path, std::string(data.data(), data.size()));

  fault::Schedule s;
  op(s, fault::Op::kRead) = {.eintr = 0.5, .short_io = 0.5};
  std::vector<char> back(data.size());
  {
    fault::ScheduleScope scope(s);
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(util::io::read_full(fd, back.data(), back.size()));
    ::close(fd);
    EXPECT_GT(fault::injected_total(), 0u);
  }
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(IoWrappers, InjectedErrnoSurfacesThroughWriteFull) {
  ScratchDir d("gsb_rb_write_errno");
  fault::Schedule s;
  op(s, fault::Op::kWrite) = {.fail_after = 1, .fail_errno = ENOSPC};
  fault::ScheduleScope scope(s);

  const int fd =
      ::open(d.path("doomed.bin").c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  const char byte = 'x';
  EXPECT_FALSE(util::io::write_full(fd, &byte, 1));
  EXPECT_EQ(errno, ENOSPC);
  ::close(fd);
}

// -- FileWriter crash safety -------------------------------------------------

TEST(FileWriterCrashSafety, CommitPublishesAtomicallyAndRemovesTemp) {
  ScratchDir d("gsb_rb_fw_commit");
  const std::string path = d.path("artifact.bin");
  const auto data = patterned(100000);

  util::io::FileWriter writer(path);
  const std::string temp = writer.temp_path();
  writer.write(data.data(), data.size());
  EXPECT_FALSE(fs::exists(path));
  writer.commit();

  EXPECT_FALSE(fs::exists(temp));
  const std::string back = read_bytes(path);
  ASSERT_EQ(back.size(), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

/// Shared body: a FileWriter session that dies under `s` must leave the
/// final path untouched and unlink its temp.
void expect_all_or_nothing(const fault::Schedule& s, const std::string& path) {
  const std::string temp = util::io::temp_path_for(path);
  {
    fault::ScheduleScope scope(s);
    const auto data = patterned(4096);
    EXPECT_THROW(
        {
          util::io::FileWriter writer(path);
          writer.write(data.data(), data.size());
          writer.commit();
        },
        std::runtime_error);
  }
  EXPECT_FALSE(fs::exists(path)) << "failed commit must not publish";
  EXPECT_FALSE(fs::exists(temp)) << "failed commit must not leak its temp";
}

TEST(FileWriterCrashSafety, FailedWriteLeavesNoArtifactAndNoTemp) {
  ScratchDir d("gsb_rb_fw_write");
  fault::Schedule s;
  op(s, fault::Op::kWrite) = {.fail_after = 1, .fail_errno = ENOSPC};
  expect_all_or_nothing(s, d.path("artifact.bin"));
}

TEST(FileWriterCrashSafety, FailedFsyncLeavesNoArtifactAndNoTemp) {
  ScratchDir d("gsb_rb_fw_fsync");
  fault::Schedule s;
  op(s, fault::Op::kFsync) = {.fail_after = 1, .fail_errno = EIO};
  expect_all_or_nothing(s, d.path("artifact.bin"));
}

TEST(FileWriterCrashSafety, FailedRenameLeavesNoArtifactAndNoTemp) {
  ScratchDir d("gsb_rb_fw_rename");
  fault::Schedule s;
  op(s, fault::Op::kRename) = {.fail_after = 1, .fail_errno = EIO};
  expect_all_or_nothing(s, d.path("artifact.bin"));
}

// -- chaos builds ------------------------------------------------------------

TEST(ChaosBuilds, ArtifactsByteIdenticalUnderRecoverableFaults) {
  ScratchDir d("gsb_rb_chaos_build");
  const auto g = test::random_graph(60, 0.3, 77);

  const Built clean = build_artifacts(g, d, "clean");

  fault::Schedule s;
  s.seed = 41;
  op(s, fault::Op::kRead) = {.eintr = 0.3, .short_io = 0.3};
  op(s, fault::Op::kWrite) = {.eintr = 0.3, .short_io = 0.3};
  op(s, fault::Op::kFsync) = {.eintr = 0.5};
  op(s, fault::Op::kOpen) = {.eintr = 0.5};
  Built faulted;
  {
    fault::ScheduleScope scope(s);
    faulted = build_artifacts(g, d, "faulted");
    EXPECT_GT(fault::injected_total(), 0u) << "the schedule must engage";
  }

  EXPECT_EQ(read_bytes(clean.gsbg), read_bytes(faulted.gsbg));
  EXPECT_EQ(read_bytes(clean.gsbc), read_bytes(faulted.gsbc));
  EXPECT_EQ(read_bytes(clean.gsbci), read_bytes(faulted.gsbci));

  // Nothing recoverable may leak a temp file.
  for (const auto& entry : fs::directory_iterator(d.dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

/// One full pipeline pass: tiled out-of-core correlation -> .gsbg ->
/// mapped analysis -> .gsbc clique stream.  `overlap` routes the
/// analysis stages through the DAG scheduler (with the prefetch job);
/// staged runs them inline.  Analysis threads stay at 1 so the clique
/// emission order is the sequential one in both modes — the comparison
/// then isolates the scheduler and the fault shim.
void run_pipeline_to_artifacts(const bio::ExpressionMatrix& expression,
                               const std::string& gsbg_path,
                               const std::string& gsbc_path, bool overlap) {
  bio::TiledCorrelationOptions tiled;
  tiled.threshold = 0.55;
  tiled.tile_rows = 48;
  tiled.threads = 2;
  bio::build_correlation_gsbg(expression, gsbg_path, tiled);

  const auto mapped = storage::MappedGraph::open(gsbg_path);
  pipeline::AnalysisOptions analysis;
  analysis.range = core::SizeRange{3, 0};
  analysis.threads = 1;
  analysis.clique_out = gsbc_path;
  analysis.overlap = overlap;
  if (overlap) analysis.prefetch = &mapped;
  pipeline::run_analysis(mapped.view(), analysis);
}

TEST(ChaosBuilds, OverlappedPipelineUnderFaultsMatchesCleanStagedRun) {
  ScratchDir d("gsb_rb_chaos_overlap");
  util::Rng rng(2005);
  bio::MicroarrayConfig config;
  config.genes = 120;
  config.samples = 24;
  config.modules = 6;
  auto data = bio::generate_microarray(config, rng);
  bio::quantile_normalize(data.expression);

  run_pipeline_to_artifacts(data.expression, d.path("clean.gsbg"),
                            d.path("clean.gsbc"), /*overlap=*/false);

  fault::Schedule s;
  s.seed = 19;
  op(s, fault::Op::kRead) = {.eintr = 0.3, .short_io = 0.3};
  op(s, fault::Op::kWrite) = {.eintr = 0.3, .short_io = 0.3};
  op(s, fault::Op::kFsync) = {.eintr = 0.5};
  op(s, fault::Op::kOpen) = {.eintr = 0.5};
  {
    fault::ScheduleScope scope(s);
    run_pipeline_to_artifacts(data.expression, d.path("faulted.gsbg"),
                              d.path("faulted.gsbc"), /*overlap=*/true);
    EXPECT_GT(fault::injected_total(), 0u) << "the schedule must engage";
  }

  EXPECT_EQ(read_bytes(d.path("clean.gsbg")),
            read_bytes(d.path("faulted.gsbg")));
  EXPECT_EQ(read_bytes(d.path("clean.gsbc")),
            read_bytes(d.path("faulted.gsbc")));
  for (const auto& entry : fs::directory_iterator(d.dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

TEST(ChaosBuilds, FatalFaultsLeaveNoArtifactForAnyFormat) {
  ScratchDir d("gsb_rb_fatal_build");
  const auto g = test::random_graph(60, 0.3, 77);

  {  // .gsbg: the very first payload write hits ENOSPC.
    const std::string path = d.path("dead.gsbg");
    fault::Schedule s;
    op(s, fault::Op::kWrite) = {.fail_after = 1, .fail_errno = ENOSPC};
    fault::ScheduleScope scope(s);
    EXPECT_THROW(storage::write_gsbg_file(g, path), std::runtime_error);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(util::io::temp_path_for(path)));
  }
  {  // .gsbc: the commit-time fsync reports EIO.
    const std::string path = d.path("dead.gsbc");
    fault::Schedule s;
    op(s, fault::Op::kFsync) = {.fail_after = 1, .fail_errno = EIO};
    fault::ScheduleScope scope(s);
    EXPECT_THROW(
        {
          storage::GsbcWriter writer(path, g.order());
          core::degeneracy_bk(g,
                              [&](std::span<const graph::VertexId> clique) {
                                writer.append(clique);
                              });
          writer.close();
        },
        std::runtime_error);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(util::io::temp_path_for(path)));
  }
  {  // .gsbci: the atomic-publish rename fails.
    const Built b = build_artifacts(g, d, "source");
    const std::string index = d.path("dead.gsbci");
    fault::Schedule s;
    op(s, fault::Op::kRename) = {.fail_after = 1, .fail_errno = EIO};
    fault::ScheduleScope scope(s);
    EXPECT_THROW(build_clique_index(b.gsbc, index), std::runtime_error);
    EXPECT_FALSE(fs::exists(index));
    EXPECT_FALSE(fs::exists(util::io::temp_path_for(index)));
  }
}

// -- stale temp scan ---------------------------------------------------------

TEST(StaleTemps, ReportsDeadPidTempsOnly) {
  ScratchDir d("gsb_rb_stale");

  // A pid that is guaranteed dead: fork a child that exits immediately.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  const std::string stale =
      d.path("a.gsbc.tmp." + std::to_string(static_cast<long>(child)));
  const std::string live =
      d.path("b.gsbg.tmp." + std::to_string(static_cast<long>(::getpid())));
  write_bytes(stale, "partial");
  write_bytes(live, "in-flight");
  write_bytes(d.path("c.gsbc.tmp.notapid"), "not a temp");
  write_bytes(d.path("d.gsbc"), "a real artifact name");

  const auto found = util::io::find_stale_temps(d.dir.string());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].path, stale);
  EXPECT_EQ(found[0].pid, static_cast<long>(child));
}

// -- truncation / corruption at every 64-byte boundary -----------------------

TEST(ContainerDamage, TruncationAtEveryBoundaryFailsTyped) {
  ScratchDir d("gsb_rb_truncate");
  const auto g = test::random_graph(60, 0.3, 77);
  const Built b = build_artifacts(g, d, "whole");

  for (const std::string& src : {b.gsbg, b.gsbc, b.gsbci}) {
    const std::string bytes = read_bytes(src);
    ASSERT_GT(bytes.size(), 64u) << src;
    const std::string damaged = d.path("truncated.bin");
    for (std::size_t cut = 0; cut < bytes.size(); cut += 64) {
      write_bytes(damaged, bytes.substr(0, cut));
      EXPECT_THROW(verify_artifact(damaged), std::runtime_error)
          << src << " truncated to " << cut << " bytes";
    }
    // One byte short of complete must fail too.
    write_bytes(damaged, bytes.substr(0, bytes.size() - 1));
    EXPECT_THROW(verify_artifact(damaged), std::runtime_error)
        << src << " truncated by one byte";
  }
}

TEST(ContainerDamage, BitFlipAtEveryBoundaryFailsTyped) {
  ScratchDir d("gsb_rb_corrupt");
  const auto g = test::random_graph(60, 0.3, 77);
  const Built b = build_artifacts(g, d, "whole");

  for (const std::string& src : {b.gsbg, b.gsbc, b.gsbci}) {
    const std::string bytes = read_bytes(src);
    const std::string damaged = d.path("corrupt.bin");

    // A flipped magic byte must be rejected as an unknown container.
    std::string broken_magic = bytes;
    broken_magic[0] = static_cast<char>(broken_magic[0] ^ 0xFF);
    write_bytes(damaged, broken_magic);
    EXPECT_THROW(verify_artifact(damaged), std::runtime_error) << src;

    // A flipped payload byte at any 64-byte boundary must fail the
    // checksum (or a structural check) — never crash.
    for (std::size_t offset = 64; offset < bytes.size(); offset += 64) {
      std::string corrupt = bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0xFF);
      write_bytes(damaged, corrupt);
      EXPECT_THROW(verify_artifact(damaged), std::runtime_error)
          << src << " flipped at " << offset;
    }
  }
}

TEST(VerifyArtifact, AcceptsHealthyArtifactsAndNamesTheirKind) {
  ScratchDir d("gsb_rb_verify_ok");
  const auto g = test::random_graph(60, 0.3, 77);
  const Built b = build_artifacts(g, d, "whole");

  EXPECT_TRUE(verify_artifact(b.gsbg).starts_with("ok gsbg '"));
  EXPECT_TRUE(verify_artifact(b.gsbc).starts_with("ok gsbc '"));
  EXPECT_TRUE(verify_artifact(b.gsbci).starts_with("ok gsbci '"));
}

TEST(VerifyArtifact, RejectsUnknownMagicAndMissingFiles) {
  ScratchDir d("gsb_rb_verify_bad");
  const std::string unknown = d.path("mystery.bin");
  write_bytes(unknown, "NOTMAGIC plus some trailing payload bytes");
  EXPECT_THROW(verify_artifact(unknown), std::runtime_error);
  EXPECT_THROW(verify_artifact(d.path("does-not-exist.gsbg")),
               std::runtime_error);
}

// -- stream-transport request deadlines --------------------------------------

constexpr char kDeadlineError[] = "error: deadline exceeded";

TEST(StreamDeadline, ShedsTypedErrorsInOrderAndCountsTimeouts) {
  ScratchDir d("gsb_rb_stream_deadline");
  const auto g = test::random_graph(32, 0.3, 13);
  const Built b = build_artifacts(g, d, "g");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(b));

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // Reference answer from an untimed run.
    std::string reference;
    {
      std::istringstream in("degree 5\nshutdown\n");
      std::ostringstream out;
      ServeOptions options;
      options.threads = threads;
      serve_stream(entry, in, out, options);
      std::istringstream lines(out.str());
      ASSERT_TRUE(std::getline(lines, reference));
      ASSERT_TRUE(reference.starts_with("degree 5:")) << reference;
    }

    constexpr std::size_t kRequests = 40000;
    std::string script;
    for (std::size_t i = 0; i < kRequests; ++i) script += "degree 5\n";
    script += "stats\nshutdown\n";

    std::istringstream in(script);
    std::ostringstream out;
    ServeOptions options;
    options.threads = threads;
    options.request_timeout_ms = 2;
    const auto stats = serve_stream(entry, in, out, options);

    std::istringstream lines(out.str());
    std::string line;
    std::size_t ok = 0, shed = 0, index = 0;
    std::string stats_line;
    while (std::getline(lines, line)) {
      if (index < kRequests) {
        if (line == reference) {
          ++ok;
        } else {
          EXPECT_EQ(line, kDeadlineError) << "request " << index;
          ++shed;
        }
      } else if (index == kRequests) {
        stats_line = line;
      } else {
        EXPECT_EQ(line, "ok shutdown");
      }
      ++index;
    }
    EXPECT_EQ(index, kRequests + 2);
    EXPECT_GE(ok, 1u) << "the first request must beat a 2ms deadline";
    EXPECT_GE(shed, 1u) << "40k requests cannot all fit in 2ms";
    EXPECT_EQ(ok + shed, kRequests);
    EXPECT_EQ(stats.timeouts, shed);
    EXPECT_NE(stats_line.find(" timeouts="), std::string::npos) << stats_line;
  }
}

TEST(StreamDeadline, StatsLineOmitsTimeoutsUnlessConfigured) {
  ScratchDir d("gsb_rb_stream_stats");
  const auto g = test::random_graph(24, 0.3, 13);
  const Built b = build_artifacts(g, d, "g");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(b));

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    {  // Default options: the stats line stays byte-compatible.
      std::istringstream in("stats\nshutdown\n");
      std::ostringstream out;
      ServeOptions options;
      options.threads = threads;
      serve_stream(entry, in, out, options);
      EXPECT_EQ(out.str().find(" timeouts="), std::string::npos) << out.str();
    }
    {  // A configured (generous) deadline reports the counter.
      std::istringstream in("stats\nshutdown\n");
      std::ostringstream out;
      ServeOptions options;
      options.threads = threads;
      options.request_timeout_ms = 60000;
      serve_stream(entry, in, out, options);
      EXPECT_NE(out.str().find(" timeouts=0"), std::string::npos) << out.str();
    }
  }
}

// -- TCP transport: deadlines, idle/slow-reader closes, retry-and-replay -----

#if defined(__linux__)

using test::loopback_tcp;
using test::ServerFixture;

std::uint64_t stats_field(const std::string& line, const std::string& key) {
  const auto pos = line.find(" " + key + "=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + key.size() + 2, nullptr, 10);
}

TEST(TcpRobustness, RequestDeadlineProducesTypedErrorsInOrder) {
  ScratchDir d("gsb_rb_tcp_deadline");
  const auto g = test::random_graph(32, 0.3, 13);
  const Built b = build_artifacts(g, d, "g");

  ServeOptions options;
  options.request_timeout_ms = 5;
  options.max_pipeline = 1u << 20;  // the deadline, not admission, sheds
  ServerFixture fx(spec_for(b), loopback_tcp(), 1, options);

  auto client = ServiceClient::connect_tcp(fx.address());
  const std::string reference = client.request("degree 5");
  ASSERT_TRUE(reference.starts_with("degree 5:")) << reference;

  const std::vector<std::string> lines(40000, "degree 5");
  const auto responses = client.request_pipelined(lines);
  ASSERT_EQ(responses.size(), lines.size());
  std::size_t ok = 0, shed = 0;
  for (const auto& r : responses) {
    if (r == reference) {
      ++ok;
    } else {
      ASSERT_EQ(r, kDeadlineError);
      ++shed;
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(shed, 1u) << "40k single-threaded requests cannot all meet 5ms";

  const std::string stats_line = client.request("stats");
  EXPECT_EQ(stats_field(stats_line, "timeouts"), shed) << stats_line;
}

TEST(TcpRobustness, IdleConnectionIsClosedAndCounted) {
  ScratchDir d("gsb_rb_tcp_idle");
  const auto g = test::random_graph(24, 0.3, 13);
  const Built b = build_artifacts(g, d, "g");

  ServeOptions options;
  options.idle_timeout_ms = 60;
  ServerFixture fx(spec_for(b), loopback_tcp(), 2, options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Say nothing; the server must close the connection on its own.
  timeval rcv_timeout{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout,
               sizeof(rcv_timeout));
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "expected EOF from idle close";
  ::close(fd);

  auto control = ServiceClient::connect_tcp(fx.address());
  const std::string stats_line = control.request("stats");
  EXPECT_GE(stats_field(stats_line, "timeouts"), 1u) << stats_line;
}

TEST(TcpRobustness, SlowReaderIsDisconnectedByWriteTimeout) {
  ScratchDir d("gsb_rb_tcp_slow");
  const auto g = test::random_graph(64, 0.5, 13);
  const Built b = build_artifacts(g, d, "g");

  ServeOptions options;
  options.write_timeout_ms = 100;
  options.max_pipeline = 1u << 20;  // answer everything; volume is the test
  ServerFixture fx(spec_for(b), loopback_tcp(), 2, options);

  // A client with a tiny receive window that floods queries and never
  // reads: the server's writes stall, and the write timeout must
  // disconnect it instead of buffering forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  timeval snd_timeout{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd_timeout,
               sizeof(snd_timeout));

  // Enough response volume to overflow what the kernel alone can buffer
  // toward a zero-window peer (tcp_wmem autotunes to a few MB on
  // loopback), so the server's userland output queue must stall.
  std::string flood;
  for (int i = 0; i < 80000; ++i) {
    flood += "neighbors " + std::to_string(i % 64) + "\n";
  }
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // the server already reset us — also a pass
    sent += static_cast<std::size_t>(n);
  }

  // The server must record a write timeout within a few stall periods.
  auto control = ServiceClient::connect_tcp(fx.address());
  std::uint64_t timeouts = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    timeouts = stats_field(control.request("stats"), "timeouts");
    if (timeouts >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(timeouts, 1u) << "slow reader was never disconnected";
  ::close(fd);
}

/// A workload touching every query kind, with deliberate errors mixed in.
std::vector<std::string> retry_workload(const graph::Graph& g,
                                        std::size_t repeats) {
  std::vector<std::string> lines;
  const auto n = static_cast<graph::VertexId>(g.order());
  for (std::size_t r = 0; r < repeats; ++r) {
    for (graph::VertexId v = 0; v < n; v += 3) {
      lines.push_back("neighbors " + std::to_string(v));
      lines.push_back("degree " + std::to_string(v));
      lines.push_back("cliques-containing " + std::to_string(v));
      lines.push_back("common-neighbors " + std::to_string(v) + " " +
                      std::to_string((v + 1) % n));
    }
    lines.push_back("top-hubs 5");
    lines.push_back("neighbors " + std::to_string(n));  // out of range
    lines.push_back("no-such-query 1");                 // parse error
  }
  return lines;
}

TEST(TcpRobustness, RetryingClientReplaysByteIdenticalAfterInjectedReset) {
  ScratchDir d("gsb_rb_tcp_retry");
  const auto g = test::random_graph(48, 0.3, 41);
  const Built b = build_artifacts(g, d, "g");
  ServerFixture fx(spec_for(b), loopback_tcp(), 2);

  const auto lines = retry_workload(g, 10);
  std::vector<std::string> reference;
  {
    auto clean = ServiceClient::connect_tcp(fx.address());
    reference = clean.request_pipelined(lines);
  }

  // Exactly one injected ECONNRESET, early in the exchange.  Whichever
  // side's recv it lands on, the session breaks mid-pipeline and the
  // client must reconnect and replay the unanswered suffix.
  fault::Schedule s;
  s.seed = 7;
  op(s, fault::Op::kRecv) = {.fail_after = 3, .fail_errno = ECONNRESET};
  {
    fault::ScheduleScope scope(s);
    RetryPolicy policy;
    policy.retries = 5;
    policy.timeout_ms = 10000;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 10;
    RetryingClient client(fx.address(), /*unix_socket=*/false, policy);
    const auto responses = client.request_pipelined(lines);
    EXPECT_EQ(responses, reference)
        << "replayed session must be byte-identical to the clean one";
    EXPECT_GE(client.reconnects(), 1u);
    EXPECT_GE(fault::injected_total(), 1u);
  }
}

TEST(TcpRobustness, RetryingClientGivesUpAfterItsBudget) {
  RetryPolicy policy;
  policy.retries = 2;
  policy.timeout_ms = 500;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  // Port 9 (discard) has no listener in the test environment.
  RetryingClient client("127.0.0.1:9", /*unix_socket=*/false, policy);
  EXPECT_THROW(client.request("ping"), std::runtime_error);
  EXPECT_GE(client.reconnects(), 2u);
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace gsb::service
