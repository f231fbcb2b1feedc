#ifndef GSB_TESTS_TEST_HELPERS_H
#define GSB_TESTS_TEST_HELPERS_H

/// Shared fixtures for the test suites: seeded random graphs,
/// collector-based wrappers that return normalized clique sets for
/// order-insensitive comparison, and a socket server on a background
/// thread for the service suites.

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "core/clique_enumerator.h"
#include "core/kose.h"
#include "core/parallel_enumerator.h"
#include "core/sublist.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "service/client.h"
#include "service/graph_catalog.h"
#include "service/server.h"
#include "util/rng.h"

namespace gsb::test {

inline graph::Graph random_graph(std::size_t n, double p,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

/// A sub-list in global ids: (prefix, tails, common set).
using SublistKey = std::tuple<core::Clique, std::vector<graph::VertexId>,
                              std::vector<graph::VertexId>>;

/// Every sub-list of \p level in global ids, in level order: tails and
/// common bits are mapped back through the root's universe.
inline std::vector<SublistKey> sublist_keys(const core::Level& level) {
  constexpr std::size_t kBits = bits::BitsetView::kWordBits;
  std::vector<SublistKey> keys;
  level.for_each([&](const core::SublistView& s) {
    SublistKey key;
    auto& [prefix, tails, common] = key;
    prefix.assign(s.prefix.begin(), s.prefix.end());
    for (const std::uint32_t t : s.tails) {
      tails.push_back(s.universe->global(t));
    }
    for (std::size_t j = 0; j < s.universe->width(); ++j) {
      if ((s.common[j / kBits] >> (j % kBits)) & 1u) {
        common.push_back(s.universe->global(static_cast<std::uint32_t>(j)));
      }
    }
    keys.push_back(std::move(key));
  });
  return keys;
}

inline std::vector<core::Clique> run_base_bk(const graph::Graph& g,
                                             const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::base_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_improved_bk(
    const graph::Graph& g, const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::improved_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_clique_enumerator(
    const graph::Graph& g, core::CliqueEnumeratorOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_parallel_enumerator(
    const graph::Graph& g, core::ParallelOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques_parallel(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_kose(const graph::Graph& g,
                                          core::KoseOptions options = {}) {
  core::CliqueCollector out;
  core::kose_ram(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

/// Reference maximal cliques filtered to a size window.
inline std::vector<core::Clique> reference_in_range(
    const graph::Graph& g, const core::SizeRange& range) {
  return core::filter_by_size(core::reference_maximal_cliques(g), range);
}

/// A TCP listener on an ephemeral loopback port.
inline service::Listener loopback_tcp() {
  return service::Listener::tcp("127.0.0.1:0");
}

/// One service::SocketServer over a freshly opened catalog entry, serving
/// on a background thread: a TCP listener (`HOST:0` binds an ephemeral
/// port) or a Unix-domain socket path.  The worker count is explicit so
/// no test depends on the host's core count; with \p with_reload the
/// `reload` request re-opens \p spec under a new epoch.  Destruction
/// sends `shutdown` if the test has not joined the server itself.
struct ServerFixture {
  service::GraphCatalog catalog;
  std::shared_ptr<const service::GraphEntry> entry;
  service::Listener listener;
  std::optional<service::SocketServer> server;
  service::ServeStats stats;
  std::thread thread;  ///< after what it uses: server, stats

  ServerFixture(const service::GraphSpec& spec, service::Listener where,
                std::size_t threads, service::ServeOptions options = {},
                bool with_reload = false)
      : listener(std::move(where)) {
    entry = catalog.open("g", spec);
    options.threads = threads;
    if (with_reload) {
      options.reload = [this, spec] { return catalog.open("g", spec); };
    }
    server.emplace(entry, listener, std::move(options));
    thread = std::thread([this] { stats = server->serve(); });
  }

  /// `HOST:PORT` with the bound port, or the socket path.
  [[nodiscard]] std::string address() const {
    if (listener.family == service::Listener::Family::kUnix) {
      return listener.address;
    }
    const std::string host =
        listener.address.substr(0, listener.address.rfind(':'));
    return host + ":" + std::to_string(server->port());
  }

  [[nodiscard]] service::ServiceClient connect() const {
    return listener.family == service::Listener::Family::kUnix
               ? service::ServiceClient::connect_unix(address())
               : service::ServiceClient::connect_tcp(address());
  }

  void join() { thread.join(); }

  ~ServerFixture() {
    if (thread.joinable()) {
      try {
        connect().request("shutdown");
      } catch (const std::exception&) {
      }
      thread.join();
    }
  }
};

}  // namespace gsb::test

#endif  // GSB_TESTS_TEST_HELPERS_H
