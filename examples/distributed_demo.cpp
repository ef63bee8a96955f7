// Real-process leader election over localhost UDP, under fire.
//
// The parent forks N child processes. Each child binds its own UDP
// socket, hosts the fault-tolerant election engine on a PeerNode over
// UdpTransport (with seeded send-side loss injected under the
// reliability layer), and reports its leader belief to the parent over
// a pipe. Meanwhile a chaos supervisor in the parent SIGKILLs children
// mid-election — no goodbye, no flushed state — and forks replacements
// that rejoin knowing nothing. The run succeeds when every chaos round
// has happened and every live process agrees on one leader that some
// process actually declared.
//
//   ./distributed_demo [--n=16] [--f=2] [--loss=0.10] [--kills=2]
//                      [--seed=1] [--base-port=47100] [--timeout-s=60]
//                      [--trace-dir=PATH]
//
// With --trace-dir every child records a causal trace and flushes it as
// a shard file (atomic tmp+rename, so a SIGKILLed victim's last flush
// always parses), ships metrics snapshots to the supervisor over the
// report pipe, and on orderly shutdown (SIGTERM) writes a final
// complete shard. Merge the shards afterwards with
// `celect_trace merge DIR/shard-*.trace`.
//
// Exits 0 on agreement, 1 on timeout/split, 2 if sockets cannot bind.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "celect/net/clock.h"
#include "celect/net/peer_node.h"
#include "celect/net/report.h"
#include "celect/net/udp_transport.h"
#include "celect/obs/shard.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/util/flags.h"
#include "celect/util/rng.h"

namespace {

using namespace celect;
using net::Micros;

struct Options {
  std::uint32_t n = 16;
  std::uint32_t f = 2;
  double loss = 0.10;
  std::uint32_t kills = 2;
  std::uint64_t seed = 1;
  std::uint16_t base_port = 47100;
  std::uint64_t timeout_s = 60;
  std::string trace_dir;  // empty = observability off
};

volatile std::sig_atomic_t g_terminate = 0;
void OnTerm(int) { g_terminate = 1; }

// Best-effort shard flush: serialize, write to a tmp file, rename into
// place. The rename is atomic, so a reader (or the post-run merge)
// never sees a half-written shard — a SIGKILL between flushes just
// means the last complete=false flush is the incarnation's record.
void WriteShard(const std::string& dir, const net::PeerNode& node,
                const net::Transport& transport, bool complete) {
  obs::TraceShard shard = node.MakeShard(complete, transport.Stats());
  std::string text = obs::SerializeShard(shard);
  std::string base = dir + "/shard-n" + std::to_string(shard.node) +
                     "-e" + std::to_string(shard.epoch) + ".trace";
  std::string tmp = base + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  std::size_t off = 0;
  while (off < text.size()) {
    ssize_t put = ::write(fd, text.data() + off, text.size() - off);
    if (put <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return;
    }
    off += static_cast<std::size_t>(put);
  }
  ::close(fd);
  ::rename(tmp.c_str(), base.c_str());
}

// Seed-shuffled distinct identities, stable across a node's restarts:
// a revived process is the same contestant, minus its memory.
std::vector<sim::Id> MakeIds(std::uint32_t n, std::uint64_t seed) {
  Rng rng(SplitMix64(seed ^ 0xd15c0).Next());
  auto perm = rng.Permutation(n);
  std::vector<sim::Id> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ids[i] = static_cast<sim::Id>(perm[i]) * 7 + 1001;
  }
  return ids;
}

// Writes one report line (net/report.h) down the pipe.
void SendReport(int write_fd, const net::Report& r) {
  dprintf(write_fd, "%s\n", net::FormatReport(r).c_str());
}

// Child main: never returns. Reports over write_fd, one line per belief
// change, declaration or bind failure, plus metrics snapshots in trace
// mode.
[[noreturn]] void RunChild(std::uint32_t index, const Options& opt,
                           sim::Id id, bool rejoin, int write_fd) {
  net::UdpTransportConfig tc;
  tc.self = index;
  tc.n = opt.n;
  tc.base_port = opt.base_port;
  tc.send_loss = opt.loss;
  tc.seed = SplitMix64(opt.seed ^ (std::uint64_t{index} + 1) ^
                       net::HostEpoch())
                .Next();
  // epoch 0 -> HostEpoch(): every incarnation is distinguishable.
  net::UdpTransport transport(tc);
  if (!transport.Open()) {
    SendReport(write_fd, {.kind = net::Report::Kind::kBindFailed,
                          .node = index});
    _exit(2);
  }
  net::PeerNodeConfig pc;
  pc.id = id;
  pc.rejoin = rejoin;
  const bool tracing = !opt.trace_dir.empty();
  if (tracing) {
    pc.trace = true;
    std::signal(SIGTERM, OnTerm);
  }
  net::PeerNode node(pc, transport, proto::nosod::MakeFaultTolerant(opt.f));

  std::optional<sim::Id> reported;
  bool declared = false;
  Micros next_flush = 0;
  Micros next_metrics = 0;
  for (;;) {
    node.Pump();
    if (node.declared_self() && !declared) {
      declared = true;
      SendReport(write_fd, {.kind = net::Report::Kind::kDeclared,
                            .node = index,
                            .leader = *node.leader()});
    }
    if (node.leader() != reported) {
      reported = node.leader();
      SendReport(write_fd, {.kind = net::Report::Kind::kBelief,
                            .node = index,
                            .leader = *reported});
    }
    if (tracing) {
      if (g_terminate) {
        // Orderly shutdown: one last complete shard, then out.
        WriteShard(opt.trace_dir, node, transport, /*complete=*/true);
        _exit(0);
      }
      Micros now = transport.Now();
      if (now >= next_flush) {
        WriteShard(opt.trace_dir, node, transport, /*complete=*/false);
        next_flush = now + 300'000;
      }
      if (now >= next_metrics) {
        const net::TransportStats stats = transport.Stats();
        SendReport(write_fd, {.kind = net::Report::Kind::kMetrics,
                              .node = index,
                              .metrics = node.SnapshotMetrics(stats)});
        next_metrics = now + 500'000;
      }
    }
    if (getppid() == 1) _exit(0);  // orphaned: the parent is gone
    ::usleep(200);
  }
}

struct Child {
  pid_t pid = -1;
  int fd = -1;  // read end of its report pipe
  bool alive = false;
  std::optional<sim::Id> belief;
  std::string buffer;  // partial line accumulator
};

class Supervisor {
 public:
  explicit Supervisor(const Options& opt)
      : opt_(opt), ids_(MakeIds(opt.n, opt.seed)), children_(opt.n) {}

  bool Spawn(std::uint32_t index, bool rejoin) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // Drop every inherited report pipe except our own write end.
      for (const Child& c : children_) {
        if (c.fd >= 0) ::close(c.fd);
      }
      ::close(fds[0]);
      RunChild(index, opt_, ids_[index], rejoin, fds[1]);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    Child& c = children_[index];
    if (c.fd >= 0) ::close(c.fd);  // previous incarnation's pipe
    c = Child{};
    c.pid = pid;
    c.fd = fds[0];
    c.alive = true;
    return true;
  }

  void Kill(std::uint32_t index) {
    Child& c = children_[index];
    if (!c.alive) return;
    ::kill(c.pid, SIGKILL);
    ::waitpid(c.pid, nullptr, 0);
    c.alive = false;
    c.belief.reset();
    std::cout << "  [chaos] SIGKILL node " << index << " (id " << ids_[index]
              << ")\n";
  }

  // Drains report pipes into beliefs / the declared set.
  void Drain() {
    char buf[256];
    for (std::uint32_t i = 0; i < opt_.n; ++i) {
      Child& c = children_[i];
      if (c.fd < 0) continue;
      ssize_t got;
      while ((got = ::read(c.fd, buf, sizeof buf)) > 0) {
        c.buffer.append(buf, static_cast<std::size_t>(got));
      }
      std::size_t nl;
      while ((nl = c.buffer.find('\n')) != std::string::npos) {
        std::string line = c.buffer.substr(0, nl);
        c.buffer.erase(0, nl + 1);
        std::optional<net::Report> r = net::ParseReport(line, opt_.n);
        if (!r || r->node != i) {
          std::cerr << "  [supervisor] ignoring malformed report from node "
                    << i << ": \"" << line << "\"\n";
          continue;
        }
        switch (r->kind) {
          case net::Report::Kind::kBindFailed:
            bind_failed_ = true;
            break;
          case net::Report::Kind::kMetrics:
            // Latest snapshot per node wins (it subsumes every earlier
            // snapshot of the same incarnation).
            if (c.alive) metrics_[i] = std::move(r->metrics);
            break;
          case net::Report::Kind::kDeclared:
          case net::Report::Kind::kBelief:
            if (!c.alive) break;  // late lines from a killed incarnation
            if (r->kind == net::Report::Kind::kDeclared) {
              declared_.insert(r->leader);
            }
            c.belief = r->leader;
            break;
        }
      }
    }
  }

  // All live children unanimous on a leader somebody declared.
  std::optional<sim::Id> Agreement() const {
    std::optional<sim::Id> belief;
    for (const Child& c : children_) {
      if (!c.alive) continue;
      if (!c.belief) return std::nullopt;
      if (belief && *belief != *c.belief) return std::nullopt;
      belief = c.belief;
    }
    if (!belief || declared_.count(*belief) == 0) return std::nullopt;
    return belief;
  }

  // Orderly teardown: SIGTERM first so tracing children flush their
  // final complete shard, escalating to SIGKILL after a grace period.
  void KillAll() {
    for (Child& c : children_) {
      if (c.alive) ::kill(c.pid, SIGTERM);
    }
    Micros waited = 0;
    for (Child& c : children_) {
      if (!c.alive) continue;
      for (;;) {
        pid_t reaped = ::waitpid(c.pid, nullptr, WNOHANG);
        if (reaped == c.pid || reaped < 0) break;
        if (waited >= 2'000'000) {
          ::kill(c.pid, SIGKILL);
          ::waitpid(c.pid, nullptr, 0);
          break;
        }
        ::usleep(10'000);
        waited += 10'000;
      }
      c.alive = false;
    }
    for (Child& c : children_) {
      if (c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
  }

  // Cluster-wide fold of the latest metrics snapshot per node.
  void PrintMetrics() const {
    if (metrics_.empty()) return;
    obs::MetricsRegistry all;
    for (const auto& [node, m] : metrics_) all.MergeFrom(m);
    std::cout << "merged metrics (" << metrics_.size()
              << " reporting nodes):\n";
    for (const auto& [name, value] : all.counters()) {
      std::cout << "  " << name << " = " << value << "\n";
    }
    for (const auto& [name, h] : all.histograms()) {
      std::cout << "  " << name << ": count=" << h.count()
                << " mean=" << h.mean() << " p99=" << h.ApproxQuantile(0.99)
                << "\n";
    }
  }

  int Run() {
    for (std::uint32_t i = 0; i < opt_.n; ++i) {
      if (!Spawn(i, /*rejoin=*/false)) {
        KillAll();
        return 2;
      }
    }
    std::cout << "spawned " << opt_.n << " processes on 127.0.0.1 ports "
              << opt_.base_port << ".." << (opt_.base_port + opt_.n - 1)
              << ", send loss " << opt_.loss << "\n";

    // Chaos schedule: distinct victims, SIGKILLed in waves starting
    // 300ms in, each revived 500ms after its death.
    Rng rng(SplitMix64(opt_.seed ^ 0xc4a05).Next());
    auto victims = rng.Permutation(opt_.n);
    struct Planned {
      Micros at;
      std::uint32_t node;
      bool kill;
    };
    std::vector<Planned> plan;
    for (std::uint32_t k = 0; k < opt_.kills && k < opt_.n; ++k) {
      Micros at = 300'000 + static_cast<Micros>(k) * 400'000;
      plan.push_back({at, victims[k], true});
      plan.push_back({at + 500'000, victims[k], false});
    }

    net::MonotonicClock clock;
    Micros deadline = clock.Now() + opt_.timeout_s * 1'000'000;
    std::size_t plan_idx = 0;
    for (;;) {
      Micros now = clock.Now();
      while (plan_idx < plan.size() && plan[plan_idx].at <= now) {
        const Planned& p = plan[plan_idx++];
        if (p.kill) {
          Kill(p.node);
        } else {
          std::cout << "  [chaos] restart node " << p.node << " (id "
                    << ids_[p.node] << ", rejoin)\n";
          if (!Spawn(p.node, /*rejoin=*/true)) {
            KillAll();
            return 2;
          }
        }
      }
      Drain();
      if (bind_failed_) {
        std::cerr << "a child failed to bind its UDP port\n";
        KillAll();
        return 2;
      }
      if (plan_idx == plan.size()) {
        if (auto leader = Agreement()) {
          std::cout << "agreed: leader id " << *leader << " after "
                    << (clock.Now() / 1000) << " ms ("
                    << declared_.size() << " declaration(s) seen)\n";
          KillAll();
          PrintMetrics();
          if (!opt_.trace_dir.empty()) {
            std::cout << "trace shards in " << opt_.trace_dir << "\n";
          }
          return 0;
        }
      }
      if (now > deadline) {
        std::cerr << "timeout: no agreement after " << opt_.timeout_s
                  << "s\n";
        for (std::uint32_t i = 0; i < opt_.n; ++i) {
          const Child& c = children_[i];
          std::cerr << "  node " << i << " alive=" << c.alive << " belief="
                    << (c.belief ? std::to_string(*c.belief) : "none")
                    << "\n";
        }
        KillAll();
        return 1;
      }
      ::usleep(1000);
    }
  }

 private:
  Options opt_;
  std::vector<sim::Id> ids_;
  std::vector<Child> children_;
  std::set<sim::Id> declared_;
  std::map<std::uint32_t, obs::MetricsRegistry> metrics_;
  bool bind_failed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.n = static_cast<std::uint32_t>(
      flags.GetInt("n", 16, "number of OS processes"));
  opt.f = static_cast<std::uint32_t>(
      flags.GetInt("f", 2, "fault budget of the election engine"));
  opt.loss = flags.GetDouble("loss", 0.10, "send-side datagram loss rate");
  opt.kills = static_cast<std::uint32_t>(
      flags.GetInt("kills", 2, "SIGKILL+restart rounds"));
  opt.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", 1, "seed for ids, loss, and victim choice"));
  opt.base_port = static_cast<std::uint16_t>(
      flags.GetInt("base-port", 47100, "first UDP port on 127.0.0.1"));
  opt.timeout_s = static_cast<std::uint64_t>(
      flags.GetInt("timeout-s", 60, "give up after this many seconds"));
  opt.trace_dir = flags.GetString(
      "trace-dir", "",
      "write per-process trace shards here (and ship metrics)");
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }
  if (opt.n < 2) {
    std::cerr << "need at least two processes\n";
    return 2;
  }
  if (!opt.trace_dir.empty()) {
    ::mkdir(opt.trace_dir.c_str(), 0755);  // EEXIST is fine
  }
  Supervisor sup(opt);
  return sup.Run();
}
