// A scripted Context for driving a single Process by hand.
//
// Protocol tests at the Runtime level check end-to-end outcomes; these
// mocks pin down the per-message semantics — which reply goes out on
// which port for a given incoming packet and local state. Sent packets
// are recorded in order; tests feed packets in and assert on the outbox.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "celect/sim/process.h"

namespace celect::test {

struct SentPacket {
  sim::Port port;
  wire::Packet packet;
};

class MockContext : public sim::Context {
 public:
  MockContext(sim::NodeId address, sim::Id id, std::uint32_t n)
      : address_(address), id_(id), n_(n) {}

  // --- Context interface -------------------------------------------
  sim::NodeId address() const override { return address_; }
  sim::Id id() const override { return id_; }
  std::uint32_t n() const override { return n_; }
  sim::Time now() const override { return now_; }
  bool has_sense_of_direction() const override { return sod_; }

  void Send(sim::Port port, wire::Packet p) override {
    sent_.push_back({port, std::move(p)});
  }
  void SendAll(wire::Packet p) override {
    for (sim::Port port = 1; port <= n_ - 1; ++port) {
      sent_.push_back({port, p});
    }
  }
  sim::TimerId SetTimer(sim::Time delay) override {
    timers_.push_back({++last_timer_, now_ + delay});
    return last_timer_;
  }
  void CancelTimer(sim::TimerId timer) override {
    std::erase_if(timers_, [timer](const auto& t) { return t.id == timer; });
  }
  void DeclareLeader() override { ++leader_declarations_; }
  void AddCounter(std::string_view, std::int64_t) override {}
  void MaxCounter(std::string_view, std::int64_t) override {}
  // Keep the CounterRef overloads visible (and inert) despite the
  // string overrides above hiding the base names.
  void AddCounter(const sim::CounterRef&, std::int64_t) override {}
  void MaxCounter(const sim::CounterRef&, std::int64_t) override {}

  // --- scripting helpers -------------------------------------------
  void set_sense_of_direction(bool sod) { sod_ = sod; }
  void set_now(sim::Time t) { now_ = t; }

  const std::vector<SentPacket>& sent() const { return sent_; }
  std::size_t sent_count() const { return sent_.size(); }
  std::uint32_t leader_declarations() const { return leader_declarations_; }

  // Armed (not yet cancelled) timers, in arming order.
  struct ArmedTimer {
    sim::TimerId id;
    sim::Time deadline;
  };
  const std::vector<ArmedTimer>& timers() const { return timers_; }

  // Drops recorded traffic (typically after asserting on it).
  void ClearSent() { sent_.clear(); }

  // The single packet sent since the last Clear; fails the test if the
  // outbox doesn't hold exactly one.
  const SentPacket& single() const {
    EXPECT_EQ(sent_.size(), 1u);
    static const SentPacket kEmpty{0, {}};
    return sent_.empty() ? kEmpty : sent_.front();
  }

  // All packets of a given type.
  std::vector<SentPacket> OfType(std::uint16_t type) const {
    std::vector<SentPacket> out;
    for (const auto& s : sent_) {
      if (s.packet.type == type) out.push_back(s);
    }
    return out;
  }

 private:
  sim::NodeId address_;
  sim::Id id_;
  std::uint32_t n_;
  bool sod_ = true;
  sim::Time now_;
  std::vector<SentPacket> sent_;
  std::vector<ArmedTimer> timers_;
  sim::TimerId last_timer_ = sim::kInvalidTimer;
  std::uint32_t leader_declarations_ = 0;
};

}  // namespace celect::test
