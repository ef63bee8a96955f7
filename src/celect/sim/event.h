// Simulation events.
//
// An Event is 64 bytes, one cache line: sim_flood holds about a million
// of them at once, so their size is most of its memory. A delivery
// carries its packet packed into 32-bit fields (PackedPacket).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <variant>

#include "celect/sim/time.h"
#include "celect/sim/types.h"
#include "celect/wire/packet.h"

namespace celect::sim {

// A base node waking up spontaneously.
struct WakeupEvent {
  NodeId node;
};

// A packet as it waits in the event queue: the type tag plus up to
// three fields, each stored in 32 bits. Every packet the simulator's
// protocols send in bulk fits (D's {id} and {}, EFG's {id, level}, the
// lease wrap's {term, id, level}, chordal's two fields), so a queued
// delivery holds 16 bytes of packet where a wire::Packet takes 64, and
// an Event fits one cache line. A packet with more fields, or with a
// field outside int32, is parked whole in the runtime's spill store
// instead: `spilled` is set and f[0] is the store index (the lease
// engine's four-field grant and renew, which carry an absolute
// deadline in ticks, are the in-tree case).
// Each spilled entry belongs to exactly one queued delivery: the
// runtime gives an injected duplicate its own copy, and frees the
// entry when the delivery is dispatched.
struct PackedPacket {
  static constexpr std::size_t kInlineFields = 3;

  std::uint16_t type = 0;
  std::uint8_t count = 0;    // inline fields in use (0 when spilled)
  std::uint8_t spilled = 0;  // 1: f[0] indexes the spill store
  std::int32_t f[kInlineFields] = {};

  // Packs `p` inline; false when it does not fit (more than three
  // fields or one outside int32), leaving *this unspecified.
  bool PackInline(const wire::Packet& p) {
    const std::size_t n = p.fields.size();
    if (n > kInlineFields) return false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t v = p.fields[i];
      if (v < std::numeric_limits<std::int32_t>::min() ||
          v > std::numeric_limits<std::int32_t>::max()) {
        return false;
      }
      f[i] = static_cast<std::int32_t>(v);
    }
    type = p.type;
    count = static_cast<std::uint8_t>(n);
    spilled = 0;
    return true;
  }
  // The packet an inline PackedPacket holds.
  wire::Packet UnpackInline() const {
    wire::Packet p;
    p.type = type;
    p.fields.assign(f, f + count);
    return p;
  }
  // A spilled packet's store index.
  static PackedPacket Spilled(std::uint16_t type, std::uint32_t index) {
    return PackedPacket{type, 0, 1, {static_cast<std::int32_t>(index), 0, 0}};
  }
  std::uint32_t spill_index() const {
    return static_cast<std::uint32_t>(f[0]);
  }

  friend bool operator==(const PackedPacket&, const PackedPacket&) = default;
};
static_assert(sizeof(PackedPacket) == 16);
static_assert(std::is_trivially_copyable_v<PackedPacket>);

// A packet arriving at `to` on local port `arrival_port`.
//
// The causal metadata is stamped by the runtime at send time and kept
// to three 32-bit words, so with the packed packet a delivery is 40
// bytes and an Event one cache line: the message uid (shared by an
// injected duplicate — it is the same message), the sender's Lamport
// clock, and the link latency in ticks (saturated at 2^32−1; telemetry
// only). 32 bits suffice: uids and clocks count events within one run,
// and a run with 2^32 messages is far beyond anything the queue could
// hold.
struct DeliveryEvent {
  NodeId from;
  NodeId to;
  Port arrival_port;
  std::uint32_t mid = 0;
  std::uint32_t send_clock = 0;
  std::uint32_t latency_ticks = 0;
  PackedPacket packet;
};
static_assert(sizeof(DeliveryEvent) == 40);

// A node crashing mid-run (scheduled by a FaultPlan's time-triggered
// crashes; initial failures are modelled by NetworkConfig::failed and
// never enter the queue).
struct CrashEvent {
  NodeId node;
};

// A crashed node coming back (scheduled by a FaultPlan's rejoins). The
// runtime revives the node with a *fresh* process instance — crashes
// lose all volatile protocol state — and leaves it passive until a
// message, timer, or pending wakeup reaches it. A rejoin addressed to a
// node that never crashed (its trigger did not fire) is a no-op.
struct RejoinEvent {
  NodeId node;
};

// A timer armed via Context::SetTimer firing at `node`. Cancelled timers
// stay in the queue and are discarded at dispatch.
struct TimerEvent {
  NodeId node;
  TimerId timer;
};

using EventBody = std::variant<WakeupEvent, DeliveryEvent, CrashEvent,
                               RejoinEvent, TimerEvent>;

struct Event {
  Time at;
  // Monotone sequence number; breaks ties so the queue is a deterministic
  // total order and simultaneously-scheduled events run in schedule order.
  std::uint64_t seq = 0;
  EventBody body;
};
// One cache line per queued event, and nothing to destroy: the queue's
// arena slots are exactly this size (sim/event_queue.h).
static_assert(sizeof(EventBody) == 48);
static_assert(sizeof(Event) == 64);
static_assert(std::is_trivially_copyable_v<Event>);

// Strict-weak ordering for the event queue: earliest time first, then
// lowest sequence number.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace celect::sim
