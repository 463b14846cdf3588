#include "net/network.hpp"

#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "sim/debug.hpp"

namespace dpar::net {

Network::Network(sim::Engine& eng, std::uint32_t num_nodes, NetParams params)
    : eng_(eng), params_(params) {
  nics_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    Nic nic;
    // Independent per-sender streams off the one configured seed.
    nic.jitter = sim::Rng(sim::splitmix64(params_.seed ^ (0xa076'1d64'78bd'642fULL + i)));
    nic.rx = std::make_unique<sim::FifoResource>(eng_);
    nics_.push_back(std::move(nic));
  }
}

std::uint64_t Network::messages_sent() const {
  std::uint64_t n = 0;
  for (const Nic& nic : nics_) n += nic.messages;
  return n;
}

std::uint64_t Network::bytes_sent() const {
  std::uint64_t n = 0;
  for (const Nic& nic : nics_) n += nic.bytes;
  return n;
}

void Network::send(NodeId from, NodeId to, std::uint64_t bytes,
                   sim::UniqueFunction delivered) {
  if (from >= nics_.size() || to >= nics_.size())
    throw std::out_of_range("Network::send: bad node id");
  Nic& src = nics_[from];
  ++src.messages;
  src.bytes += bytes;
  if (from == to) {
    // Local delivery: memory copy, no NIC involvement. Charge a token cost so
    // that local cache hits are cheap but not free.
    eng_.after(sim::usec(5) + sim::transfer_time(bytes, 4e9), std::move(delivered));
    return;
  }
  const sim::Time now = eng_.now();
  const std::uint64_t wire_bytes = bytes + params_.per_message_header;
  const sim::Time tx_time = sim::transfer_time(wire_bytes, params_.bandwidth_bytes_per_s);
  // Closed-form TX FIFO: messages leave in submission order, so the finish
  // time needs no completion event — just the running free-at register.
  const sim::Time tx_start = src.tx_free_at > now ? src.tx_free_at : now;
  const sim::Time tx_finish = tx_start + tx_time;
  src.tx_free_at = tx_finish;
  sim::Time hop =
      params_.switch_latency +
      (params_.latency_jitter > 0
           ? static_cast<sim::Time>(src.jitter.uniform(
                 static_cast<std::uint64_t>(params_.latency_jitter)))
           : 0);
  if (injector_) {
    sim::Time extra = 0;
    if (!injector_->net_deliver(from, to, now, extra)) {
      // The message still burned the sender's TX path (accounted above),
      // then vanishes in the fabric: `delivered` is destroyed unfired and
      // the sender finds out by timing out. Jitter was already drawn, so a
      // dropped message perturbs no later message's latency.
      return;
    }
    hop += extra;
  }
  // Arrival = TX drain + switch hop.
  const sim::Time rx_time =
      sim::transfer_time(wire_bytes, params_.bandwidth_bytes_per_s);
  const std::uint32_t slot = transit_.acquire();
  Transit& t = transit_.at(slot);
  t.rx = nics_[to].rx.get();
  t.rx_time = rx_time;
  t.cb = std::move(delivered);
  eng_.at(tx_finish + hop, sim::inline_fn([this, slot] { arrive_(slot); }));
}

void Network::arrive_(std::uint32_t slot) {
  Transit& t = transit_.at(slot);
  sim::FifoResource& rx = *t.rx;
  const sim::Time rx_time = t.rx_time;
  sim::UniqueFunction cb = std::move(t.cb);
  transit_.release(slot);
  rx.submit(rx_time, std::move(cb));
}

}  // namespace dpar::net
