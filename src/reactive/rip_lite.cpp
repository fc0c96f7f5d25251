#include "reactive/rip_lite.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "util/log.hpp"

namespace drs::reactive {

RipDaemon::RipDaemon(net::Host& host, std::uint16_t node_count, RipConfig config)
    : host_(host),
      node_count_(node_count),
      config_(config),
      advert_timer_(host.simulator(), config.advertise_interval,
                    [this] { advertise(); }),
      sweep_timer_(host.simulator(),
                   std::max(config.route_timeout / 4, util::Duration::millis(10)),
                   [this] { sweep_expired(); }) {
  host_.register_handler(net::Protocol::kRip,
                         [this](const net::Packet& p, net::NetworkId in_if) {
                           on_packet(p, in_if);
                         });
}

RipDaemon::~RipDaemon() { stop(); }

void RipDaemon::start() {
  if (advert_timer_.running()) return;
  advert_timer_.start();
  sweep_timer_.start();
  advertise();  // announce immediately at boot
}

void RipDaemon::stop() {
  advert_timer_.stop();
  sweep_timer_.stop();
}

void RipDaemon::advertise() {
  for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    auto payload = std::make_shared<RipPayload>();
    payload->advertiser = host_.id();
    // Own addresses at metric 1.
    for (net::NetworkId a = 0; a < net::kNetworksPerHost; ++a) {
      payload->entries.push_back(RipAdvert{host_.ip(a), 1});
    }
    // Learned routes at metric+1, with split horizon: never advertise a
    // route back out the interface it was learned on.
    for (const auto& [dst, learned] : learned_) {
      if (learned.in_ifindex == k) continue;
      const auto metric = static_cast<std::uint8_t>(
          std::min<std::uint32_t>(learned.metric + 1u, config_.infinity_metric));
      payload->entries.push_back(RipAdvert{net::Ipv4Addr(dst), metric});
    }

    net::Packet packet;
    packet.dst = net::Ipv4Addr(net::cluster_subnet(k).value() | 0xFFu);
    packet.protocol = net::Protocol::kRip;
    packet.payload = std::move(payload);
    ++metrics_.advertisements_sent;
    host_.broadcast_on(k, std::move(packet));
  }
}

void RipDaemon::sweep_expired() {
  const util::SimTime now = host_.simulator().now();
  bool changed = false;
  for (auto it = learned_.begin(); it != learned_.end();) {
    if (now - it->second.last_heard > config_.route_timeout) {
      host_.routing_table().remove(net::Ipv4Addr(it->first), 32,
                                   net::RouteOrigin::kRip);
      ++metrics_.routes_expired;
      it = learned_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed && config_.triggered_updates) {
    ++metrics_.triggered_updates;
    advertise();
  }
}

void RipDaemon::on_packet(const net::Packet& packet, net::NetworkId in_ifindex) {
  const RipPayload* rip = net::payload_cast<RipPayload>(packet.payload);
  if (rip == nullptr || rip->advertiser == host_.id()) return;
  ++metrics_.advertisements_received;
  const util::SimTime now = host_.simulator().now();

  for (const auto& advert : rip->entries) {
    if (host_.owns_ip(advert.destination)) continue;
    const auto metric = static_cast<std::uint8_t>(std::min<std::uint32_t>(
        advert.metric, config_.infinity_metric));
    auto it = learned_.find(advert.destination.value());
    if (it != learned_.end()) {
      Learned& existing = it->second;
      const bool same_source =
          existing.next_hop == packet.src && existing.in_ifindex == in_ifindex;
      if (same_source) {
        existing.last_heard = now;
        if (metric >= config_.infinity_metric) {
          // Poisoned by the source we trusted: drop immediately.
          host_.routing_table().remove(advert.destination, 32,
                                       net::RouteOrigin::kRip);
          ++metrics_.routes_expired;
          learned_.erase(it);
        } else if (metric != existing.metric) {
          existing.metric = metric;
          install(advert.destination, existing);
        }
      } else if (metric < existing.metric) {
        existing = Learned{in_ifindex, packet.src, metric, now};
        install(advert.destination, existing);
      }
      continue;
    }
    if (metric >= config_.infinity_metric) continue;
    const Learned learned{in_ifindex, packet.src, metric, now};
    learned_.emplace(advert.destination.value(), learned);
    ++metrics_.routes_learned;
    install(advert.destination, learned);
  }
}

void RipDaemon::install(net::Ipv4Addr destination, const Learned& learned) {
  host_.routing_table().install(net::Route{
      .prefix = destination,
      .prefix_len = 32,
      .out_ifindex = learned.in_ifindex,
      .next_hop = learned.next_hop,
      .metric = learned.metric,
      .origin = net::RouteOrigin::kRip,
  });
}

RipSystem::RipSystem(net::ClusterNetwork& network, RipConfig config) {
  for (net::NodeId i = 0; i < network.node_count(); ++i) {
    daemons_.push_back(std::make_unique<RipDaemon>(network.host(i),
                                                   network.node_count(), config));
  }
}

void RipSystem::start() {
  for (auto& daemon : daemons_) daemon->start();
}

void RipSystem::stop() {
  for (auto& daemon : daemons_) daemon->stop();
}

}  // namespace drs::reactive
