#include "core/peer_table.hpp"

#include <utility>

namespace drs::core {

PeerTable::PeerTable(std::vector<net::NodeId> peers)
    : peer_ids_(std::move(peers)),
      seq_(entry_count(), 0),
      sent_ns_(entry_count(), 0),
      deadline_ns_(entry_count(), kNoDeadline) {}

}  // namespace drs::core
