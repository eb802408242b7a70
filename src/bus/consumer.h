// Consumer: polls all partitions of a topic, tracking (and optionally
// committing) per-partition offsets under a consumer group.
//
// A freshly constructed consumer resumes from its group's committed offsets
// (Kafka semantics), or from the earliest retained record when the group has
// no commit yet.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bus/broker.h"

namespace dcm::bus {

class Consumer {
 public:
  /// The broker must outlive the consumer. The topic must exist.
  Consumer(Broker& broker, std::string group, std::string topic);

  /// Fetches up to `max_records` across partitions (round-robin), advancing
  /// the in-memory position. Does not commit.
  std::vector<Record> poll(size_t max_records = 256);

  /// Persists current positions to the broker for this group.
  void commit();

  /// Records available but not yet polled.
  int64_t lag() const;

 private:
  Broker* broker_;
  std::string group_;
  std::string topic_name_;
  std::map<int, int64_t> positions_;  // partition -> next offset
};

}  // namespace dcm::bus
