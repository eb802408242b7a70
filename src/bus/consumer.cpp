#include "bus/consumer.h"

#include <algorithm>

#include "common/check.h"

namespace dcm::bus {

Consumer::Consumer(Broker& broker, std::string group, std::string topic)
    : broker_(&broker), group_(std::move(group)), topic_name_(std::move(topic)) {
  Topic* t = broker_->find_topic(topic_name_);
  DCM_CHECK_MSG(t != nullptr, "consumer on unknown topic");
  for (int p = 0; p < t->partition_count(); ++p) {
    const auto committed = broker_->committed_offset(group_, topic_name_, p);
    positions_[p] = committed.value_or(t->partition(p).base_offset());
  }
}

std::vector<Record> Consumer::poll(size_t max_records) {
  Topic* t = broker_->find_topic(topic_name_);
  DCM_CHECK(t != nullptr);
  std::vector<Record> out;
  for (auto& [p, pos] : positions_) {
    if (out.size() >= max_records) break;
    Partition& part = t->partition(p);
    // Retention may have trimmed past our position.
    pos = std::max(pos, part.base_offset());
    auto batch = part.fetch(pos, max_records - out.size());
    if (!batch.empty()) {
      pos = batch.back().offset + 1;
      for (auto& r : batch) out.push_back(std::move(r));
    }
  }
  // Deliver in event-time order so the controller sees one merged stream.
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) { return a.timestamp < b.timestamp; });
  return out;
}

void Consumer::commit() {
  for (const auto& [p, pos] : positions_) {
    broker_->commit_offset(group_, topic_name_, p, pos);
  }
}

int64_t Consumer::lag() const {
  Topic* t = broker_->find_topic(topic_name_);
  DCM_CHECK(t != nullptr);
  int64_t total = 0;
  for (const auto& [p, pos] : positions_) {
    total += std::max<int64_t>(0, t->partition(p).end_offset() - pos);
  }
  return total;
}

}  // namespace dcm::bus
