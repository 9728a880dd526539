// Generation-stamped memo.
//
// GenStampedMemo caches values that are pure functions of (key, generation):
// each entry carries the MemoStamp it was computed under, and Find only hits
// when the caller's current stamp matches the entry's. When the generation
// advances, a maintainer either evicts the entries the change dirtied and
// restamps the clean survivors (incremental path) or clears outright (full
// recompute) -- stale entries are never served.
//
// Entries live in one std::map, so returned references stay valid until the
// entry is erased or the memo is cleared. Not thread-safe: the owner
// (CriusScheduler) is used by one thread at a time.

#ifndef SRC_UTIL_GEN_MEMO_H_
#define SRC_UTIL_GEN_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

namespace crius {

// The generation a memo entry was computed under. For scheduler state this is
// (Cluster::identity(), Cluster::health_epoch()): identity catches a swap to
// a different cluster object whose epoch coincidentally matches, the epoch
// catches health mutations of the same cluster.
struct MemoStamp {
  uint64_t identity = 0;
  uint64_t epoch = 0;

  friend bool operator==(const MemoStamp& a, const MemoStamp& b) {
    return a.identity == b.identity && a.epoch == b.epoch;
  }
  friend bool operator!=(const MemoStamp& a, const MemoStamp& b) { return !(a == b); }
};

template <typename Key, typename Value>
class GenStampedMemo {
 public:
  // Returns the entry for `key` iff it exists AND carries `stamp`; nullptr
  // otherwise. The reference stays valid until the entry is erased.
  const Value* Find(const Key& key, const MemoStamp& stamp) const {
    auto it = map_.find(key);
    if (it == map_.end() || it->second.stamp != stamp) {
      return nullptr;
    }
    return &it->second.value;
  }

  // Inserts (key, stamp, value). If an entry with the same stamp already
  // exists the insert is dropped and the existing value returned (first
  // wins, so references handed out earlier stay immutable); an entry with a
  // stale stamp is overwritten in place.
  const Value& PutIfAbsent(const Key& key, const MemoStamp& stamp, Value&& value) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      it = map_.emplace(key, Entry{stamp, std::move(value)}).first;
    } else if (it->second.stamp != stamp) {
      it->second.stamp = stamp;
      it->second.value = std::move(value);
    }
    return it->second.value;
  }

  // Moves an existing entry (whatever its current stamp) to `stamp` without
  // recomputing its value. Returns false if `key` is absent.
  bool Restamp(const Key& key, const MemoStamp& stamp) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    it->second.stamp = stamp;
    return true;
  }

  bool Contains(const Key& key) const { return map_.find(key) != map_.end(); }

  // Erases `key` if present; returns whether an entry was removed.
  bool Erase(const Key& key) { return map_.erase(key) > 0; }

  // Erases every entry for which pred(key, stamp) is true; returns the number
  // of entries removed. Keys are visited in map order, so the eviction
  // sequence is deterministic.
  template <typename Pred>
  size_t EvictIf(Pred&& pred) {
    size_t evicted = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first, it->second.stamp)) {
        it = map_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    return evicted;
  }

  void Clear() { map_.clear(); }

  size_t size() const { return map_.size(); }

  bool empty() const { return map_.empty(); }

 private:
  struct Entry {
    MemoStamp stamp;
    Value value;
  };

  std::map<Key, Entry> map_;
};

}  // namespace crius

#endif  // SRC_UTIL_GEN_MEMO_H_
