#include "ccontrol/transactions.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace coop::ccontrol {

TxnId TransactionManager::begin() {
  const TxnId id = next_id_++;
  Txn t;
  t.record.id = id;
  txns_[id] = std::move(t);
  ++stats_.begun;
  return id;
}

TxnState TransactionManager::state(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? TxnState::kAborted : it->second.state;
}

bool TransactionManager::lock_compatible(const LockEntry& e, TxnId txn,
                                         Mode mode) const {
  for (const auto& [holder, held_mode] : e.holders) {
    if (holder == txn) {
      // Re-entrant; an upgrade to exclusive additionally requires that we
      // are the only holder, checked against the other entries below.
      continue;
    }
    if (mode == Mode::kExclusive || held_mode == Mode::kExclusive)
      return false;
  }
  return true;
}

void TransactionManager::lock(TxnId txn, const std::string& key, Mode mode,
                              std::function<void(bool)> done) {
  auto tit = txns_.find(txn);
  if (tit == txns_.end() || tit->second.state != TxnState::kActive) {
    done(false);
    return;
  }
  LockEntry& e = locks_[key];

  // Already held in a sufficient mode?
  if (auto hit = e.holders.find(txn); hit != e.holders.end()) {
    if (hit->second == Mode::kExclusive || mode == Mode::kShared) {
      done(true);
      return;
    }
  }

  if (lock_compatible(e, txn, mode)) {
    Mode& held = e.holders[txn];  // default-inserts kShared
    if (mode == Mode::kExclusive) held = Mode::kExclusive;
    tit->second.locks.insert(key);
    stats_.block_time.add(0.0);
    done(true);
    return;
  }

  // Wait-die: wait only if we are older than every conflicting holder.
  for (const auto& [holder, held_mode] : e.holders) {
    if (holder == txn) continue;
    const bool conflicts =
        mode == Mode::kExclusive || held_mode == Mode::kExclusive;
    if (conflicts && txn > holder) {
      kill(txn);
      done(false);
      return;
    }
  }

  e.waiters.push_back({txn, mode, std::move(done), sim_.now()});
}

void TransactionManager::promote(const std::string& key) {
  auto lit = locks_.find(key);
  if (lit == locks_.end()) return;
  LockEntry& e = lit->second;
  while (!e.waiters.empty()) {
    Waiter& front = e.waiters.front();
    auto tit = txns_.find(front.txn);
    if (tit == txns_.end() || tit->second.state != TxnState::kActive) {
      // Waiter died or finished elsewhere; drop silently (its callback
      // already fired via kill()).
      e.waiters.pop_front();
      continue;
    }
    if (!lock_compatible(e, front.txn, front.mode)) break;
    Waiter w = std::move(front);
    e.waiters.pop_front();
    Mode& held = e.holders[w.txn];  // default-inserts kShared
    if (w.mode == Mode::kExclusive) held = Mode::kExclusive;
    txns_[w.txn].locks.insert(key);
    stats_.block_time.add(static_cast<double>(sim_.now() - w.since));
    w.granted(true);
  }
}

void TransactionManager::kill(TxnId txn) {
  auto tit = txns_.find(txn);
  if (tit == txns_.end() || tit->second.state != TxnState::kActive) return;
  ++stats_.wait_die_aborts;
  ++stats_.aborts;
  tit->second.state = TxnState::kAborted;
  release_all(txn);
}

void TransactionManager::release_all(TxnId txn) {
  auto tit = txns_.find(txn);
  if (tit == txns_.end()) return;
  // Fail any waits this transaction still has queued.
  for (auto& [key, entry] : locks_) {
    for (auto wit = entry.waiters.begin(); wit != entry.waiters.end();) {
      if (wit->txn == txn) {
        auto granted = std::move(wit->granted);
        wit = entry.waiters.erase(wit);
        if (granted) granted(false);
      } else {
        ++wit;
      }
    }
  }
  const std::set<std::string> held = std::move(tit->second.locks);
  tit->second.locks.clear();
  for (const std::string& key : held) {
    auto lit = locks_.find(key);
    if (lit == locks_.end()) continue;
    lit->second.holders.erase(txn);
  }
  // Promote after all releases so multi-lock waiters see the full picture.
  for (const std::string& key : held) promote(key);
}

void TransactionManager::read(TxnId txn, const std::string& key,
                              ReadFn done) {
  lock(txn, key, Mode::kShared,
       [this, txn, key, done = std::move(done)](bool ok) {
         if (!ok) {
           done(false, std::nullopt);
           return;
         }
         auto tit = txns_.find(txn);
         if (tit == txns_.end() || tit->second.state != TxnState::kActive) {
           done(false, std::nullopt);
           return;
         }
         // Read-your-writes within the transaction.
         std::optional<std::string> value;
         auto bit = tit->second.write_buffer.find(key);
         if (bit != tit->second.write_buffer.end()) {
           value = bit->second;
         } else {
           value = store_.read(key);
         }
         tit->second.record.ops.push_back({false, key, value});
         done(true, std::move(value));
       });
}

void TransactionManager::write(TxnId txn, const std::string& key,
                               std::string value, WriteFn done) {
  lock(txn, key, Mode::kExclusive,
       [this, txn, key, value = std::move(value),
        done = std::move(done)](bool ok) mutable {
         if (!ok) {
           done(false);
           return;
         }
         auto tit = txns_.find(txn);
         if (tit == txns_.end() || tit->second.state != TxnState::kActive) {
           done(false);
           return;
         }
         tit->second.write_buffer[key] = value;
         tit->second.record.ops.push_back({true, key, std::move(value)});
         done(true);
       });
}

bool TransactionManager::commit(TxnId txn) {
  auto tit = txns_.find(txn);
  if (tit == txns_.end() || tit->second.state != TxnState::kActive)
    return false;
  Txn& t = tit->second;
  for (auto& [key, value] : t.write_buffer) store_.write(key, value);
  t.state = TxnState::kCommitted;
  ++stats_.commits;
  log_.push_back(t.record);
  release_all(txn);
  return true;
}

void TransactionManager::abort(TxnId txn) {
  auto tit = txns_.find(txn);
  if (tit == txns_.end() || tit->second.state != TxnState::kActive) return;
  tit->second.state = TxnState::kAborted;
  ++stats_.aborts;
  release_all(txn);
}

}  // namespace coop::ccontrol
