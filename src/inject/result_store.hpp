// Content-addressed on-disk result store for campaign shards (DESIGN.md §4g).
//
// The one result cache: runExperiment and carecc keep it on by default
// under `<artifact dir>/store`. Every committed shard of trials
// [start, start+count) is written under the semantic campaign key
// (campaignKey): the compiled image's digest plus the campaign knobs that
// change records. The key deliberately excludes the injection count —
// trials are drawn sequentially from Rng(seed), so a 2000-trial campaign
// shares its first shards with a 400-trial one — and every pure
// performance knob (threads, processes, backend, replay interval).
// Repeated or overlapping campaigns across runs therefore *resume* instead
// of recompute, and a compiler change can never be served records of the
// binary it replaced.
//
// A finished shard has one sealed byte format, the entry (shard::seal): a
// forked worker sends it to the coordinator, which opens it once and writes
// those same bytes here; the in-process engine seals its shards itself.
//
// Robustness contract: a truncated, corrupted, version-mismatched or
// wrong-key entry is a miss, never an error — load() returns nullopt and the
// shard is recomputed (and the entry rewritten). Writes go through a
// temporary file + rename so a crashed writer can only ever leave a *.tmp
// turd, not a torn entry.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "inject/experiment.hpp"

namespace care::inject {

class ResultStore {
public:
  static constexpr std::uint32_t kMagic = 0x54535243; // "CRST"
  static constexpr std::uint32_t kVersion = 1;

  /// A store rooted at `dir` for the campaign identified by `key` (the
  /// campaignKey hex digest). Empty dir or key disables the store; a
  /// usable store creates `dir` eagerly.
  ResultStore(std::string dir, std::string key);

  bool enabled() const { return enabled_; }
  const std::string& key() const { return key_; }

  /// Entry file for trials [start, start+count).
  std::string entryPath(int start, int count) const;

  /// Load a shard. Any anomaly — missing file, short file, bad magic /
  /// version / key / bounds, md5 trailer mismatch, trailing garbage —
  /// returns nullopt (a miss).
  std::optional<std::vector<InjectionRecord>> load(int start, int count) const;

  /// Seal a shard and write it (see write).
  bool save(int start, int count,
            const std::vector<InjectionRecord>& records) const;

  /// Write the sealed entry of trials [start, start+count) atomically
  /// (tmp + rename). Best effort: returns false on I/O failure without
  /// throwing — the store is an accelerator, never a correctness
  /// dependency.
  bool write(int start, int count,
             const std::vector<std::uint8_t>& entry) const;

private:
  std::string dir_;
  std::string key_;
  bool enabled_ = false;
};

namespace shard {

/// The sealed entry of trials [start, start+records.size()) under campaign
/// `key`: magic, version, key, start, count, the records in the
/// full-fidelity format (writeRecordBytes), and an md5 over all of it.
std::vector<std::uint8_t> seal(const std::string& key, int start,
                               std::span<const InjectionRecord> records);

/// The records of a sealed entry, or nullopt when it is not the entry of
/// trials [start, start+count) under `key`: short input, bad magic /
/// version / key / bounds, md5 trailer mismatch, a truncated record, or
/// trailing bytes.
std::optional<std::vector<InjectionRecord>>
open(const std::vector<std::uint8_t>& entry, const std::string& key,
     int start, int count);

} // namespace shard

} // namespace care::inject
