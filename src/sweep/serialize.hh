/**
 * @file
 * JSON views of the simulator's domain types.
 *
 * One generic encoder and one generic decoder walk each record's field
 * list (`fields()` on SimStats and its parts, SmtConfig, CacheParams
 * and MeasureOptions), so a field's JSON key is named once, in its
 * record, and the list's order is the byte order of digests and cache
 * entries.
 *
 * Configs and measure options serialize one-way (their JSON is the
 * canonical form the content digest hashes, and a human-readable
 * record inside cache entries); SimStats round-trips exactly — every
 * counter is a 64-bit integer, so a cache hit reproduces the stats of
 * the original simulation bit for bit.
 */

#ifndef SMT_SWEEP_SERIALIZE_HH
#define SMT_SWEEP_SERIALIZE_HH

#include "config/config.hh"
#include "sim/mix_runner.hh"
#include "stats/stats.hh"
#include "sweep/json.hh"

namespace smt::sweep
{

/** Every architectural knob, in a fixed field order. */
Json toJson(const SmtConfig &cfg);

/** The result-affecting measurement knobs (never `parallel`). */
Json toJson(const MeasureOptions &opts);

/** Every counter, including histogram state. */
Json toJson(const SimStats &stats);

/** The stall ledger with each per-thread counter cut to its first
 *  `threads` slots (the pipetrace sample's `stalls`). */
Json toJson(const StallStats &stalls, unsigned threads);

/** Rebuild stats from toJson() output; false (out untouched) when any
 *  key, at any depth, is missing or has the wrong type. */
bool simStatsFromJson(const Json &j, SimStats &out);

} // namespace smt::sweep

#endif // SMT_SWEEP_SERIALIZE_HH
