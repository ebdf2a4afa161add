/**
 * @file
 * Process-wide interning of call-trace frame names.
 *
 * A sampled trace carries 32-bit symbol ids, not strings: each distinct
 * frame name is interned once, and consumers turn ids back into names
 * only when they print or when they meet a symbol for the first time.
 * Ids are dense from 0 in first-intern order, which can differ between
 * threads and runs, so no output may depend on an id's value.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace accel::profiling {

/** An interned frame name. */
using SymbolId = std::uint32_t;

/**
 * Id of @p name, interned on first sight. Thread-safe: a name gives the
 * same id on every thread for the life of the process, and distinct
 * names give distinct ids.
 */
SymbolId intern(std::string_view name);

/**
 * Name of an interned symbol. Thread-safe; the table is append-only, so
 * the reference stays valid for the life of the process.
 *
 * @throws FatalError for an id intern() never returned.
 */
const std::string &symbolName(SymbolId id);

} // namespace accel::profiling
