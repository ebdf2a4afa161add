#include "profiling/symbol_table.hh"

#include <deque>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "util/logging.hh"

namespace accel::profiling {

namespace {

struct SymbolTable
{
    std::mutex mutex;
    /** Guarded by mutex. A deque never moves its elements, so names
     *  handed out by symbolName() stay put as the table grows. */
    std::deque<std::string> names;
    /** Guarded by mutex; keys view the strings in names. */
    std::unordered_map<std::string_view, SymbolId> ids;
};

SymbolTable &
table()
{
    // Never destroyed, so names outlive every static destructor too.
    static SymbolTable *const t = new SymbolTable;
    return *t;
}

} // namespace

SymbolId
intern(std::string_view name)
{
    SymbolTable &t = table();
    std::lock_guard<std::mutex> lock(t.mutex);
    if (auto it = t.ids.find(name); it != t.ids.end())
        return it->second;
    require(t.names.size() < std::numeric_limits<SymbolId>::max(),
            "intern: symbol table is full");
    const auto id = static_cast<SymbolId>(t.names.size());
    t.ids.emplace(t.names.emplace_back(name), id);
    return id;
}

const std::string &
symbolName(SymbolId id)
{
    SymbolTable &t = table();
    std::lock_guard<std::mutex> lock(t.mutex);
    require(id < t.names.size(), "symbolName: unknown symbol id");
    return t.names[id];
}

} // namespace accel::profiling
