// Fixture: accel_analyze --audit-suppressions must flag the stale
// allow below (analyze_selftest pins it at line 5). The file is
// otherwise clean, so normal runs are unaffected.

// accel-lint: allow(banned-random) -- STALE: nothing fires here
int stale_allow_anchor = 0;
