// Fixture: fixed temp paths. Both literals below must fire the
// tmp-literal rule (the manifest puts this TU under a
// forbid-tmp-literal prefix).
#include <string>

std::string scratchFile() { return "/tmp/shared_by_every_run.bin"; }
std::string scratchRoot() { return "/tmp"; }
