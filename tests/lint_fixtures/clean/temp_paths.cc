// Fixture: no fixed temp path. A comment may say "/tmp/" freely, and
// literals that merely contain the letters stay silent.
#include <string>

std::string testPath(const std::string &name);

std::string scratchFile() { return testPath("private.bin"); }
std::string mountName() { return "/tmpfs"; }
std::string note() { return "files go under /tmp/ by default"; }
