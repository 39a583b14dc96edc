// Planted violation for bacp-det-wallclock: reading the environment outside
// the sanctioned common/ site lets host state leak into runs.
#include <cstdlib>
#include <string>

namespace fixture {

inline std::string output_dir() {
  const char* dir = std::getenv("BACP_OUT");  // PLANT
  return dir != nullptr ? std::string(dir) : std::string("out");
}

}  // namespace fixture
