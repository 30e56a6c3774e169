// Call-graph fixture: template-qualified calls. The call through
// std::numeric_limits<double> is a standard-library call and must not
// resolve to the allocating fx::Grid::max; the call through fx::Box<int>
// is repo code and must resolve past its template arguments to
// fx::Box::make.
#include <limits>
#include <vector>

namespace fx {

struct Grid {
  std::vector<double> cells;
  double max() {
    cells.push_back(0.0);
    return cells.back();
  }
};

template <typename T>
struct Box {
  static T* make() { return new T(); }
};

double root(int** out) {
  // gansec-lint: hot-path
  const double cap = std::numeric_limits<double>::max();
  *out = Box<int>::make();
  // gansec-lint: end-hot-path
  return cap;
}

}  // namespace fx
