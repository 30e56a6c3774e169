// Trains the security tests' shared CGAN once and writes it as a
// gansec.model.v1 file, so every test_security process can load it
// instead of training its own copy:
//
//   security_fixture_model <model.gsm>
//
// ctest runs this as the `security_fixture_model` setup test and passes
// the file to test_security through GANSEC_SECURITY_MODEL.
#include <cstdio>
#include <exception>

#include "test_fixture.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <model.gsm>\n", argv[0]);
    return 2;
  }
  try {
    const auto setup = gansec::security::testing::untrained_setup();
    gansec::security::testing::train_fixture_model(*setup);
    gansec::model::save_cgan_checkpoint(setup->model, argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
