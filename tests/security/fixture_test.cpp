// The shared fixture model must be the model the tests would train
// themselves: a checkpoint written by the setup test and loaded here has to
// serialize to the same bytes as a fresh in-process training run.
#include <gtest/gtest.h>

#include <string>

#include "gansec/model/serialize.hpp"
#include "test_fixture.hpp"

namespace gansec::security {
namespace {

using testing::trained_setup;

TEST(SecurityFixture, SharedModelEqualsInProcessTraining) {
  const auto fresh = testing::untrained_setup();
  testing::train_fixture_model(*fresh);
  const std::string shared =
      model::make_cgan_writer(trained_setup().model).to_bytes();
  const std::string trained = model::make_cgan_writer(fresh->model).to_bytes();
  ASSERT_EQ(shared.size(), trained.size());
  EXPECT_EQ(shared, trained);
}

}  // namespace
}  // namespace gansec::security
