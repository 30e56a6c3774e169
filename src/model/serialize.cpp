#include "gansec/model/serialize.hpp"

#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "gansec/error.hpp"
#include "gansec/nn/activations.hpp"
#include "gansec/nn/batchnorm.hpp"
#include "gansec/nn/dense.hpp"
#include "gansec/nn/dropout.hpp"
#include "gansec/obs/trace.hpp"

namespace gansec::model {

namespace {

// u64 values that must survive exactly (seeds, RNG cursors) travel as
// decimal strings: JSON numbers are doubles and silently lose precision
// past 2^53.
std::uint64_t parse_u64(const std::string& text, const char* what) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    throw ParseError(std::string("checkpoint: ") + what +
                     " is not a decimal u64: '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    throw ParseError(std::string("checkpoint: ") + what +
                     " is not a decimal u64: '" + text + "'");
  }
  return v;
}

std::uint64_t to_u64(const obs::JsonValue& v, const char* what) {
  if (!v.is_number()) {
    throw ParseError(std::string("checkpoint: ") + what + " is not a number");
  }
  const double d = v.as_number();
  if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d))) {
    throw ParseError(std::string("checkpoint: ") + what +
                     " is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

const obs::JsonValue& member(const obs::JsonValue& object,
                             std::string_view key, const char* what) {
  const obs::JsonValue* v = object.find(key);
  if (v == nullptr) {
    throw ParseError(std::string("checkpoint: ") + what +
                     " is missing member '" + std::string(key) + "'");
  }
  return *v;
}

std::string member_string(const obs::JsonValue& object, std::string_view key,
                          const char* what) {
  const obs::JsonValue& v = member(object, key, what);
  if (!v.is_string()) {
    throw ParseError(std::string("checkpoint: ") + what + " member '" +
                     std::string(key) + "' is not a string");
  }
  return v.as_string();
}

double member_number(const obs::JsonValue& object, std::string_view key,
                     const char* what) {
  const obs::JsonValue& v = member(object, key, what);
  if (!v.is_number()) {
    throw ParseError(std::string("checkpoint: ") + what + " member '" +
                     std::string(key) + "' is not a number");
  }
  return v.as_number();
}

void require_shape(const math::Matrix& m, std::size_t rows, std::size_t cols,
                   const std::string& name) {
  if (m.rows() != rows || m.cols() != cols) {
    throw ParseError("checkpoint: tensor '" + name + "' is " +
                     std::to_string(m.rows()) + "x" +
                     std::to_string(m.cols()) + ", layer structure needs " +
                     std::to_string(rows) + "x" + std::to_string(cols));
  }
}

std::string_view scheme_name(nn::InitScheme s) {
  return s == nn::InitScheme::kXavierUniform ? "xavier" : "he";
}

nn::InitScheme scheme_from_name(const std::string& name) {
  if (name == "xavier") return nn::InitScheme::kXavierUniform;
  if (name == "he") return nn::InitScheme::kHeNormal;
  throw ParseError("checkpoint: unknown init scheme '" + name + "'");
}

std::string json_u64_array(const std::vector<std::size_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

std::vector<std::size_t> read_u64_array(const CheckpointReader& reader,
                                        std::string_view key) {
  const obs::JsonValue* attrs = reader.attrs();
  const obs::JsonValue* v = attrs == nullptr ? nullptr : attrs->find(key);
  if (v == nullptr || !v->is_array()) {
    throw ParseError("checkpoint: attr '" + std::string(key) +
                     "' is not an array");
  }
  std::vector<std::size_t> out;
  out.reserve(v->as_array().size());
  for (const obs::JsonValue& item : v->as_array()) {
    out.push_back(static_cast<std::size_t>(
        to_u64(item, ("attr " + std::string(key) + " element").c_str())));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Mlp

void add_mlp(CheckpointWriter& writer, const nn::Mlp& mlp,
             const std::string& prefix) {
  std::string layers = "[";
  for (std::size_t i = 0; i < mlp.layer_count(); ++i) {
    const nn::Layer& layer = mlp.layer(i);
    const std::string kind = layer.kind();
    const std::string tn = prefix + "l" + std::to_string(i);
    if (i != 0) layers += ',';
    if (kind == "dense") {
      const auto& d = dynamic_cast<const nn::Dense&>(layer);
      layers += "{\"kind\":\"dense\",\"in\":" + std::to_string(d.inputs()) +
                ",\"out\":" + std::to_string(d.outputs()) +
                ",\"scheme\":\"" + std::string(scheme_name(d.scheme())) +
                "\"}";
      writer.add_matrix(tn + ".weight", d.weight().value);
      writer.add_matrix(tn + ".bias", d.bias().value);
    } else if (kind == "leaky_relu") {
      const auto& l = dynamic_cast<const nn::LeakyRelu&>(layer);
      layers += "{\"kind\":\"leaky_relu\",\"slope\":" +
                obs::json_number(static_cast<double>(l.negative_slope())) +
                '}';
    } else if (kind == "dropout") {
      // Seed and mask-RNG cursor travel as strings (exact u64 / full
      // mt19937_64 state), so a restored layer continues the identical
      // mask stream mid-training.
      const auto& d = dynamic_cast<const nn::Dropout&>(layer);
      layers += "{\"kind\":\"dropout\",\"rate\":" +
                obs::json_number(static_cast<double>(d.rate())) +
                ",\"seed\":\"" + std::to_string(d.seed()) + "\",\"rng\":\"" +
                obs::json_escape(d.mask_rng().save_state()) + "\"}";
    } else if (kind == "batch_norm") {
      const auto& bn = dynamic_cast<const nn::BatchNorm&>(layer);
      layers += "{\"kind\":\"batch_norm\",\"features\":" +
                std::to_string(bn.features()) + ",\"momentum\":" +
                obs::json_number(static_cast<double>(bn.momentum())) +
                ",\"eps\":" +
                obs::json_number(static_cast<double>(bn.eps())) + '}';
      writer.add_matrix(tn + ".gamma", bn.gamma().value);
      writer.add_matrix(tn + ".beta", bn.beta().value);
      writer.add_matrix(tn + ".running_mean", bn.running_mean());
      writer.add_matrix(tn + ".running_var", bn.running_var());
    } else if (kind == "relu" || kind == "tanh" || kind == "sigmoid") {
      layers += "{\"kind\":\"" + kind + "\"}";
    } else {
      throw InvalidArgumentError("add_mlp: unknown layer kind '" + kind +
                                 "'");
    }
  }
  layers += ']';
  writer.add_attr_json(prefix + "layers", std::move(layers));
}

nn::Mlp read_mlp(const CheckpointReader& reader, const std::string& prefix) {
  const obs::JsonValue* attrs = reader.attrs();
  const std::string key = prefix + "layers";
  const obs::JsonValue* layers =
      attrs == nullptr ? nullptr : attrs->find(key);
  if (layers == nullptr || !layers->is_array()) {
    throw ParseError("checkpoint: attr '" + key +
                     "' (layer structure) is missing or not an array");
  }
  nn::Mlp mlp;
  std::size_t i = 0;
  for (const obs::JsonValue& entry : layers->as_array()) {
    if (!entry.is_object()) {
      throw ParseError("checkpoint: layer entry in '" + key +
                       "' is not an object");
    }
    const std::string kind = member_string(entry, "kind", "layer entry");
    const std::string tn = prefix + "l" + std::to_string(i);
    if (kind == "dense") {
      const auto in = static_cast<std::size_t>(
          to_u64(member(entry, "in", "dense layer"), "dense in"));
      const auto out = static_cast<std::size_t>(
          to_u64(member(entry, "out", "dense layer"), "dense out"));
      auto& dense = mlp.emplace<nn::Dense>(
          in, out,
          scheme_from_name(member_string(entry, "scheme", "dense layer")));
      dense.weight().value = reader.read_matrix(tn + ".weight");
      dense.bias().value = reader.read_matrix(tn + ".bias");
      require_shape(dense.weight().value, in, out, tn + ".weight");
      require_shape(dense.bias().value, 1, out, tn + ".bias");
    } else if (kind == "relu") {
      mlp.emplace<nn::Relu>();
    } else if (kind == "tanh") {
      mlp.emplace<nn::Tanh>();
    } else if (kind == "sigmoid") {
      mlp.emplace<nn::Sigmoid>();
    } else if (kind == "leaky_relu") {
      mlp.emplace<nn::LeakyRelu>(static_cast<float>(
          member_number(entry, "slope", "leaky_relu layer")));
    } else if (kind == "dropout") {
      const auto rate = static_cast<float>(
          member_number(entry, "rate", "dropout layer"));
      const std::uint64_t seed = parse_u64(
          member_string(entry, "seed", "dropout layer"), "dropout seed");
      auto& dropout = mlp.emplace<nn::Dropout>(rate, seed);
      dropout.mask_rng().restore_state(
          member_string(entry, "rng", "dropout layer"));
    } else if (kind == "batch_norm") {
      const auto features = static_cast<std::size_t>(to_u64(
          member(entry, "features", "batch_norm layer"), "features"));
      auto& bn = mlp.emplace<nn::BatchNorm>(
          features,
          static_cast<float>(
              member_number(entry, "momentum", "batch_norm layer")),
          static_cast<float>(member_number(entry, "eps", "batch_norm layer")));
      bn.gamma().value = reader.read_matrix(tn + ".gamma");
      bn.beta().value = reader.read_matrix(tn + ".beta");
      bn.running_mean() = reader.read_matrix(tn + ".running_mean");
      bn.running_var() = reader.read_matrix(tn + ".running_var");
      require_shape(bn.gamma().value, 1, features, tn + ".gamma");
      require_shape(bn.beta().value, 1, features, tn + ".beta");
      require_shape(bn.running_mean(), 1, features, tn + ".running_mean");
      require_shape(bn.running_var(), 1, features, tn + ".running_var");
    } else {
      throw ParseError("checkpoint: unknown layer kind '" + kind + "'");
    }
    ++i;
  }
  return mlp;
}

void save_mlp_checkpoint(const nn::Mlp& mlp, const std::string& path) {
  GANSEC_SPAN("model.ckpt.save");
  CheckpointWriter writer("mlp");
  add_mlp(writer, mlp, "");
  writer.write_file(path);
}

nn::Mlp load_mlp_checkpoint(const CheckpointReader& reader) {
  if (reader.kind() != "mlp") {
    throw ParseError("checkpoint: expected kind 'mlp', found '" +
                     reader.kind() + "'");
  }
  return read_mlp(reader, "");
}

nn::Mlp load_mlp_checkpoint_file(const std::string& path) {
  GANSEC_SPAN("model.ckpt.load");
  const CheckpointReader reader = CheckpointReader::from_file(path);
  return load_mlp_checkpoint(reader);
}

// ---------------------------------------------------------------------------
// Cgan

namespace {

void add_cgan(CheckpointWriter& writer, const gan::Cgan& model) {
  const gan::CganTopology& t = model.topology();
  writer.add_attr("data_dim", static_cast<std::uint64_t>(t.data_dim));
  writer.add_attr("cond_dim", static_cast<std::uint64_t>(t.cond_dim));
  writer.add_attr("noise_dim", static_cast<std::uint64_t>(t.noise_dim));
  writer.add_attr_json("generator_hidden",
                       json_u64_array(t.generator_hidden));
  writer.add_attr_json("discriminator_hidden",
                       json_u64_array(t.discriminator_hidden));
  writer.add_attr("leaky_slope", static_cast<double>(t.leaky_slope));
  writer.add_attr("discriminator_dropout",
                  static_cast<double>(t.discriminator_dropout));
  writer.add_attr("generator_batchnorm", t.generator_batchnorm);
  add_mlp(writer, model.generator(), "g.");
  add_mlp(writer, model.discriminator(), "d.");
}

}  // namespace

CheckpointWriter make_cgan_writer(const gan::Cgan& model) {
  CheckpointWriter writer("cgan");
  add_cgan(writer, model);
  return writer;
}

void save_cgan_checkpoint(const gan::Cgan& model, const std::string& path) {
  GANSEC_SPAN("model.ckpt.save");
  make_cgan_writer(model).write_file(path);
}

gan::Cgan load_cgan_checkpoint(const CheckpointReader& reader) {
  if (reader.kind() != "cgan" && reader.kind() != "cgan_trainer") {
    throw ParseError("checkpoint: expected kind 'cgan' or 'cgan_trainer', "
                     "found '" +
                     reader.kind() + "'");
  }
  gan::CganTopology t;
  t.data_dim = static_cast<std::size_t>(reader.attr_u64("data_dim"));
  t.cond_dim = static_cast<std::size_t>(reader.attr_u64("cond_dim"));
  t.noise_dim = static_cast<std::size_t>(reader.attr_u64("noise_dim"));
  t.generator_hidden = read_u64_array(reader, "generator_hidden");
  t.discriminator_hidden = read_u64_array(reader, "discriminator_hidden");
  t.leaky_slope = static_cast<float>(reader.attr_number("leaky_slope"));
  t.discriminator_dropout =
      static_cast<float>(reader.attr_number("discriminator_dropout"));
  t.generator_batchnorm = reader.attr_bool("generator_batchnorm");
  nn::Mlp generator = read_mlp(reader, "g.");
  nn::Mlp discriminator = read_mlp(reader, "d.");
  // The Cgan constructor cross-checks network shapes against the topology,
  // closing the loop on a tampered-but-valid-JSON meta block.
  return gan::Cgan(std::move(t), std::move(generator),
                   std::move(discriminator));
}

gan::Cgan load_cgan_checkpoint_file(const std::string& path) {
  GANSEC_SPAN("model.ckpt.load");
  const CheckpointReader reader = CheckpointReader::from_file(path);
  return load_cgan_checkpoint(reader);
}

// ---------------------------------------------------------------------------
// Trainer resume

namespace {

std::string_view optimizer_name(gan::OptimizerKind kind) {
  switch (kind) {
    case gan::OptimizerKind::kSgd:
      return "sgd";
    case gan::OptimizerKind::kMomentum:
      return "momentum";
    case gan::OptimizerKind::kAdam:
      return "adam";
  }
  throw InvalidArgumentError("save_trainer_checkpoint: unknown optimizer");
}

gan::OptimizerKind optimizer_from_name(const std::string& name) {
  if (name == "sgd") return gan::OptimizerKind::kSgd;
  if (name == "momentum") return gan::OptimizerKind::kMomentum;
  if (name == "adam") return gan::OptimizerKind::kAdam;
  throw ParseError("checkpoint: unknown optimizer '" + name + "'");
}

void add_optimizer(CheckpointWriter& writer, const nn::Optimizer& opt,
                   const std::string& prefix) {
  if (const auto* adam = dynamic_cast<const nn::Adam*>(&opt)) {
    writer.add_attr(prefix + ".step_count",
                    static_cast<std::uint64_t>(adam->step_count()));
    for (std::size_t i = 0; i < adam->moment1().size(); ++i) {
      writer.add_matrix(prefix + ".m" + std::to_string(i),
                        adam->moment1()[i]);
      writer.add_matrix(prefix + ".v" + std::to_string(i),
                        adam->moment2()[i]);
    }
  } else if (const auto* mom = dynamic_cast<const nn::Momentum*>(&opt)) {
    for (std::size_t i = 0; i < mom->velocity().size(); ++i) {
      writer.add_matrix(prefix + ".vel" + std::to_string(i),
                        mom->velocity()[i]);
    }
  }
  // Sgd is stateless: nothing beyond the weights themselves.
}

void restore_optimizer(nn::Optimizer& opt, const CheckpointReader& reader,
                       const std::string& prefix) {
  auto restore_into = [&](std::vector<math::Matrix>& state,
                          const char* tag) {
    for (std::size_t i = 0; i < state.size(); ++i) {
      const std::string name = prefix + "." + tag + std::to_string(i);
      math::Matrix loaded = reader.read_matrix(name);
      require_shape(loaded, state[i].rows(), state[i].cols(), name);
      state[i] = std::move(loaded);
    }
  };
  if (auto* adam = dynamic_cast<nn::Adam*>(&opt)) {
    adam->set_step_count(
        static_cast<std::size_t>(reader.attr_u64(prefix + ".step_count")));
    restore_into(adam->moment1(), "m");
    restore_into(adam->moment2(), "v");
  } else if (auto* mom = dynamic_cast<nn::Momentum*>(&opt)) {
    restore_into(mom->velocity(), "vel");
  }
}

}  // namespace

void save_trainer_checkpoint(const gan::CganTrainer& trainer,
                             const std::string& path) {
  GANSEC_SPAN("model.ckpt.save");
  CheckpointWriter writer("cgan_trainer");
  add_cgan(writer, trainer.model());
  const gan::TrainConfig& c = trainer.config();
  writer.add_attr("train.batch_size",
                  static_cast<std::uint64_t>(c.batch_size));
  writer.add_attr("train.discriminator_steps",
                  static_cast<std::uint64_t>(c.discriminator_steps));
  writer.add_attr("train.iterations",
                  static_cast<std::uint64_t>(c.iterations));
  writer.add_attr("train.learning_rate_g",
                  static_cast<double>(c.learning_rate_g));
  writer.add_attr("train.learning_rate_d",
                  static_cast<double>(c.learning_rate_d));
  writer.add_attr("train.optimizer", optimizer_name(c.optimizer));
  writer.add_attr("train.generator_loss",
                  c.generator_loss == gan::GeneratorLoss::kOriginalMinimax
                      ? "minimax"
                      : "non_saturating");
  writer.add_attr(
      "train.objective",
      c.objective == gan::AdversarialObjective::kBinaryCrossEntropy
          ? "bce"
          : "lsgan");
  writer.add_attr("train.adam_beta1", static_cast<double>(c.adam_beta1));
  writer.add_attr("train.real_label", static_cast<double>(c.real_label));
  writer.add_attr("train.checkpoint_every",
                  static_cast<std::uint64_t>(c.checkpoint_every));
  writer.add_attr("train.metrics_scope", c.metrics_scope);
  writer.add_attr("train.iterations_done",
                  static_cast<std::uint64_t>(trainer.iterations_done()));
  writer.add_attr("train.rng", trainer.rng().save_state());
  add_optimizer(writer, trainer.optimizer_g(), "opt_g");
  add_optimizer(writer, trainer.optimizer_d(), "opt_d");
  writer.write_file(path);
}

gan::TrainConfig read_train_config(const CheckpointReader& reader) {
  if (reader.kind() != "cgan_trainer") {
    throw ParseError("checkpoint: expected kind 'cgan_trainer', found '" +
                     reader.kind() + "'");
  }
  gan::TrainConfig c;
  c.batch_size =
      static_cast<std::size_t>(reader.attr_u64("train.batch_size"));
  c.discriminator_steps = static_cast<std::size_t>(
      reader.attr_u64("train.discriminator_steps"));
  c.iterations =
      static_cast<std::size_t>(reader.attr_u64("train.iterations"));
  c.learning_rate_g =
      static_cast<float>(reader.attr_number("train.learning_rate_g"));
  c.learning_rate_d =
      static_cast<float>(reader.attr_number("train.learning_rate_d"));
  c.optimizer = optimizer_from_name(reader.attr_string("train.optimizer"));
  const std::string g_loss = reader.attr_string("train.generator_loss");
  if (g_loss == "minimax") {
    c.generator_loss = gan::GeneratorLoss::kOriginalMinimax;
  } else if (g_loss == "non_saturating") {
    c.generator_loss = gan::GeneratorLoss::kNonSaturating;
  } else {
    throw ParseError("checkpoint: unknown generator loss '" + g_loss + "'");
  }
  const std::string objective = reader.attr_string("train.objective");
  if (objective == "bce") {
    c.objective = gan::AdversarialObjective::kBinaryCrossEntropy;
  } else if (objective == "lsgan") {
    c.objective = gan::AdversarialObjective::kLeastSquares;
  } else {
    throw ParseError("checkpoint: unknown objective '" + objective + "'");
  }
  c.adam_beta1 = static_cast<float>(reader.attr_number("train.adam_beta1"));
  c.real_label = static_cast<float>(reader.attr_number("train.real_label"));
  c.checkpoint_every =
      static_cast<std::size_t>(reader.attr_u64("train.checkpoint_every"));
  c.metrics_scope = reader.attr_string("train.metrics_scope");
  return c;
}

void restore_trainer_state(gan::CganTrainer& trainer,
                           const CheckpointReader& reader) {
  if (reader.kind() != "cgan_trainer") {
    throw ParseError("checkpoint: expected kind 'cgan_trainer', found '" +
                     reader.kind() + "'");
  }
  const gan::OptimizerKind recorded =
      optimizer_from_name(reader.attr_string("train.optimizer"));
  if (recorded != trainer.config().optimizer) {
    throw ParseError(
        "checkpoint: recorded optimizer does not match the trainer's");
  }
  trainer.rng().restore_state(reader.attr_string("train.rng"));
  trainer.set_iterations_done(
      static_cast<std::size_t>(reader.attr_u64("train.iterations_done")));
  restore_optimizer(trainer.optimizer_g(), reader, "opt_g");
  restore_optimizer(trainer.optimizer_d(), reader, "opt_d");
}

}  // namespace gansec::model
